// Resource budgets and typed rejection errors for the validation
// path. The consumer-side checker is the trusted computing base of the
// whole PCC architecture, and it faces fully adversarial input: a
// hostile producer may ship any bytes at all as code or proof. The
// paper's criterion — "the proof checker must be simple and
// trustworthy" — therefore extends past logical soundness to resource
// soundness: a proof bomb, a decoder panic, or a pathological term
// must produce a cheap, well-typed rejection, never a crash, a hang,
// or memory exhaustion. Limits is that contract, and
// docs/ROBUSTNESS.md is its reference page.
package pcc

import (
	"context"
	"errors"
	"fmt"
)

// Limits bounds the resources one Validate/ValidateCtx call may
// consume before the binary is rejected. The zero value of any field
// means "no limit on that axis"; DefaultLimits returns the budgets a
// production consumer should start from (generous enough that every
// legitimate workload in this repository — the four paper filters, the
// IP-checksum loop, the SFI hybrids — validates with an unchanged
// verdict, tight enough that the chaos harness's proof bombs die at
// parse or check time).
type Limits struct {
	// MaxBinaryBytes bounds the whole PCC binary, checked before any
	// parsing.
	MaxBinaryBytes int
	// MaxProofBytes bounds the proof section alone (certificate size is
	// the practical cost an attacker can weaponize).
	MaxProofBytes int
	// MaxTermDepth bounds LF term nesting, both while decoding the
	// binary's proof/invariant terms and while the checker recurses
	// over them.
	MaxTermDepth int
	// MaxTermNodes bounds the total decoded LF term nodes per binary.
	MaxTermNodes int
	// MaxCheckSteps is the LF typechecker's step fuel. DAG-encoded
	// proofs expand to trees during checking, so byte-size limits alone
	// do not bound checking cost — fuel does.
	MaxCheckSteps int
	// MaxVCNodes bounds the size (LF nodes) of the safety predicate
	// recomputed from the shipped code, and the work of recomputing it
	// (a quarter as many units of vcgen.Gen's fuel). The VC is derived
	// from the untrusted code, so its size is attacker-influenced even
	// though the generator is trusted.
	MaxVCNodes int
}

// DefaultLimits returns the default validation budgets.
func DefaultLimits() Limits {
	return Limits{
		MaxBinaryBytes: 4 << 20,
		MaxProofBytes:  2 << 20,
		MaxTermDepth:   4096,
		MaxTermNodes:   1 << 22,
		MaxCheckSteps:  1 << 24,
		MaxVCNodes:     1 << 20,
	}
}

// ErrResourceLimit is the sentinel all resource-budget rejections
// match via errors.Is: the binary was rejected not because its proof
// failed, but because checking it within the configured Limits was
// refused.
var ErrResourceLimit = errors.New("pcc: resource limit exceeded")

// ResourceLimitError is a typed resource-budget rejection.
type ResourceLimitError struct {
	// Axis names the exhausted budget (e.g. "binary_bytes",
	// "proof_bytes", "term_depth", "term_nodes", "check_steps",
	// "vc_nodes", "cycle_budget").
	Axis string
	// Actual and Max quantify the violation where known (Actual may be
	// 0 when the underlying stage aborted without an exact count).
	Actual, Max int64
	// Err optionally carries the underlying stage error.
	Err error
}

// Error implements the error interface.
func (e *ResourceLimitError) Error() string {
	if e.Actual > 0 {
		return fmt.Sprintf("pcc: resource limit exceeded: %s %d > %d", e.Axis, e.Actual, e.Max)
	}
	return fmt.Sprintf("pcc: resource limit exceeded: %s (max %d)", e.Axis, e.Max)
}

// Is makes errors.Is(err, ErrResourceLimit) match.
func (e *ResourceLimitError) Is(target error) bool { return target == ErrResourceLimit }

// Unwrap exposes the underlying stage error, if any.
func (e *ResourceLimitError) Unwrap() error { return e.Err }

// PanicError is a validation-stage panic converted into a structured
// rejection by the recover fence around each stage: one malformed blob
// must never take down the consumer. The panic value and stage are
// preserved for the audit trail.
type PanicError struct {
	// Stage names the fenced validation stage that panicked
	// ("decode", "vcgen", or "lfcheck").
	Stage string
	// Value renders the recovered panic value.
	Value string
	// Stack holds a truncated stack trace of the panicking goroutine.
	Stack string
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("pcc: validation stage %s panicked: %s", e.Stage, e.Value)
}

// Fence runs f inside the validation recover fence: a panic becomes a
// *PanicError rejection attributed to the named stage. ValidateCtx
// fences its own stages; Fence lets a consumer extend the same
// containment to derived analyses it runs on untrusted extensions
// (the kernel fences its static WCET pass with it).
func Fence(stage string, f func() error) error { return fenced(stage, f) }

// RejectReason classifies a Validate/ValidateCtx error into the
// coarse reject-reason vocabulary the kernel's telemetry counters and
// audit log use: "limit" (resource budget), "deadline" (context
// expiry/cancellation), "panic" (contained stage panic), and "proof"
// (everything else — malformed binary, wrong policy, failed proof).
// A nil error returns "".
func RejectReason(err error) string {
	if err == nil {
		return ""
	}
	var pe *PanicError
	switch {
	case errors.Is(err, ErrResourceLimit):
		return "limit"
	case errors.As(err, &pe):
		return "panic"
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return "deadline"
	}
	return "proof"
}
