// Adversarial-hardening layer: the knobs a kernel operator turns when
// the install interface is exposed to genuinely hostile producers.
//
// Three mechanisms compose, all disabled or unbounded by default
// so the paper-faithful kernel is unchanged until an operator opts in:
//
//   - Validation budgets (SetLimits): every install validates under a
//     pcc.Limits, so proof bombs die as typed "limit" rejections
//     instead of exhausting the consumer (docs/ROBUSTNESS.md).
//   - Admission control (SetAdmissionLimit): a bounded count of
//     concurrent validations; excess installs shed immediately with a
//     typed *QueueFullError carrying a retry hint, rather than piling
//     up CPU-bound proof checks without bound.
//   - Producer quarantine (SetQuarantine, supervise.go): owners whose
//     installs are rejected repeatedly are embargoed with exponential
//     backoff, so a producer spraying garbage binaries cannot
//     monopolize the validator.
//
// Every rejection, whatever the mechanism, ends in settle (pipeline.go):
// it lands in the audit log with a reject_reason attribute and in the
// pcc_rejects_total{reason} counter family, and Validations ==
// installs + rejections still holds at rest.
package kernel

import (
	"errors"
	"fmt"
	"time"

	pcc "repro"
)

// SetLimits configures the resource budgets every subsequent
// validation runs under. The zero Limits value means "no budget on any
// axis"; an unset kernel validates under pcc.DefaultLimits.
func (k *Kernel) SetLimits(lim pcc.Limits) {
	old := k.Limits()
	k.limits.Store(&lim)
	k.configChange("limits", fmt.Sprintf("%+v", old), fmt.Sprintf("%+v", lim))
}

// Limits returns the configured validation budgets (DefaultLimits when
// never set).
func (k *Kernel) Limits() pcc.Limits {
	if l := k.limits.Load(); l != nil {
		return *l
	}
	return pcc.DefaultLimits()
}

// admissionRetryAfter is the retry hint a shed install carries: long
// enough for an in-flight proof check to finish, short enough that a
// well-behaved producer retries promptly.
const admissionRetryAfter = 10 * time.Millisecond

// QueueFullError reports an install shed by admission control: the
// kernel refused to even start validating because Limit validations
// were already in flight. The caller should retry after RetryAfter.
type QueueFullError struct {
	Limit      int
	RetryAfter time.Duration
}

// Error implements the error interface.
func (e *QueueFullError) Error() string {
	return fmt.Sprintf("kernel: admission queue full (%d validations in flight); retry after %s",
		e.Limit, e.RetryAfter)
}

// admitGate is a semaphore bounding concurrent validations.
type admitGate struct {
	slots chan struct{}
	limit int
}

func (g *admitGate) tryAcquire() bool {
	select {
	case g.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

func (g *admitGate) release() { <-g.slots }

// SetAdmissionLimit bounds the number of concurrently admitted install
// validations; further InstallFilterCtx calls shed immediately with a
// *QueueFullError instead of queueing unbounded CPU-bound work. n <= 0
// removes the bound (the default). The swap is atomic; in-flight
// installs drain against the gate they were admitted under.
func (k *Kernel) SetAdmissionLimit(n int) {
	if n <= 0 {
		k.admit.Store(nil)
		return
	}
	k.admit.Store(&admitGate{slots: make(chan struct{}, n), limit: n})
}

// installRejectReason extends pcc.RejectReason with the kernel's own
// rejection classes. The vocabulary is the label set of
// pcc_rejects_total: limit, deadline, panic, proof, quarantine,
// queue_full, recovery, store. Recovery is checked first: a replayed
// record that fails validation wraps the underlying proof error, and
// the boot-time bucket is the one operators alert on.
func installRejectReason(err error) string {
	var re *RecoveryError
	if errors.As(err, &re) {
		return "recovery"
	}
	var se *StoreError
	if errors.As(err, &se) {
		return "store"
	}
	var qe *QuarantineError
	if errors.As(err, &qe) {
		return "quarantine"
	}
	var fe *QueueFullError
	if errors.As(err, &fe) {
		return "queue_full"
	}
	return pcc.RejectReason(err)
}
