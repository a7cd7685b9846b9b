// Package pcc is a from-scratch reproduction of proof-carrying code as
// described in Necula & Lee, "Safe Kernel Extensions Without Run-Time
// Checking" (OSDI '96). It implements the full Figure 1 lifecycle:
//
//	policy    := policy.PacketFilter()            // consumer publishes
//	bin, _, _ := pcc.Certify(src, policy, nil)    // producer certifies
//	ext, _, _ := pcc.Validate(bin.Bytes, policy)  // consumer validates
//	res, _    := ext.Run(state)                   // zero-check execution
//
// Certification assembles the program, computes its Floyd-style safety
// predicate (internal/vcgen), proves it automatically
// (internal/prover), and packages native code + LF proof into a PCC
// binary (internal/pccbin). Validation re-derives the safety predicate
// from the shipped machine code alone and typechecks the enclosed LF
// proof against it (internal/lf) — no cryptography, no trusted
// producer, and no run-time checks afterwards.
package pcc

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/alpha"
	"repro/internal/inferinv"
	"repro/internal/lf"
	"repro/internal/logic"
	"repro/internal/machine"
	"repro/internal/pccbin"
	"repro/internal/policy"
	"repro/internal/prover"
	"repro/internal/vcgen"
)

// Re-exported policy constructors, so that typical consumers only
// import this package.
var (
	// PacketFilterPolicy is the §3 packet-filter safety policy.
	PacketFilterPolicy = policy.PacketFilter
	// ResourceAccessPolicy is the §2 resource-access safety policy.
	ResourceAccessPolicy = policy.ResourceAccess
	// SFISegmentPolicy is the §3.1 SFI-segment safety policy.
	SFISegmentPolicy = policy.SFISegment
)

// CertResult is the producer-side output: the PCC binary and
// certification statistics.
type CertResult struct {
	// Binary is the marshaled PCC binary.
	Binary []byte
	// Layout is the Figure 7 section layout.
	Layout pccbin.Layout
	// Instructions is the native instruction count.
	Instructions int
	// ProofNodes is the size of the natural-deduction proof.
	ProofNodes int
	// LFNodes is the size of the encoded LF proof term.
	LFNodes int
	// ProveTime is the theorem-proving time.
	ProveTime time.Duration
	// SafetyPredicate is the certified predicate (for inspection).
	SafetyPredicate logic.Pred
}

// Certify assembles source code, proves it safe under the policy, and
// produces a PCC binary. Programs with loops must supply an invariant
// for each backward-branch target, keyed by label.
func Certify(src string, pol *policy.Policy, invariants map[string]logic.Pred) (*CertResult, error) {
	asm, err := alpha.Assemble(src)
	if err != nil {
		return nil, err
	}
	invByPC := map[int]logic.Pred{}
	for label, inv := range invariants {
		pc, ok := asm.Labels[label]
		if !ok {
			return nil, fmt.Errorf("pcc: invariant for unknown label %q", label)
		}
		invByPC[pc] = inv
	}
	return CertifyProgram(asm.Prog, pol, invByPC)
}

// CertifyAuto is Certify with automatic loop-invariant inference for
// the counted-loop idiom (internal/inferinv): the producer does not
// supply invariants; heuristically inferred ones are tried instead.
// Inference cannot compromise safety — a wrong guess fails
// certification, never validation — so this closes, for the common
// idiom, the gap §4 calls "the main obstacle in automating the
// generation of proofs".
func CertifyAuto(src string, pol *policy.Policy) (*CertResult, error) {
	asm, err := alpha.Assemble(src)
	if err != nil {
		return nil, err
	}
	invs := inferinv.Infer(asm.Prog, pol.Pre)
	return CertifyProgram(asm.Prog, pol, invs)
}

// CertifyProgram is Certify over an already-assembled program with
// invariants keyed by instruction index.
func CertifyProgram(prog []alpha.Instr, pol *policy.Policy, invariants map[int]logic.Pred) (*CertResult, error) {
	gen, err := vcgen.Gen(prog, pol.Pre, pol.Post, invariants)
	if err != nil {
		return nil, err
	}
	extra := pol.ExtraAxioms()
	start := time.Now()
	proof, err := prover.ProveWith(gen.SP, extra)
	if err != nil {
		return nil, fmt.Errorf("pcc: certification failed: %w", err)
	}
	proof = prover.Simplify(proof)
	proveTime := time.Since(start)

	term, err := lf.EncodeProofWith(proof, extra)
	if err != nil {
		return nil, err
	}
	code, err := alpha.Encode(prog)
	if err != nil {
		return nil, err
	}
	bin := &pccbin.Binary{
		PolicyName: pol.Name,
		SigHash:    signatureFor(pol).Fingerprint(),
		Code:       code,
		Proof:      term,
	}
	for pc, inv := range invariants {
		t, err := lf.EncodeStatePred(logic.NormPred(inv))
		if err != nil {
			return nil, fmt.Errorf("pcc: invariant at pc %d: %w", pc, err)
		}
		bin.Invariants = append(bin.Invariants, pccbin.Invariant{PC: pc, Pred: t})
	}
	data, layout, err := bin.Marshal()
	if err != nil {
		return nil, err
	}
	return &CertResult{
		Binary:          data,
		Layout:          layout,
		Instructions:    len(prog),
		ProofNodes:      proof.Size(),
		LFNodes:         lf.Size(term),
		ProveTime:       proveTime,
		SafetyPredicate: gen.SP,
	}, nil
}

// ValidationStats reports the one-time cost of validating a PCC binary
// (Table 1 of the paper), broken down by pipeline stage so a consumer
// can attribute where the cost went — the breakdown the kernel's
// telemetry recorder exports as child spans and per-stage latency
// histograms (internal/telemetry, docs/OBSERVABILITY.md).
type ValidationStats struct {
	// Time is the wall-clock validation time (parse + VC generation +
	// LF typechecking).
	Time time.Duration
	// Stage breakdown. The stages sum to within bookkeeping noise of
	// Time:
	//
	//	Parse    — binary unmarshal + native code + invariant decoding
	//	SigCheck — LF signature construction and rule-set fingerprint
	//	           comparison
	//	VCGen    — safety-predicate generation + LF encoding
	//	Check    — LF typechecking of the enclosed proof
	Parse    time.Duration
	SigCheck time.Duration
	VCGen    time.Duration
	Check    time.Duration
	// CheckSteps counts LF inference steps.
	CheckSteps int
	// VCNodes is the size (in LF term nodes) of the recomputed safety
	// predicate the proof was checked against — the "VC size" an audit
	// trail records per install decision.
	VCNodes int
	// ProofBytes is the encoded size of the binary's proof section —
	// the certificate's cost on the wire, the number proof-size
	// engineering (ACC-style certificate compression) must shrink.
	ProofBytes int
	// ProofNodes is the size (in LF term nodes) of the decoded proof
	// term, the in-memory counterpart of ProofBytes.
	ProofNodes int
	// HeapBytes approximates the heap cost of validation: the bytes
	// the process allocated between validation's start and end, read
	// from the runtime's cumulative /gc/heap/allocs:bytes counter.
	// Like runtime.MemStats.TotalAlloc, the counter is process-wide,
	// so concurrent goroutines' allocations count too; and since each
	// P adds to it a span at a time, one reading can be off by a few
	// spans either way. The mean over many validations is accurate;
	// the median reads a few percent low.
	HeapBytes uint64
	// BinarySize is the total PCC binary size in bytes.
	BinarySize int
}

// Extension is a validated kernel extension: native code the consumer
// may now run with no run-time checks.
type Extension struct {
	// Prog is the decoded native code.
	Prog []alpha.Instr
	// Policy is the policy the extension was validated against.
	Policy *policy.Policy
}

// Validate parses a PCC binary, recomputes the safety predicate of the
// enclosed native code under the published policy, and typechecks the
// enclosed proof. On success the returned Extension is safe to execute
// in the kernel's address space. Validation runs under DefaultLimits
// and no deadline; consumers wanting explicit budgets or cancellation
// use ValidateCtx.
func Validate(binary []byte, pol *policy.Policy) (*Extension, *ValidationStats, error) {
	return ValidateCtx(context.Background(), binary, pol, nil)
}

// fenced runs one validation stage inside a recover fence, converting
// a panic — typically tripped by adversarial bytes exercising a bug —
// into a structured PanicError rejection instead of taking down the
// consumer. The stage name and panic value survive into the audit
// trail.
func fenced(stage string, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 4096)
			buf = buf[:runtime.Stack(buf, false)]
			err = &PanicError{Stage: stage, Value: fmt.Sprint(r), Stack: string(buf)}
		}
	}()
	return f()
}

// asLimitErr maps the lower layers' typed budget errors (pccbin, lf)
// into the public ResourceLimitError so errors.Is(err,
// ErrResourceLimit) works across the whole stack. Checker interrupts
// carrying a context cause pass through unchanged — an expired
// deadline is a deadline, not a limit.
func asLimitErr(err error) error {
	var ble *pccbin.LimitError
	if errors.As(err, &ble) {
		return &ResourceLimitError{Axis: ble.Axis, Max: int64(ble.Max), Err: err}
	}
	var lle *lf.LimitError
	if errors.As(err, &lle) && lle.Err == nil {
		return &ResourceLimitError{Axis: lle.Axis, Max: int64(lle.Max), Err: err}
	}
	return err
}

// ValidateCtx is Validate with a context and explicit resource
// budgets: the adversarial-input hardening layer of the consumer. An
// already-expired context rejects before any byte of the binary is
// parsed (in particular, without running the proof checker);
// cancellation mid-check is honored within a bounded number of
// inference steps. lim == nil means DefaultLimits; a zero field in
// *lim means no budget on that axis. Every stage runs inside a
// recover fence, so a panic provoked by hostile bytes surfaces as a
// *PanicError rejection rather than a crash.
func ValidateCtx(ctx context.Context, binary []byte, pol *policy.Policy, lim *Limits) (*Extension, *ValidationStats, error) {
	return validate(ctx, binary, pol, nil, lim)
}

// validate is the one body of ValidateCtx and Keyer.ValidateCtx. sig
// is the policy's published signature, or nil to look it up.
func validate(ctx context.Context, binary []byte, pol *policy.Policy, sig *lf.Signature, lim *Limits) (*Extension, *ValidationStats, error) {
	limits := DefaultLimits()
	if lim != nil {
		limits = *lim
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("pcc: validation aborted: %w", err)
	}
	if limits.MaxBinaryBytes > 0 && len(binary) > limits.MaxBinaryBytes {
		return nil, nil, &ResourceLimitError{
			Axis: "binary_bytes", Actual: int64(len(binary)), Max: int64(limits.MaxBinaryBytes)}
	}

	allocBefore := heapAllocBytes()
	start := time.Now()
	stats := &ValidationStats{BinarySize: len(binary)}

	// Stage 1: decode — binary unmarshal (with term budgets), policy
	// and rule-set checks, native code and invariant decoding.
	var (
		bin        *pccbin.Binary
		prog       []alpha.Instr
		invariants map[int]logic.Pred
	)
	err := fenced("decode", func() error {
		var err error
		bin, err = pccbin.UnmarshalWithLimits(binary, pccbin.Limits{
			MaxTermNodes: limits.MaxTermNodes,
			MaxTermDepth: limits.MaxTermDepth,
		})
		if err != nil {
			return asLimitErr(err)
		}
		if limits.MaxProofBytes > 0 && bin.ProofBytes > limits.MaxProofBytes {
			return &ResourceLimitError{
				Axis: "proof_bytes", Actual: int64(bin.ProofBytes), Max: int64(limits.MaxProofBytes)}
		}
		if bin.PolicyName != pol.Name {
			return fmt.Errorf("pcc: binary certifies policy %q, consumer published %q",
				bin.PolicyName, pol.Name)
		}
		stats.Parse = time.Since(start)
		stats.ProofBytes = bin.ProofBytes
		// ProofNodes is a statistic, not a gate. The decoder counted
		// the proof's tree size once per DAG node; a hash-consed bomb
		// reports the term-node budget (the checker's step fuel
		// rejects it anyway).
		nodeCap := limits.MaxTermNodes
		if nodeCap <= 0 {
			nodeCap = DefaultLimits().MaxTermNodes
		}
		stats.ProofNodes = min(bin.ProofNodes, nodeCap)

		mark := time.Now()
		if sig == nil {
			sig = signatureFor(pol)
		}
		if got, want := bin.SigHash, sig.Fingerprint(); got != want {
			return fmt.Errorf(
				"pcc: binary built against rule set %#x, consumer publishes %#x", got, want)
		}
		stats.SigCheck = time.Since(mark)

		mark = time.Now()
		if prog, err = alpha.Decode(bin.Code); err != nil {
			return err
		}
		if invariants, err = bin.DecodeInvariants(); err != nil {
			return err
		}
		stats.Parse += time.Since(mark)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if err := endStage(ctx); err != nil {
		return nil, nil, err
	}

	// Stage 2: VC generation — recompute the safety predicate from the
	// shipped code alone and bound its size (the code is untrusted, so
	// the VC's size is attacker-influenced even though the generator is
	// ours). The VC can double with each instruction, so generating it
	// is bounded too, by a budget of a quarter of MaxVCNodes, and
	// running out is a vc_nodes rejection. The paper filters, the
	// checksum loops and their SFI hybrids spend at most 4,353 units;
	// a bomb that spends the default 262,144 is stopped within
	// milliseconds.
	var spT lf.Term
	err = fenced("vcgen", func() error {
		mark := time.Now()
		budget, sizeCap := 0, 0 // no bound when MaxVCNodes sets none
		if limits.MaxVCNodes > 0 {
			budget, sizeCap = max(limits.MaxVCNodes/4, 1), limits.MaxVCNodes+1
		}
		gen, err := vcgen.Gen(prog, pol.Pre, pol.Post, invariants, budget)
		if err != nil {
			var spent interface{ VCBudget() int }
			if errors.As(err, &spent) {
				return &ResourceLimitError{Axis: "vc_nodes", Max: int64(limits.MaxVCNodes), Err: err}
			}
			return err
		}
		if spT, err = lf.EncodePred(gen.SP); err != nil {
			return err
		}
		stats.VCGen = time.Since(mark)
		stats.VCNodes = lf.SizeBounded(spT, sizeCap)
		if limits.MaxVCNodes > 0 && stats.VCNodes > limits.MaxVCNodes {
			return &ResourceLimitError{
				Axis: "vc_nodes", Actual: int64(stats.VCNodes), Max: int64(limits.MaxVCNodes)}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if err := endStage(ctx); err != nil {
		return nil, nil, err
	}

	// Stage 3: LF typechecking of the enclosed proof, under step fuel,
	// depth budget, and the context's cancellation.
	var checker *lf.Checker
	err = fenced("lfcheck", func() error {
		mark := time.Now()
		checker = lf.NewChecker(sig)
		checker.MaxSteps = limits.MaxCheckSteps
		checker.MaxDepth = limits.MaxTermDepth
		checker.Interrupt = ctx.Err
		if err := checker.Check(bin.Proof, lf.App{F: lf.Konst{Name: lf.CPf}, X: spT}); err != nil {
			return fmt.Errorf("pcc: proof validation failed: %w", asLimitErr(err))
		}
		stats.Check = time.Since(mark)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	stats.Time = time.Since(start)
	stats.HeapBytes = heapAllocBytes() - allocBefore
	runtime.Gosched() // the last stage ends too; see endStage
	stats.CheckSteps = checker.Steps
	return &Extension{Prog: prog, Policy: pol}, stats, nil
}

// endStage ends a validation stage: it yields, then reports an ended
// context. Validation is CPU-bound and never blocks, and on a small
// GOMAXPROCS the GC's fractional mark worker only gets a P at a
// scheduling point; without one, mark phases stretch while validations
// keep allocating, all of it counted live. (The stop-the-world
// runtime.ReadMemStats that HeapBytes used to come from had been such
// a point; perfbench reboot's peak RSS rose by half without it.)
func endStage(ctx context.Context) error {
	runtime.Gosched()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("pcc: validation aborted: %w", err)
	}
	return nil
}

// heapAllocBytes reads the process's cumulative heap allocation
// without stopping the world, as runtime.ReadMemStats would.
func heapAllocBytes() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// ValidationKey returns the content-addressed memoization key for
// "Validate(bin, pol)": SHA-256 over the binary bytes, the policy's
// full SHA-256 content digest, and the full digest of the rule set the
// policy publishes. Validation is a pure function of exactly these
// inputs, so a consumer may cache a successful validation under this
// key and skip VC generation and LF checking when the same binary is
// presented again — the kernel's proof cache (internal/kernel) does.
// Any change to the binary (tampered proof, truncated blob) or to the
// policy (different pre/post, different axioms) changes the key, so a
// cached entry can never be replayed against a policy it was not
// checked under. The policy side enters the key as full cryptographic
// digests — never a truncated fingerprint — so a producer cannot
// negotiate a colliding policy to smuggle a binary past validation
// under another policy.
func ValidationKey(bin []byte, pol *policy.Policy) [sha256.Size]byte {
	return NewKeyer(pol).Key(bin)
}

// Keyer computes ValidationKey with the policy-side digests
// precomputed, so the per-binary cost is one SHA-256 over the binary
// bytes, and validates under its policy with the signature it resolved
// once. A consumer builds one Keyer per published policy (the digests
// summarize the policy's semantic content; they are fixed once the
// policy is published).
type Keyer struct {
	prefix [2 * sha256.Size]byte
	pol    *policy.Policy
	sig    *lf.Signature
}

// NewKeyer resolves the policy's published rule set and digests both
// once.
func NewKeyer(pol *policy.Policy) *Keyer {
	ky := &Keyer{pol: pol, sig: signatureFor(pol)}
	pd := pol.Digest()
	sd := ky.sig.Digest()
	copy(ky.prefix[:sha256.Size], pd[:])
	copy(ky.prefix[sha256.Size:], sd[:])
	return ky
}

// PolicyDigest returns the policy's content digest (policy.Policy.Digest)
// as the keyer computed it once, so per-install bookkeeping that names
// the policy need not digest it again.
func (ky *Keyer) PolicyDigest() [sha256.Size]byte {
	return [sha256.Size]byte(ky.prefix[:sha256.Size])
}

// ValidateCtx is ValidateCtx under the keyer's policy. It skips the
// per-validation signature lookup, which for a policy with axiom
// schemas digests the whole policy.
func (ky *Keyer) ValidateCtx(ctx context.Context, binary []byte, lim *Limits) (*Extension, *ValidationStats, error) {
	return validate(ctx, binary, ky.pol, ky.sig, lim)
}

// Key returns the memoization key for validating bin under the keyer's
// policy.
func (ky *Keyer) Key(bin []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write(ky.prefix[:])
	h.Write(bin)
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// consumerSignature returns the consumer's base LF signature, built
// once — the signature is part of the published policy and a kernel
// constructs it at boot, not per binary.
var consumerSignature = sync.OnceValue(lf.NewSignature)

// signatureFor returns the signature a policy publishes: the base one,
// extended with the policy's own axiom schemas when it has any.
// Extended signatures are memoized by the policy's full content digest
// (which covers every published schema), so a negotiated policy pays
// for building and digesting its rule set once, not on every
// validation, and two distinct policies never share an entry.
func signatureFor(pol *policy.Policy) *lf.Signature {
	extra := pol.ExtraAxioms()
	if extra == nil {
		return consumerSignature()
	}
	if len(extra) != len(pol.Axioms) {
		// Duplicate schema names: which one the signature declares
		// depends on slice order, which the digest does not pin.
		return lf.NewSignatureWith(extra)
	}
	key := pol.Digest()
	extendedMu.Lock()
	defer extendedMu.Unlock()
	sig, ok := extendedSigs[key]
	if !ok {
		if len(extendedSigs) >= maxExtendedSignatures {
			clear(extendedSigs) // a miss only costs a rebuild
		}
		sig = lf.NewSignatureWith(extra)
		extendedSigs[key] = sig
	}
	return sig
}

// maxExtendedSignatures bounds the memo: policies are negotiated by
// producers, so their number is not under the consumer's control.
const maxExtendedSignatures = 64

var (
	extendedMu   sync.Mutex
	extendedSigs = map[[sha256.Size]byte]*lf.Signature{}
)

// VetAxioms sanity-checks the schemas a policy wants to publish:
// names must not clash with the core rule set, parameters must be
// "$"-prefixed and bind every free variable, and every
// ground-evaluable schema is fuzzed for soundness in the 64-bit model.
// Vetting cannot prove soundness of schemas over the uninterpreted
// rd/wr/sel symbols — those the consumer must justify against its
// memory model, which is exactly the paper's division of labor for the
// published rule set.
func VetAxioms(axioms []*logic.Schema, trials int) error {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	seen := map[string]bool{}
	for _, s := range axioms {
		if s.Name == "" {
			return fmt.Errorf("pcc: axiom with empty name")
		}
		if _, clash := prover.Axioms[s.Name]; clash {
			return fmt.Errorf("pcc: axiom %q clashes with the core rule set", s.Name)
		}
		if seen[s.Name] {
			return fmt.Errorf("pcc: duplicate axiom %q", s.Name)
		}
		seen[s.Name] = true
		params := map[string]bool{}
		for _, p := range s.Params {
			if len(p) == 0 || p[0] != '$' {
				return fmt.Errorf("pcc: axiom %q: parameter %q must start with '$'", s.Name, p)
			}
			params[p] = true
		}
		check := func(pred logic.Pred) error {
			for v := range logic.FreeVars(pred) {
				if !params[v] {
					return fmt.Errorf("pcc: axiom %q: unbound variable %q", s.Name, v)
				}
			}
			return nil
		}
		if err := check(s.Concl); err != nil {
			return err
		}
		evaluable := true
		env := map[string]uint64{}
		for _, p := range s.Params {
			env[p] = 1
		}
		if _, ok := logic.EvalPred(s.Concl, env); !ok {
			evaluable = false
		}
		for _, prem := range s.Prems {
			if err := check(prem); err != nil {
				return err
			}
			if _, ok := logic.EvalPred(prem, env); !ok {
				evaluable = false
			}
		}
		if !evaluable {
			continue // rd/wr/sel schemas: consumer's responsibility
		}
		for trial := 0; trial < trials; trial++ {
			for _, p := range s.Params {
				switch next() % 4 {
				case 0:
					env[p] = next() % 16
				case 1:
					env[p] = ^uint64(0) - next()%16
				default:
					env[p] = next()
				}
			}
			hold := true
			for _, prem := range s.Prems {
				v, _ := logic.EvalPred(prem, env)
				if !v {
					hold = false
					break
				}
			}
			if !hold {
				continue
			}
			if v, _ := logic.EvalPred(s.Concl, env); !v {
				return fmt.Errorf("pcc: axiom %q is UNSOUND at %v", s.Name, env)
			}
		}
	}
	return nil
}

// Run executes the validated extension on the real (unchecked) machine
// with the given initial state — the zero-run-time-overhead execution
// the paper's title promises. fuel bounds the instruction count (loops
// certified with invariants still terminate on packet data, but the
// kernel is entitled to a budget).
func (e *Extension) Run(s *machine.State, fuel int) (machine.Result, error) {
	return machine.Interp(e.Prog, s, machine.Unchecked, &machine.DEC21064, fuel)
}

// RunChecked executes on the abstract machine (every rd/wr checked) —
// used by tests to confirm that validated extensions never trip a
// check, per the Safety Theorem.
func (e *Extension) RunChecked(s *machine.State, fuel int) (machine.Result, error) {
	return machine.Interp(e.Prog, s, machine.Checked, &machine.DEC21064, fuel)
}
