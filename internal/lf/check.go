package lf

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/logic"
)

// ErrLimit is the sentinel all checker resource-budget errors match
// via errors.Is. A limit error means the checker refused to spend more
// resources on the term, not that the term was proven ill-typed — the
// distinction a consumer's reject-reason accounting relies on.
var ErrLimit = errors.New("lf: resource limit exceeded")

// LimitError reports an exhausted checker budget (depth, step fuel, or
// an interrupt such as a deadline).
type LimitError struct {
	// Axis is "term_depth", "check_steps", or "interrupt".
	Axis string
	// Max is the configured budget (0 for interrupts).
	Max int
	// Err carries the interrupt cause, when Axis is "interrupt".
	Err error
}

// Error implements the error interface.
func (e *LimitError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("lf: check interrupted: %v", e.Err)
	}
	return fmt.Sprintf("lf: %s limit exceeded (max %d)", e.Axis, e.Max)
}

// Is makes errors.Is(err, ErrLimit) match.
func (e *LimitError) Is(target error) bool { return target == ErrLimit }

// Unwrap exposes the interrupt cause.
func (e *LimitError) Unwrap() error { return e.Err }

// TypeError reports an LF typechecking failure — i.e., an invalid
// safety proof. Subterm, when set, renders the first (innermost)
// subterm the checker rejected, so a consumer's audit log can record
// forensically *where* in the proof the failure happened, not just
// that it did.
type TypeError struct {
	Msg     string
	Subterm string
}

// Error implements the error interface.
func (e *TypeError) Error() string { return "lf: " + e.Msg }

func typeErr(format string, args ...interface{}) error {
	return &TypeError{Msg: fmt.Sprintf(format, args...)}
}

// subtermRenderLimit bounds the rendered failing subterm: enough to
// locate the failure, short enough for one log record.
const subtermRenderLimit = 256

// typeErrAt is typeErr carrying the failing subterm. Errors propagate
// outward unchanged through the recursion, so the recorded subterm is
// the innermost point of failure.
func typeErrAt(at Term, format string, args ...interface{}) error {
	s := fmt.Sprint(at)
	if len(s) > subtermRenderLimit {
		s = s[:subtermRenderLimit] + "..."
	}
	return &TypeError{Msg: fmt.Sprintf(format, args...), Subterm: s}
}

// Checker validates LF objects against the published signature. It is
// the trusted validator of §2.3: small, simple, and independent of the
// prover.
type Checker struct {
	Sig *Signature
	// Steps counts inference steps, reported for the validation-cost
	// experiments.
	Steps int
	// MaxSteps, when positive, is the checker's step fuel: checking
	// aborts with a LimitError once Steps exceeds it. Proof terms
	// arrive DAG-encoded and expand to trees during checking, so a
	// small binary can demand exponential checking work — fuel, not
	// input size, is what bounds the checker against such bombs.
	MaxSteps int
	// MaxDepth, when positive, bounds the checker's recursion depth
	// over the term. A hostile deeply nested term then yields a
	// LimitError instead of exhausting the goroutine stack.
	MaxDepth int
	// Interrupt, when non-nil, is polled every interruptStride steps;
	// a non-nil return aborts checking with a LimitError wrapping it.
	// Consumers use it to thread context cancellation into a check
	// already in flight.
	Interrupt func() error
	// depth is the current infer recursion depth.
	depth int
}

// interruptStride is how many inference steps pass between Interrupt
// polls: frequent enough that a deadline stops a runaway check within
// microseconds, rare enough to stay off the per-step fast path.
const interruptStride = 1024

// NewChecker returns a checker over the given signature.
func NewChecker(sig *Signature) *Checker { return &Checker{Sig: sig} }

// Check verifies that term has the given type (both closed). It
// implements "proof validation amounts to typechecking".
func (c *Checker) Check(term, want Term) error {
	got, err := c.infer(term, nil)
	if err != nil {
		return err
	}
	// Syntactic equality implies β-equality, so normalize only on a
	// mismatch.
	if !Equal(got, want) && !Equal(Normalize(got), Normalize(want)) {
		return typeErrAt(term, "type mismatch:\n  inferred %s\n  expected %s", got, want)
	}
	return nil
}

// Infer returns the type of a closed term.
func (c *Checker) Infer(term Term) (Term, error) { return c.infer(term, nil) }

// infer computes the type/kind of t under the de Bruijn environment
// env. The environment is a stack with the innermost binder's type
// last, each entry already shifted to its own binder's depth: lookup of
// #idx reads env[len(env)-1-idx] and shifts it by idx+1. Entering a
// binder appends to env; the appended slot is only ever read by the
// recursion under that binder, so sibling subterms may reuse it.
func (c *Checker) infer(t Term, env []Term) (Term, error) {
	c.Steps++
	if c.MaxSteps > 0 && c.Steps > c.MaxSteps {
		return nil, &LimitError{Axis: "check_steps", Max: c.MaxSteps}
	}
	if c.Interrupt != nil && c.Steps%interruptStride == 0 {
		if err := c.Interrupt(); err != nil {
			return nil, &LimitError{Axis: "interrupt", Err: err}
		}
	}
	c.depth++
	defer func() { c.depth-- }()
	if c.MaxDepth > 0 && c.depth > c.MaxDepth {
		return nil, &LimitError{Axis: "term_depth", Max: c.MaxDepth}
	}
	switch n := t.(type) {
	case Sort:
		if n == SType {
			return SKind, nil
		}
		return nil, typeErrAt(t, "the sort 'kind' has no classifier")
	case Konst:
		ty, ok := c.Sig.Lookup(n.Name)
		if !ok {
			return nil, typeErrAt(t, "unknown constant %q", n.Name)
		}
		return ty, nil
	case Bound:
		if n.Idx < 0 || n.Idx >= len(env) {
			return nil, typeErrAt(t, "unbound variable #%d", n.Idx)
		}
		return shift(env[len(env)-1-n.Idx], n.Idx+1, 0), nil
	case Lit:
		return Konst{CWord}, nil
	case Pi:
		if err := c.checkIsType(n.A, env); err != nil {
			return nil, err
		}
		s, err := c.infer(n.B, append(env, n.A))
		if err != nil {
			return nil, err
		}
		srt, ok := Normalize(s).(Sort)
		if !ok {
			return nil, typeErrAt(n.B, "Pi body is not a type or kind: %s", n.B)
		}
		return srt, nil
	case Lam:
		if err := c.checkIsType(n.A, env); err != nil {
			return nil, err
		}
		b, err := c.infer(n.M, append(env, n.A))
		if err != nil {
			return nil, err
		}
		return Pi{n.A, b}, nil
	case App:
		fTy, err := c.infer(n.F, env)
		if err != nil {
			return nil, err
		}
		pi, ok := fTy.(Pi)
		if !ok {
			if pi, ok = Normalize(fTy).(Pi); !ok {
				return nil, typeErrAt(t, "application of non-function: %s : %s", n.F, fTy)
			}
		}
		aTy, err := c.infer(n.X, env)
		if err != nil {
			return nil, err
		}
		// Syntactic equality implies β-equality: normalize only when
		// the types differ as written.
		if !Equal(aTy, pi.A) {
			if want := Normalize(pi.A); !Equal(Normalize(aTy), want) {
				return nil, typeErrAt(n.X, "argument type mismatch:\n  got %s\n  want %s", aTy, want)
			}
		}
		if err := c.checkPrimitive(t); err != nil {
			return nil, err
		}
		return Instantiate(pi.B, n.X), nil
	}
	return nil, typeErr("unknown term %T", t)
}

// checkIsType verifies that A is a well-formed type (family of kind
// `type`) or kind.
func (c *Checker) checkIsType(a Term, env []Term) error {
	s, err := c.infer(a, env)
	if err != nil {
		return err
	}
	if srt, ok := Normalize(s).(Sort); ok && (srt == SType || srt == SKind) {
		return nil
	}
	return typeErrAt(a, "not a type: %s", a)
}

// checkPrimitive enforces the side conditions of the primitive
// judgments: a fully applied `gr P` requires P to be closed and to
// evaluate to true; a fully applied `nrm P Q` requires P and Q to share
// a normal form under the trusted normalizer. Every application passes
// through here, so the head is found first and the argument list is
// built only for the two primitives.
func (c *Checker) checkPrimitive(app Term) error {
	head := app
	for a, ok := head.(App); ok; a, ok = head.(App) {
		head = a.F
	}
	k, ok := head.(Konst)
	if !ok || (k.Name != CGr && k.Name != CNrm) {
		return nil
	}
	_, args := Spine(app)
	switch {
	case k.Name == CGr && len(args) == 1:
		p, err := DecodePred(args[0])
		if err != nil {
			return typeErrAt(app, "gr: %v", err)
		}
		v, ground := logic.EvalPred(p, map[string]uint64{})
		if !ground {
			return typeErrAt(app, "gr applied to non-ground predicate %s", p)
		}
		if !v {
			return typeErrAt(app, "gr applied to false predicate %s", p)
		}
	case k.Name == CNrm && len(args) == 2:
		p, err := DecodePred(args[0])
		if err != nil {
			return typeErrAt(app, "nrm: %v", err)
		}
		q, err := DecodePred(args[1])
		if err != nil {
			return typeErr("nrm: %v", err)
		}
		if !logic.AlphaEqual(logic.NormPred(p), logic.NormPred(q)) {
			return typeErrAt(app, "nrm applied to non-convertible predicates:\n  %s\n  %s", p, q)
		}
	}
	return nil
}

// DecodePred converts an (object-level) LF predicate back to its logic
// representation. Bound variables are named positionally, so decoded
// predicates compare correctly under AlphaEqual.
func DecodePred(t Term) (logic.Pred, error) { return decodePred(Normalize(t), 0) }

// DecodeExpr converts an LF expression term back to logic form.
func DecodeExpr(t Term) (logic.Expr, error) { return decodeExpr(Normalize(t), 0) }

var binOpByConst = func() map[string]logic.BinOp {
	m := map[string]logic.BinOp{}
	for _, op := range binOps {
		m[BinOpConst(op)] = op
	}
	return m
}()

var cmpOpByConst = func() map[string]logic.CmpOp {
	m := map[string]logic.CmpOp{}
	for _, op := range cmpOps {
		m[CmpOpConst(op)] = op
	}
	return m
}()

// levelName names a decoded variable by binder level. Negative levels
// denote binders outside the decoded term (possible in the side
// conditions of nrm, which may occur under hypothesis λs); they get
// stable names so that the two operands of nrm decode consistently.
func levelName(level int) string {
	if level < 0 {
		return fmt.Sprintf("!^%d", -level)
	}
	return fmt.Sprintf("!%d", level)
}

func decodeExpr(t Term, depth int) (logic.Expr, error) {
	if b, ok := t.(Bound); ok {
		return logic.V(levelName(depth - b.Idx - 1)), nil
	}
	if k, ok := t.(Konst); ok {
		if name, isReg := strings.CutPrefix(k.Name, "reg_"); isReg && stateVarSet[name] {
			return logic.V(name), nil
		}
	}
	head, args := Spine(t)
	k, ok := head.(Konst)
	if !ok {
		return nil, fmt.Errorf("lf: decode: bad expression head %s", head)
	}
	sub := func(i int) (logic.Expr, error) { return decodeExpr(args[i], depth) }
	switch {
	case k.Name == CCst && len(args) == 1:
		lit, ok := args[0].(Lit)
		if !ok {
			return nil, fmt.Errorf("lf: decode: cst of non-literal")
		}
		return logic.C(lit.V), nil
	case k.Name == CSel && len(args) == 2:
		m, err := sub(0)
		if err != nil {
			return nil, err
		}
		a, err := sub(1)
		if err != nil {
			return nil, err
		}
		return logic.SelE(m, a), nil
	case k.Name == CUpd && len(args) == 3:
		m, err := sub(0)
		if err != nil {
			return nil, err
		}
		a, err := sub(1)
		if err != nil {
			return nil, err
		}
		v, err := sub(2)
		if err != nil {
			return nil, err
		}
		return logic.UpdE(m, a, v), nil
	}
	if op, isBin := binOpByConst[k.Name]; isBin && len(args) == 2 {
		l, err := sub(0)
		if err != nil {
			return nil, err
		}
		r, err := sub(1)
		if err != nil {
			return nil, err
		}
		return logic.Bin{Op: op, L: l, R: r}, nil
	}
	return nil, fmt.Errorf("lf: decode: unknown expression form %s", t)
}

func decodePred(t Term, depth int) (logic.Pred, error) {
	head, args := Spine(t)
	k, ok := head.(Konst)
	if !ok {
		return nil, fmt.Errorf("lf: decode: bad predicate head %s", head)
	}
	switch {
	case k.Name == CTT && len(args) == 0:
		return logic.True, nil
	case k.Name == CFF && len(args) == 0:
		return logic.False, nil
	case (k.Name == CRd || k.Name == CWr) && len(args) == 1:
		a, err := decodeExpr(args[0], depth)
		if err != nil {
			return nil, err
		}
		if k.Name == CRd {
			return logic.RdP(a), nil
		}
		return logic.WrP(a), nil
	case (k.Name == CAnd || k.Name == COr || k.Name == CImp) && len(args) == 2:
		l, err := decodePred(args[0], depth)
		if err != nil {
			return nil, err
		}
		r, err := decodePred(args[1], depth)
		if err != nil {
			return nil, err
		}
		switch k.Name {
		case CAnd:
			return logic.And{L: l, R: r}, nil
		case COr:
			return logic.Or{L: l, R: r}, nil
		default:
			return logic.Imp{L: l, R: r}, nil
		}
	case k.Name == CForall && len(args) == 1:
		lam, ok := args[0].(Lam)
		if !ok {
			return nil, fmt.Errorf("lf: decode: forall of non-abstraction")
		}
		body, err := decodePred(lam.M, depth+1)
		if err != nil {
			return nil, err
		}
		return logic.Forall{Var: levelName(depth), Body: body}, nil
	}
	if op, isCmp := cmpOpByConst[k.Name]; isCmp && len(args) == 2 {
		l, err := decodeExpr(args[0], depth)
		if err != nil {
			return nil, err
		}
		r, err := decodeExpr(args[1], depth)
		if err != nil {
			return nil, err
		}
		return logic.Cmp{Op: op, L: l, R: r}, nil
	}
	return nil, fmt.Errorf("lf: decode: unknown predicate form %s", t)
}

// ValidateProof is the consumer's validation entry point: it checks
// that proofTerm is a valid LF proof of the safety predicate sp.
func ValidateProof(sig *Signature, proofTerm Term, sp logic.Pred) error {
	spT, err := EncodePred(sp)
	if err != nil {
		return err
	}
	return NewChecker(sig).Check(proofTerm, App{Konst{CPf}, spT})
}
