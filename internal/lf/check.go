package lf

import (
	"errors"
	"fmt"
	"strings"
	"sync"

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

// renderLimit bounds each term and predicate a TypeError renders:
// enough to locate the failure, short enough for one log record.
const renderLimit = 256

// typeErrAt is typeErr carrying the failing subterm. Errors propagate
// outward unchanged through the recursion, so the recorded subterm is
// the innermost point of failure. The subterm and every term or
// predicate argument are rendered capped (see render): proofs
// are DAGs whose trees can be exponentially large, and the rendering
// must cost no more than its cap.
func typeErrAt(at Term, format string, args ...interface{}) error {
	for i, a := range args {
		switch a.(type) {
		case Term, logic.Pred, logic.Expr:
			args[i] = render(a, renderLimit)
		}
	}
	return &TypeError{Msg: fmt.Sprintf(format, args...), Subterm: render(at, renderLimit)}
}

// Checker validates LF objects against the published signature. It is
// the trusted validator of §2.3: small, simple, and independent of the
// prover.
//
// A proof arrives as a DAG: the encoding shares every repeated subterm,
// and nearly all of them sit under the same register binders. Within
// one Check, the checker infers each (subterm, binder context) pair
// once and reuses the type wherever the pair recurs. Steps, MaxSteps
// and MaxDepth still count the expanded tree: a reused type charges
// the steps its first inference took, so fuel, limits and verdicts are
// those of checking the tree node by node.
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
	// depth is the current infer recursion depth; peak is the deepest
	// depth reached since the innermost memoized node was entered.
	depth, peak int
	checkScratch
}

// memoCap bounds the memo and the context table. The paper proofs
// need a few hundred entries of each, but a proof built to defeat
// reuse — every copy of a subterm under binders of its own — would
// grow them by one entry per step until the fuel ran out. Past the
// cap, new contexts are not interned (noCtx) and new types are not
// kept: checking goes on without reuse, with the same steps and
// verdict.
const memoCap = 1 << 13

// noCtx is the context of a binder pushed once the context table is
// full, and of everything under it. Nothing is memoized under it.
const noCtx int32 = -1

// checkScratch is one check's working storage. memo holds the types
// inferred for App, Lam and Pi nodes by (node, binder context), ctxs
// the interned binder contexts, and spine and args are stacks shared
// by nested application spines. Infer recycles the storage through
// scratchPool emptied, so no result outlives the check that computed
// it; the next check only reuses the grown tables instead of growing
// its own.
type checkScratch struct {
	memo        map[memoKey]memoEntry
	ctxs        map[ctxKey]int32
	spine, args []Term
}

var scratchPool = sync.Pool{New: func() any { return new(checkScratch) }}

// memoKey names one inference: a term node under one binder context.
type memoKey struct {
	node nodeID
	ctx  int32
}

// memoEntry is a successful inference: the type, the steps it took
// (the node's own included), and how far below the node it recursed.
type memoEntry struct {
	ty    Term
	steps int
	depth int
}

// ctxKey interns a binder context as its parent context plus the type
// node its innermost binder pushed. The environment is exactly the
// list of pushed binder types, so equal context ids mean equal
// environments.
type ctxKey struct {
	parent int32
	ty     nodeID
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
	got, err := c.Infer(term)
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
func (c *Checker) Infer(term Term) (Term, error) {
	s := scratchPool.Get().(*checkScratch)
	c.checkScratch = *s
	defer func() {
		clear(c.memo)
		clear(c.ctxs)
		clear(c.spine[:cap(c.spine)])
		clear(c.args[:cap(c.args)])
		*s = checkScratch{c.memo, c.ctxs, c.spine[:0], c.args[:0]}
		scratchPool.Put(s)
		c.checkScratch = checkScratch{}
	}()
	return c.infer(term, nil, 0)
}

// enter charges one inference step at one level deeper, polling the
// interrupt and enforcing the step and depth budgets.
func (c *Checker) enter() error {
	c.Steps++
	if c.MaxSteps > 0 && c.Steps > c.MaxSteps {
		return &LimitError{Axis: "check_steps", Max: c.MaxSteps}
	}
	if c.Interrupt != nil && c.Steps%interruptStride == 0 {
		if err := c.Interrupt(); err != nil {
			return &LimitError{Axis: "interrupt", Err: err}
		}
	}
	if c.MaxDepth > 0 && c.depth+1 > c.MaxDepth {
		return &LimitError{Axis: "term_depth", Max: c.MaxDepth}
	}
	c.depth++
	c.peak = max(c.peak, c.depth)
	return nil
}

// reuse charges a memoized inference as if it had been redone at the
// current position. It declines (false) when the redone inference
// would trip MaxSteps or MaxDepth somewhere inside: the caller then
// checks that node afresh, so the limit trips at the same step as in
// the expanded tree.
func (c *Checker) reuse(e memoEntry) (bool, error) {
	bottom := c.depth + e.depth
	if c.MaxSteps > 0 && c.Steps+e.steps > c.MaxSteps || c.MaxDepth > 0 && bottom > c.MaxDepth {
		return false, nil
	}
	before := c.Steps
	c.Steps += e.steps
	c.peak = max(c.peak, bottom)
	if c.Interrupt != nil && c.Steps/interruptStride != before/interruptStride {
		if err := c.Interrupt(); err != nil {
			return false, &LimitError{Axis: "interrupt", Err: err}
		}
	}
	return true, nil
}

// push returns the context id of ctx extended by a binder of type a.
func (c *Checker) push(ctx int32, a Term) int32 {
	if ctx == noCtx {
		return noCtx
	}
	k := ctxKey{ctx, idOf(a)}
	id, ok := c.ctxs[k]
	if !ok {
		if len(c.ctxs) >= memoCap {
			return noCtx
		}
		if c.ctxs == nil {
			c.ctxs = map[ctxKey]int32{}
		}
		id = int32(len(c.ctxs) + 1)
		c.ctxs[k] = id
	}
	return id
}

// infer computes the type/kind of t under the de Bruijn environment
// env, whose interned id is ctx. The environment is a stack with the
// innermost binder's type last, each entry already shifted to its own
// binder's depth: lookup of #idx reads env[len(env)-1-idx] and shifts
// it by idx+1. Entering a binder appends to env; the appended slot is
// only ever read by the recursion under that binder, so sibling
// subterms may reuse it.
func (c *Checker) infer(t Term, env []Term, ctx int32) (Term, error) {
	switch t.(type) {
	case App, Lam, Pi:
	default:
		if err := c.enter(); err != nil {
			return nil, err
		}
		ty, err := c.inferLeaf(t, env)
		c.depth--
		return ty, err
	}
	key := memoKey{idOf(t), ctx}
	if e, ok := c.memo[key]; ok {
		if hit, err := c.reuse(e); hit || err != nil {
			return e.ty, err
		}
	}
	start, outer := c.Steps, c.peak
	if err := c.enter(); err != nil {
		return nil, err
	}
	at := c.depth
	c.peak = at
	var ty Term
	var err error
	switch n := t.(type) {
	case Pi:
		ty, err = c.inferPi(n, env, ctx)
	case Lam:
		ty, err = c.inferLam(n, env, ctx)
	case App:
		ty, err = c.inferSpine(t, n, env, ctx)
	}
	if err == nil && ctx != noCtx && len(c.memo) < memoCap {
		if c.memo == nil {
			c.memo = map[memoKey]memoEntry{}
		}
		c.memo[key] = memoEntry{ty: ty, steps: c.Steps - start, depth: c.peak - at + 1}
	}
	c.peak = max(outer, c.peak)
	c.depth = at - 1
	return ty, err
}

func (c *Checker) inferLeaf(t Term, env []Term) (Term, error) {
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
	}
	return nil, typeErr("unknown term %T", t)
}

func (c *Checker) inferPi(n Pi, env []Term, ctx int32) (Term, error) {
	if err := c.checkIsType(n.A, env, ctx); err != nil {
		return nil, err
	}
	s, err := c.infer(n.B, append(env, n.A), c.push(ctx, n.A))
	if err != nil {
		return nil, err
	}
	srt, ok := Normalize(s).(Sort)
	if !ok {
		return nil, typeErrAt(n.B, "Pi body is not a type or kind: %s", n.B)
	}
	return srt, nil
}

func (c *Checker) inferLam(n Lam, env []Term, ctx int32) (Term, error) {
	if err := c.checkIsType(n.A, env, ctx); err != nil {
		return nil, err
	}
	b, err := c.infer(n.M, append(env, n.A), c.push(ctx, n.A))
	if err != nil {
		return nil, err
	}
	return Pi{n.A, b}, nil
}

// inferSpine checks the application spine h a1 … an rooted at t (an
// App already entered) in one pass. Each inner App node is charged one
// step on the way down, in the order the nested recursion would charge
// it; a node already inferred in this context ends the descent and its
// type serves as the head's. The arguments are then checked left to
// right against the head's Π-type, instantiated all at once: the
// domain of ai is Ai[a1 … ai-1] and the result is B[a1 … an], each
// built by one simultaneous hereditary substitution (instantiate)
// rather than one substitution per argument.
func (c *Checker) inferSpine(t Term, app App, env []Term, ctx int32) (Term, error) {
	base, abase := len(c.spine), len(c.args)
	defer func() { c.spine, c.args = c.spine[:base], c.args[:abase] }()
	c.spine = append(c.spine, t)
	head := app.F
	var headTy Term
	for {
		inner, ok := head.(App)
		if !ok {
			break
		}
		if e, ok := c.memo[memoKey{idOf(head), ctx}]; ok {
			hit, err := c.reuse(e)
			if err != nil {
				return nil, err
			}
			if hit {
				headTy = e.ty
				break
			}
		}
		if err := c.enter(); err != nil {
			return nil, err
		}
		c.spine = append(c.spine, head)
		head = inner.F
	}
	// The primitive judgments are keyed on the true head and the
	// argument count, which a reused inner node hides from the spine.
	realHead, pre := head, 0
	if headTy != nil {
		for a, ok := realHead.(App); ok; a, ok = realHead.(App) {
			realHead = a.F
			pre++
		}
	} else {
		var err error
		if headTy, err = c.infer(head, env, ctx); err != nil {
			return nil, err
		}
	}
	prim := ""
	if k, ok := realHead.(Konst); ok && (k.Name == CGr || k.Name == CNrm) {
		prim = k.Name
	}

	n := len(c.spine) - base
	for i := n - 1; i >= 0; i-- {
		c.args = append(c.args, c.spine[base+i].(App).X)
	}
	args := c.args[abase : abase+n : abase+n]
	cur, from := headTy, 0 // args[from:i] are pending substitution into cur
	for i, x := range args {
		node := c.spine[base+n-1-i]
		pi, ok := cur.(Pi)
		if !ok {
			fTy := instantiate(cur, args[from:i])
			if pi, ok = Normalize(fTy).(Pi); !ok {
				return nil, typeErrAt(node, "application of non-function: %s : %s", node.(App).F, fTy)
			}
			from = i
		}
		aTy, err := c.infer(x, env, ctx)
		if err != nil {
			return nil, err
		}
		// Syntactic equality implies β-equality: normalize only when
		// the types differ as written.
		if dom := instantiate(pi.A, args[from:i]); !Equal(aTy, dom) {
			if want := Normalize(dom); !Equal(Normalize(aTy), want) {
				return nil, typeErrAt(x, "argument type mismatch:\n  got %s\n  want %s", aTy, want)
			}
		}
		if arity := pre + i + 1; prim == CGr && arity == 1 || prim == CNrm && arity == 2 {
			if err := c.checkPrimitive(node, prim); err != nil {
				return nil, err
			}
		}
		cur = pi.B
		c.depth--
	}
	return instantiate(cur, args[from:]), nil
}

// checkIsType verifies that A is a well-formed type (family of kind
// `type`) or kind.
func (c *Checker) checkIsType(a Term, env []Term, ctx int32) error {
	s, err := c.infer(a, env, ctx)
	if err != nil {
		return err
	}
	if srt, ok := Normalize(s).(Sort); ok && (srt == SType || srt == SKind) {
		return nil
	}
	return typeErrAt(a, "not a type: %s", a)
}

// checkPrimitive enforces the side conditions of the primitive
// judgments on app, a fully applied primitive: `gr P` requires P to be
// closed and to evaluate to true; `nrm P Q` requires P and Q to share a
// normal form under the trusted normalizer.
func (c *Checker) checkPrimitive(app Term, prim string) error {
	_, args := Spine(app)
	switch prim {
	case CGr:
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
	case CNrm:
		p, err := DecodePred(args[0])
		if err != nil {
			return typeErrAt(app, "nrm: %v", err)
		}
		q, err := DecodePred(args[1])
		if err != nil {
			return typeErrAt(app, "nrm: %v", err)
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

// DecodePredFuel decodes an untrusted predicate, such as a loop
// invariant shipped in a binary, at a bounded cost. It does not
// normalize: t must already be in normal form, as every encoded
// predicate is, and a β-redex anywhere in it is a decode error (an
// untyped term need not normalize at all). fuel, when not nil, is
// charged in LF nodes of the tree decoded, a variable or constant and
// one application per argument, as the safety predicate's size is
// counted: the result is a tree, so a term that shares subterms is
// charged for every path to them. Once *fuel is negative decoding
// fails.
func DecodePredFuel(t Term, fuel *int) (logic.Pred, error) { return decodePredFuel(t, 0, fuel) }

// decodePred decodes a normal term with no bound on the work.
func decodePred(t Term, depth int) (logic.Pred, error) { return decodePredFuel(t, depth, nil) }

// errDecodeFuel is the decode failure once DecodePredFuel's fuel is
// spent.
var errDecodeFuel = errors.New("lf: decode: fuel exhausted")

// spendDecode charges n decoded nodes to fuel (nil: unmetered).
func spendDecode(fuel *int, n int) error {
	if fuel == nil {
		return nil
	}
	*fuel -= n
	if *fuel < 0 {
		return errDecodeFuel
	}
	return nil
}

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

func decodeExprFuel(t Term, depth int, fuel *int) (logic.Expr, error) {
	head, args := Spine(t)
	if err := spendDecode(fuel, 1+len(args)); err != nil {
		return nil, err
	}
	if b, ok := t.(Bound); ok {
		return logic.V(levelName(depth - b.Idx - 1)), nil
	}
	if k, ok := t.(Konst); ok {
		if name, isReg := strings.CutPrefix(k.Name, "reg_"); isReg && stateVarSet[name] {
			return logic.V(name), nil
		}
	}
	k, ok := head.(Konst)
	if !ok {
		return nil, fmt.Errorf("lf: decode: bad expression head %s", render(head, renderLimit))
	}
	sub := func(i int) (logic.Expr, error) { return decodeExprFuel(args[i], depth, fuel) }
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
	return nil, fmt.Errorf("lf: decode: unknown expression form %s", render(t, renderLimit))
}

func decodePredFuel(t Term, depth int, fuel *int) (logic.Pred, error) {
	head, args := Spine(t)
	if err := spendDecode(fuel, 1+len(args)); err != nil {
		return nil, err
	}
	k, ok := head.(Konst)
	if !ok {
		return nil, fmt.Errorf("lf: decode: bad predicate head %s", render(head, renderLimit))
	}
	switch {
	case k.Name == CTT && len(args) == 0:
		return logic.True, nil
	case k.Name == CFF && len(args) == 0:
		return logic.False, nil
	case (k.Name == CRd || k.Name == CWr) && len(args) == 1:
		a, err := decodeExprFuel(args[0], depth, fuel)
		if err != nil {
			return nil, err
		}
		if k.Name == CRd {
			return logic.RdP(a), nil
		}
		return logic.WrP(a), nil
	case (k.Name == CAnd || k.Name == COr || k.Name == CImp) && len(args) == 2:
		l, err := decodePredFuel(args[0], depth, fuel)
		if err != nil {
			return nil, err
		}
		r, err := decodePredFuel(args[1], depth, fuel)
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
		body, err := decodePredFuel(lam.M, depth+1, fuel)
		if err != nil {
			return nil, err
		}
		return logic.Forall{Var: levelName(depth), Body: body}, nil
	}
	if op, isCmp := cmpOpByConst[k.Name]; isCmp && len(args) == 2 {
		l, err := decodeExprFuel(args[0], depth, fuel)
		if err != nil {
			return nil, err
		}
		r, err := decodeExprFuel(args[1], depth, fuel)
		if err != nil {
			return nil, err
		}
		return logic.Cmp{Op: op, L: l, R: r}, nil
	}
	return nil, fmt.Errorf("lf: decode: unknown predicate form %s", render(t, renderLimit))
}

// ValidateProof checks with c that proofTerm is an LF proof of the
// closed predicate sp. Policy negotiation decides its implications
// with it; binary validation (pcc.ValidateCtx) checks the proof
// against the safety predicate it encodes once per binary.
func ValidateProof(c *Checker, proofTerm Term, sp logic.Pred) error {
	spT, err := EncodePred(sp)
	if err != nil {
		return err
	}
	return c.Check(proofTerm, App{Konst{CPf}, spT})
}
