package lf

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/policy"
)

// A reference copy of the plain tree-rebuilding LF core: a shift, a
// single-index substitution and Normalize that build a fresh node for
// every node they visit, an environment copied at every binder, and a
// checker that normalizes both sides of every comparison. The
// production core has one hereditary substitution that shares
// unchanged subterms, and its checker compares syntactically before
// normalizing; the differential tests below require the two to agree
// on results (up to the redexes a substitution creates), verdicts,
// error classes and step counts.

func refSpine(t Term) (head Term, args []Term) {
	for {
		a, ok := t.(App)
		if !ok {
			return t, args
		}
		args = append([]Term{a.X}, args...)
		t = a.F
	}
}

func refShift(t Term, d, cutoff int) Term {
	switch t := t.(type) {
	case Sort, Konst, Lit:
		return t
	case Bound:
		if t.Idx >= cutoff {
			return Bound{t.Idx + d}
		}
		return t
	case Pi:
		return Pi{refShift(t.A, d, cutoff), refShift(t.B, d, cutoff+1)}
	case Lam:
		return Lam{refShift(t.A, d, cutoff), refShift(t.M, d, cutoff+1)}
	case App:
		return App{refShift(t.F, d, cutoff), refShift(t.X, d, cutoff)}
	}
	panic(fmt.Sprintf("lf: unknown term %T", t))
}

func refSubstIdx(t Term, j int, s Term) Term {
	switch t := t.(type) {
	case Sort, Konst, Lit:
		return t
	case Bound:
		switch {
		case t.Idx == j:
			return refShift(s, j, 0)
		case t.Idx > j:
			return Bound{t.Idx - 1}
		default:
			return t
		}
	case Pi:
		return Pi{refSubstIdx(t.A, j, s), refSubstIdx(t.B, j+1, s)}
	case Lam:
		return Lam{refSubstIdx(t.A, j, s), refSubstIdx(t.M, j+1, s)}
	case App:
		return App{refSubstIdx(t.F, j, s), refSubstIdx(t.X, j, s)}
	}
	panic(fmt.Sprintf("lf: unknown term %T", t))
}

func refInstantiate(body Term, arg Term) Term { return refSubstIdx(body, 0, arg) }

func refNormalize(t Term) Term {
	switch t := t.(type) {
	case Sort, Konst, Bound, Lit:
		return t
	case Pi:
		return Pi{refNormalize(t.A), refNormalize(t.B)}
	case Lam:
		return Lam{refNormalize(t.A), refNormalize(t.M)}
	case App:
		f := refNormalize(t.F)
		x := refNormalize(t.X)
		if lam, ok := f.(Lam); ok {
			return refNormalize(refInstantiate(lam.M, x))
		}
		return App{f, x}
	}
	panic(fmt.Sprintf("lf: unknown term %T", t))
}

// refChecker is the reference checker: the same inference rules, step
// fuel and depth budget as Checker, over the reference core.
type refChecker struct {
	Sig      *Signature
	Steps    int
	MaxSteps int
	MaxDepth int
	depth    int
	// depths, when non-nil, records the depth of every step.
	depths *[]int
}

func (c *refChecker) Check(term, want Term) error {
	got, err := c.infer(term, nil)
	if err != nil {
		return err
	}
	if !Equal(refNormalize(got), refNormalize(want)) {
		return typeErrAt(term, "type mismatch:\n  inferred %s\n  expected %s", got, want)
	}
	return nil
}

func (c *refChecker) infer(t Term, env []Term) (Term, error) {
	c.Steps++
	if c.MaxSteps > 0 && c.Steps > c.MaxSteps {
		return nil, &LimitError{Axis: "check_steps", Max: c.MaxSteps}
	}
	c.depth++
	defer func() { c.depth-- }()
	if c.MaxDepth > 0 && c.depth > c.MaxDepth {
		return nil, &LimitError{Axis: "term_depth", Max: c.MaxDepth}
	}
	if c.depths != nil {
		*c.depths = append(*c.depths, c.depth)
	}
	switch t := t.(type) {
	case Sort:
		if t == SType {
			return SKind, nil
		}
		return nil, typeErrAt(t, "the sort 'kind' has no classifier")
	case Konst:
		ty, ok := c.Sig.Lookup(t.Name)
		if !ok {
			return nil, typeErrAt(t, "unknown constant %q", t.Name)
		}
		return ty, nil
	case Bound:
		if t.Idx < 0 || t.Idx >= len(env) {
			return nil, typeErrAt(t, "unbound variable #%d", t.Idx)
		}
		return refShift(env[t.Idx], t.Idx+1, 0), nil
	case Lit:
		return Konst{CWord}, nil
	case Pi:
		if err := c.checkIsType(t.A, env); err != nil {
			return nil, err
		}
		s, err := c.infer(t.B, refPush(env, t.A))
		if err != nil {
			return nil, err
		}
		srt, ok := refNormalize(s).(Sort)
		if !ok {
			return nil, typeErrAt(t.B, "Pi body is not a type or kind: %s", t.B)
		}
		return srt, nil
	case Lam:
		if err := c.checkIsType(t.A, env); err != nil {
			return nil, err
		}
		b, err := c.infer(t.M, refPush(env, t.A))
		if err != nil {
			return nil, err
		}
		return Pi{t.A, b}, nil
	case App:
		fTy, err := c.infer(t.F, env)
		if err != nil {
			return nil, err
		}
		pi, ok := refNormalize(fTy).(Pi)
		if !ok {
			return nil, typeErrAt(t, "application of non-function: %s : %s", t.F, fTy)
		}
		aTy, err := c.infer(t.X, env)
		if err != nil {
			return nil, err
		}
		if !Equal(refNormalize(aTy), refNormalize(pi.A)) {
			return nil, typeErrAt(t.X, "argument type mismatch:\n  got %s\n  want %s", aTy, pi.A)
		}
		if err := c.checkPrimitive(t); err != nil {
			return nil, err
		}
		return refInstantiate(pi.B, t.X), nil
	}
	return nil, typeErr("unknown term %T", t)
}

func (c *refChecker) checkIsType(a Term, env []Term) error {
	s, err := c.infer(a, env)
	if err != nil {
		return err
	}
	if srt, ok := refNormalize(s).(Sort); ok && (srt == SType || srt == SKind) {
		return nil
	}
	return typeErrAt(a, "not a type: %s", a)
}

func refPush(env []Term, a Term) []Term {
	out := make([]Term, 0, len(env)+1)
	out = append(out, a)
	return append(out, env...)
}

func refDecodePred(t Term) (logic.Pred, error) { return decodePred(refNormalize(t), 0) }

func (c *refChecker) checkPrimitive(app App) error {
	head, args := refSpine(app)
	k, ok := head.(Konst)
	if !ok {
		return nil
	}
	switch {
	case k.Name == CGr && len(args) == 1:
		p, err := refDecodePred(args[0])
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
		p, err := refDecodePred(args[0])
		if err != nil {
			return typeErrAt(app, "nrm: %v", err)
		}
		q, err := refDecodePred(args[1])
		if err != nil {
			return typeErrAt(app, "nrm: %v", err)
		}
		if !logic.AlphaEqual(logic.NormPred(p), logic.NormPred(q)) {
			return typeErrAt(app, "nrm applied to non-convertible predicates:\n  %s\n  %s", p, q)
		}
	}
	return nil
}

// RefCheck runs the reference checker under the given step fuel and
// depth budget and returns its step count, for the differential tests
// in package lf_test.
func RefCheck(sig *Signature, term, want Term, maxSteps, maxDepth int) (steps int, err error) {
	c := &refChecker{Sig: sig, MaxSteps: maxSteps, MaxDepth: maxDepth}
	err = c.Check(term, want)
	return c.Steps, err
}

// RefStepDepths runs the reference checker with no budget and returns
// the recursion depth of each of its steps, in order. On a term that
// checks, the verdict under any budget follows from it: MaxSteps = m
// trips at step m+1 when m is below the step count, and MaxDepth = d
// trips at the first step deeper than d.
func RefStepDepths(sig *Signature, term, want Term) ([]int, error) {
	var depths []int
	c := &refChecker{Sig: sig, depths: &depths}
	err := c.Check(term, want)
	return depths, err
}

// CheckerDepth exposes the checker's recursion depth, which must be
// back at 0 whenever a check returns.
func CheckerDepth(c *Checker) int { return c.depth }

// ErrorClass names the verdict class of a checker result: "ok",
// "type", or "limit:<axis>". Both checkers must land in the same class.
func ErrorClass(err error) string {
	var te *TypeError
	var le *LimitError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &le):
		return "limit:" + le.Axis
	case errors.As(err, &te):
		return "type"
	}
	return "other: " + err.Error()
}

// termGen builds random raw terms over the signature's constants
// within a node budget. Bound variables never stand in head position
// and maxRedexes caps the λ-heads, so most generated terms normalize
// quickly; the rest are untyped terms the tests skip (see normalizes).
type termGen struct {
	next       func(n int) int
	names      []string
	budget     int
	maxRedexes int
}

func (g *termGen) term(binders int) Term {
	g.budget--
	if g.budget <= 0 {
		return g.leaf(binders)
	}
	switch g.next(8) {
	case 0, 1:
		return g.leaf(binders)
	case 2:
		return Pi{g.term(binders), g.term(binders + 1)}
	case 3:
		return Lam{g.term(binders), g.term(binders + 1)}
	default:
		return App{g.head(binders), g.term(binders)}
	}
}

func (g *termGen) head(binders int) Term {
	g.budget--
	switch {
	case g.budget > 0 && g.next(3) == 0:
		return App{g.head(binders), g.term(binders)}
	case g.budget > 0 && g.maxRedexes > 0 && g.next(4) == 0:
		g.maxRedexes--
		return Lam{g.term(binders), g.term(binders + 1)}
	}
	return Konst{g.names[g.next(len(g.names))]}
}

func (g *termGen) leaf(binders int) Term {
	switch g.next(5) {
	case 0:
		// Mostly bound, occasionally free.
		return Bound{g.next(binders + 2)}
	case 1:
		return Lit{uint64(g.next(4))}
	case 2:
		return SType
	}
	return Konst{g.names[g.next(len(g.names))]}
}

// shareUnderBinder wraps a closed, well-typed term a so that its nodes
// recur by identity inside one application spine under a binder:
//
//	λ_:exp. (λ_:T1. … λ_:Tk. tt) x1 … xk
//
// with the xs drawn from a, its spine prefix, and a again, and each Ti
// the type of xi. The wrapper is well-typed, so the checker's memo of
// (node, binder context) is hit: on the repeated a as an argument, and
// on a's prefix as an inner node of a's own spine. ok is false when a
// does not check.
func shareUnderBinder(sig *Signature, a Term) (shared Term, ok bool) {
	xs := []Term{a, a}
	if app, isApp := a.(App); isApp {
		xs = []Term{app.F, a, a}
	}
	var body Term = Konst{CTT}
	for i := len(xs) - 1; i >= 0; i-- {
		ty, err := (&refChecker{Sig: sig}).infer(xs[i], nil)
		if err != nil {
			return nil, false
		}
		// Closed types need no shifting under the wrapper's binders.
		body = Lam{ty, body}
	}
	return Lam{Konst{CExp}, Apply(body, xs...)}, true
}

// shareAcrossBinders puts one node a, possibly open, under two binders
// of different types in one spine:
//
//	(λ_:T1. λ_:T2. tt) (λ_:exp. a) (λ_:pred. a)
//
// Where #0 occurs in a, the two occurrences of a live in different
// contexts and may have different types, or a type in only one; a memo
// that ignored the binder context would reuse the first. Each Ti is
// the type of its argument. When one argument does not check, its Ti
// is what reusing a's type from the other would give it, so only the
// context tells the checkers to reject. ok is false when neither
// argument checks.
func shareAcrossBinders(sig *Signature, a Term) (shared Term, ok bool) {
	binders := [2]Term{Konst{CExp}, Konst{CPred}}
	var xs, tys [2]Term
	for i, b := range binders {
		xs[i] = Lam{b, a}
		tys[i], _ = (&refChecker{Sig: sig}).infer(xs[i], nil)
	}
	for i := range tys {
		if other, ok := tys[1-i].(Pi); ok && tys[i] == nil {
			tys[i] = Pi{binders[i], other.B}
		}
	}
	if tys[0] == nil {
		return nil, false
	}
	return Apply(Lam{tys[0], Lam{tys[1], Konst{CTT}}}, xs[0], xs[1]), true
}

// normalizes reports whether t reaches its normal form within a small
// budget of nodes built by β-steps. Random raw terms are untyped, so
// nothing else guarantees that normalizing them terminates.
func normalizes(t Term) bool {
	fuel := 2000
	var norm func(t Term) Term
	norm = func(t Term) Term {
		if fuel < 0 {
			return t
		}
		switch n := t.(type) {
		case Pi:
			return Pi{norm(n.A), norm(n.B)}
		case Lam:
			return Lam{norm(n.A), norm(n.M)}
		case App:
			f, x := norm(n.F), norm(n.X)
			if lam, ok := f.(Lam); ok && fuel >= 0 {
				r := refInstantiate(lam.M, x)
				fuel -= SizeBounded(r, fuel+1)
				return norm(r)
			}
			return App{f, x}
		}
		return t
	}
	norm(t)
	return fuel >= 0
}

func newRandTerm(r *rand.Rand, names []string, budget int) Term {
	for {
		g := &termGen{next: r.Intn, names: names, budget: budget, maxRedexes: 3}
		if t := g.term(0); normalizes(t) {
			return t
		}
	}
}

// diffCorpus returns the differential tests' term corpus: encoded random
// predicates, redexes built around them, single-node mutants of a real
// proof, and random raw terms.
func diffCorpus(t *testing.T, r *rand.Rand) []Term {
	t.Helper()
	var out []Term
	for i := 0; i < 150; i++ {
		term, err := EncodeStatePred(fuzzPred(r, 3))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, term, App{
			Lam{Konst{CExp}, App{Konst{CForall}, Lam{Konst{CExp}, shift(term, 2, 0)}}},
			App{Konst{CCst}, Lit{1}},
		})
	}
	proof, _ := CertifyLF(t, `
        LDQ  r4, 0(r1)
        LDQ  r5, 8(r1)
        CLR  r0
        RET
	`, policy.PacketFilter())
	out = append(out, proof)
	out = append(out, mutateTerm(proof)...)
	sig := NewSignature()
	for i := 0; i < 300; i++ {
		out = append(out, newRandTerm(r, sig.Names(), 40))
	}
	for _, a := range out[:len(out):len(out)] {
		if s, ok := shareUnderBinder(sig, a); ok {
			out = append(out, s)
		}
		if s, ok := shareAcrossBinders(sig, a); ok {
			out = append(out, s)
		}
	}
	return out
}

// TestSharingMatchesReference: shift, substitution, Normalize, Spine
// and Equal agree with the reference core on every corpus term, and
// the sharing versions leave their inputs untouched.
func TestSharingMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1414))
	corpus := diffCorpus(t, r)
	for i, a := range corpus {
		want := refNormalize(a)
		before := a.String()
		if got := Normalize(a); !Equal(got, want) {
			t.Fatalf("term %d: Normalize = %s, reference %s", i, got, want)
		}
		if a.String() != before {
			t.Fatalf("term %d: Normalize mutated its input", i)
		}
		d, cutoff := 1+r.Intn(3), r.Intn(3)
		if got, want := shift(a, d, cutoff), refShift(a, d, cutoff); !Equal(got, want) {
			t.Fatalf("term %d: shift(%d, %d) = %s, reference %s", i, d, cutoff, got, want)
		}
		j, s := r.Intn(3), corpus[r.Intn(len(corpus))]
		if !substAgrees(a, j, s) {
			t.Fatalf("term %d: substituting %s for #%d disagrees with the reference", i, s, j)
		}
		h1, a1 := Spine(a)
		h2, a2 := refSpine(a)
		if !Equal(h1, h2) || !Equal(Apply(h1, a1...), Apply(h2, a2...)) || len(a1) != len(a2) {
			t.Fatalf("term %d: Spine disagrees with the reference", i)
		}
		b := corpus[r.Intn(len(corpus))]
		if got, want := Equal(Normalize(a), Normalize(b)), Equal(want, refNormalize(b)); got != want {
			t.Fatalf("terms %d vs %s: β-equality %v, reference %v", i, b, got, want)
		}
	}
}

// substAgrees reports whether substituting s for #j in a agrees with
// refSubstIdx. The substitution is hereditary and the reference is
// not, so they can differ only in the redexes the substitution creates
// and reduces, which needs s to be an abstraction: otherwise the
// results must be identical, and with an abstraction they must share
// a normal form, compared when the reference result has one.
func substAgrees(a Term, j int, s Term) bool {
	ref := refSubstIdx(a, j, s)
	_, isLam := s.(Lam)
	if isLam && !normalizes(ref) {
		return true
	}
	got, _ := hsubst{args: []Term{s}}.apply(a, j)
	if !isLam {
		return Equal(got, ref)
	}
	return Equal(Normalize(got), refNormalize(ref))
}

// compareCheckers runs both checkers on (term, want) — or on term
// alone when want is nil — and fails unless verdict class and step
// count agree.
func compareCheckers(t *testing.T, sig *Signature, term, want Term, maxSteps, maxDepth int) {
	t.Helper()
	c := &Checker{Sig: sig, MaxSteps: maxSteps, MaxDepth: maxDepth}
	ref := &refChecker{Sig: sig, MaxSteps: maxSteps, MaxDepth: maxDepth}
	var err, refErr error
	if want != nil {
		err, refErr = c.Check(term, want), ref.Check(term, want)
	} else {
		var ty, refTy Term
		ty, err = c.Infer(term)
		refTy, refErr = ref.infer(term, nil)
		if err == nil && refErr == nil && !Equal(Normalize(ty), refNormalize(refTy)) {
			t.Fatalf("inferred types differ on %s:\n  %s\n  %s", term, ty, refTy)
		}
	}
	if got, want := ErrorClass(err), ErrorClass(refErr); got != want {
		t.Fatalf("verdict %s, reference %s on %s\n  err: %v\n  ref: %v", got, want, term, err, refErr)
	}
	if c.Steps != ref.Steps {
		t.Fatalf("steps %d, reference %d on %s", c.Steps, ref.Steps, term)
	}
	if c.depth != 0 {
		t.Fatalf("checker depth %d after a check", c.depth)
	}
}

// TestCheckerMatchesReference: the production checker and the
// reference agree on verdict class and Steps over the corpus (with and
// without a step/depth budget), and on checking a real proof and every
// single-node mutant of it against its safety predicate.
func TestCheckerMatchesReference(t *testing.T) {
	sig := NewSignature()
	r := rand.New(rand.NewSource(1515))
	for _, term := range diffCorpus(t, r) {
		compareCheckers(t, sig, term, nil, 0, 0)
		compareCheckers(t, sig, term, nil, 1+r.Intn(40), 1+r.Intn(12))
	}
	proof, sp := CertifyLF(t, `
        LDQ  r4, 0(r1)
        LDQ  r5, 8(r1)
        CLR  r0
        RET
	`, policy.PacketFilter())
	spT, err := EncodePred(sp)
	if err != nil {
		t.Fatal(err)
	}
	want := App{Konst{CPf}, spT}
	compareCheckers(t, sig, proof, want, 0, 0)
	for _, m := range mutateTerm(proof) {
		compareCheckers(t, sig, m, want, 0, 0)
	}
}

// FuzzLFDifferential drives the random term generator from fuzzer
// bytes and requires the sharing core and checker to agree with the
// reference on every generated term.
func FuzzLFDifferential(f *testing.F) {
	for _, seed := range [][]byte{
		{}, {4, 4, 2, 0, 1}, {7, 3, 5, 0, 2, 9, 4, 4, 1, 0, 3},
		[]byte("the quick brown fox jumps over the lazy dog"),
	} {
		f.Add(seed)
	}
	sig := NewSignature()
	names := sig.Names()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		pos := 0
		next := func(n int) int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1]) % n
		}
		gen := func() Term {
			g := &termGen{next: next, names: names, budget: 48, maxRedexes: 3}
			return g.term(0)
		}
		a, b := gen(), gen()
		if !normalizes(a) || !normalizes(b) {
			return
		}
		if !Equal(Normalize(a), refNormalize(a)) {
			t.Fatalf("Normalize disagrees on %s", a)
		}
		if got, want := Equal(Normalize(a), Normalize(b)), Equal(refNormalize(a), refNormalize(b)); got != want {
			t.Fatalf("β-equality of %s and %s: %v, reference %v", a, b, got, want)
		}
		if !substAgrees(a, 0, b) || !Equal(shift(a, 2, 1), refShift(a, 2, 1)) {
			t.Fatalf("substitution disagrees on %s", a)
		}
		compareCheckers(t, sig, a, nil, 0, 0)
		compareCheckers(t, sig, a, b, 0, 0)
		if s, ok := shareUnderBinder(sig, a); ok {
			compareCheckers(t, sig, s, nil, 0, 0)
			compareCheckers(t, sig, s, nil, 1+next(64), 1+next(16))
		}
		if s, ok := shareAcrossBinders(sig, a); ok {
			compareCheckers(t, sig, s, nil, 0, 0)
		}
	})
}
