package lf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/alpha"
	"repro/internal/logic"
	"repro/internal/policy"
	"repro/internal/prover"
	"repro/internal/vcgen"
)

func TestSignatureWellFormed(t *testing.T) {
	// Every constant's classifier must itself typecheck (to `type` or
	// `kind`), with earlier constants in scope.
	sig := NewSignature()
	c := NewChecker(sig)
	for _, name := range sig.Names() {
		ty, _ := sig.Lookup(name)
		if err := c.checkIsType(ty, nil, 0); err != nil {
			t.Errorf("constant %q has ill-formed type: %v", name, err)
		}
	}
	if len(sig.Names()) < 40 {
		t.Errorf("signature suspiciously small: %d constants", len(sig.Names()))
	}
}

func TestBetaNormalization(t *testing.T) {
	// (λx:exp. x) (cst 5) → cst 5
	id := Lam{Konst{CExp}, Bound{0}}
	five := App{Konst{CCst}, Lit{5}}
	got := Normalize(App{id, five})
	if !Equal(got, five) {
		t.Fatalf("normalize = %s", got)
	}
}

func TestShiftSubstProperties(t *testing.T) {
	// β-reducing a λ-body with a closed arg leaves no dangling indexes.
	body := Apply(Konst{"e_add"}, Bound{0}, Bound{0})
	arg := App{Konst{CCst}, Lit{7}}
	got := beta(body, arg, 0)
	want := Apply(Konst{"e_add"}, arg, arg)
	if !Equal(got, want) {
		t.Fatalf("beta = %s, want %s", got, want)
	}
	// The substitution is hereditary: λx.x substituted into #0 c
	// creates the redex (λx.x) c, which is reduced at once.
	c := Konst{"c"}
	if got := beta(App{Bound{0}, c}, Lam{Konst{CExp}, Bound{0}}, 0); !Equal(got, c) {
		t.Fatalf("beta into a head position = %s, want %s", got, c)
	}
}

func TestEncodeDecodePredRoundTrip(t *testing.T) {
	pols := []logic.Pred{
		policy.PacketFilter().Pre,
		policy.ResourceAccess().Pre,
		policy.SFISegment().Pre,
		logic.True,
		logic.All("i", logic.Implies(
			logic.Ult(logic.V("i"), logic.C(10)),
			logic.RdP(logic.Add(logic.V("i"), logic.C(8))))),
	}
	for _, p := range pols {
		// Close over any free register variables first.
		closed := logic.AllOf(logic.SortedFreeVars(p), p)
		enc, err := EncodePred(closed)
		if err != nil {
			t.Fatalf("encode %s: %v", closed, err)
		}
		dec, err := DecodePred(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !logic.AlphaEqual(closed, dec) {
			t.Fatalf("round trip changed predicate:\n  in:  %s\n  out: %s", closed, dec)
		}
	}
}

func TestEncodedPredHasTypePred(t *testing.T) {
	sig := NewSignature()
	c := NewChecker(sig)
	closed := logic.AllOf(logic.SortedFreeVars(policy.PacketFilter().Pre), policy.PacketFilter().Pre)
	enc, err := EncodePred(closed)
	if err != nil {
		t.Fatal(err)
	}
	ty, err := c.Infer(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(Normalize(ty), Konst{CPred}) {
		t.Fatalf("encoded predicate has type %s", ty)
	}
}

// certifyLF runs the producer pipeline and validates through LF.
func certifyLF(t *testing.T, src string, pol *policy.Policy) (Term, logic.Pred) {
	t.Helper()
	a, err := alpha.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := vcgen.Gen(a.Prog, pol.Pre, pol.Post, nil)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := prover.Prove(res.SP)
	if err != nil {
		t.Fatal(err)
	}
	term, err := EncodeProof(proof)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateProof(NewSignature(), term, res.SP); err != nil {
		t.Fatalf("LF validation failed: %v", err)
	}
	return term, res.SP
}

func TestValidateResourceAccessProof(t *testing.T) {
	certifyLF(t, `
        ADDQ  r0, 8, r1
        LDQ   r0, 8(r0)
        LDQ   r2, -8(r1)
        ADDQ  r0, 1, r0
        BEQ   r2, L1
        STQ   r0, 0(r1)
L1:     RET
	`, policy.ResourceAccess())
}

func TestValidatePacketFilterStyleProof(t *testing.T) {
	certifyLF(t, `
        LDQ    r4, 8(r1)
        SRL    r4, 46, r4
        AND    r4, 60, r4
        ADDQ   r4, 16, r4
        AND    r4, 0xF8, r5
        CMPULT r5, r2, r6
        BEQ    r6, reject
        ADDQ   r1, r5, r7
        LDQ    r8, 0(r7)
        MOV    1, r0
        RET
reject: CLR   r0
        RET
	`, policy.PacketFilter())
}

func TestValidationRejectsWrongPredicate(t *testing.T) {
	term, _ := certifyLF(t, `
        LDQ  r4, 0(r1)
        CLR  r0
        RET
	`, policy.PacketFilter())
	// The same proof must not validate against a different program's
	// safety predicate (tamper-detection, §2.3).
	a := alpha.MustAssemble(`
        LDQ  r4, 0(r1)
        LDQ  r5, 8(r1)
        CLR  r0
        RET
	`)
	pol := policy.PacketFilter()
	res, err := vcgen.Gen(a.Prog, pol.Pre, pol.Post, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateProof(NewSignature(), term, res.SP); err == nil {
		t.Fatal("proof for a different program accepted")
	}
}

func TestGroundPrimitiveRejectsFalse(t *testing.T) {
	sig := NewSignature()
	c := NewChecker(sig)
	bad, err := EncodePred(logic.Ult(logic.C(9), logic.C(3)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Infer(App{Konst{CGr}, bad}); err == nil {
		t.Fatal("gr accepted a false ground predicate")
	}
	good, err := EncodePred(logic.Ult(logic.C(3), logic.C(9)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Infer(App{Konst{CGr}, good}); err != nil {
		t.Fatalf("gr rejected a true ground predicate: %v", err)
	}
	open, err := EncodePred(logic.All("i", logic.Eq(logic.V("i"), logic.V("i"))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Infer(App{Konst{CGr}, open}); err == nil {
		t.Fatal("gr accepted a quantified predicate")
	}
}

func TestNrmPrimitiveChecksConvertibility(t *testing.T) {
	sig := NewSignature()
	c := NewChecker(sig)
	mk := func(p logic.Pred) Term {
		enc, err := EncodePred(p)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	// (3+4 = 7) ~ true: convertible.
	a := mk(logic.Eq(logic.Add(logic.C(3), logic.C(4)), logic.C(7)))
	b := mk(logic.True)
	if _, err := c.Infer(Apply(Konst{CNrm}, a, b)); err != nil {
		t.Fatalf("nrm rejected convertible predicates: %v", err)
	}
	// (3+4 = 8) ~ true: not convertible.
	bad := mk(logic.Eq(logic.Add(logic.C(3), logic.C(4)), logic.C(8)))
	if _, err := c.Infer(Apply(Konst{CNrm}, bad, b)); err == nil {
		t.Fatal("nrm accepted non-convertible predicates")
	}
}

// TestNrmMalformedOperandRecordsSubterm: an nrm whose operands are
// well-typed but do not decode as predicates is rejected with the
// failing application as the forensic subterm — for the second operand
// as for the first.
func TestNrmMalformedOperandRecordsSubterm(t *testing.T) {
	hyp := Konst{CPred}
	for name, app := range map[string]Term{
		"first":  Apply(Konst{CNrm}, Bound{0}, Konst{CTT}),
		"second": Apply(Konst{CNrm}, Konst{CTT}, Bound{0}),
	} {
		_, err := NewChecker(NewSignature()).Infer(Lam{hyp, app})
		var te *TypeError
		if !errors.As(err, &te) {
			t.Fatalf("%s operand: want a TypeError, got %v", name, err)
		}
		if !strings.HasPrefix(te.Msg, "nrm:") || te.Subterm != app.String() {
			t.Errorf("%s operand: msg %q, subterm %q; want an nrm error at %s", name, te.Msg, te.Subterm, app)
		}
	}
}

// refString renders a term the way the tree-rebuilding String methods
// did, for TestRenderCapped.
func refString(t Term) string {
	switch t := t.(type) {
	case Pi:
		return "({" + refString(t.A) + "} " + refString(t.B) + ")"
	case Lam:
		return "([" + refString(t.A) + "] " + refString(t.M) + ")"
	case App:
		head, args := refSpine(t)
		parts := []string{refString(head)}
		for _, x := range args {
			parts = append(parts, refString(x))
		}
		return "(" + strings.Join(parts, " ") + ")"
	}
	return t.String()
}

// TestRenderCapped: render writes terms, predicates and expressions
// exactly as their String methods do, cut to the first max bytes plus
// "..." when longer; and it stops walking at the cap, so a DAG whose
// tree has 2⁶⁰ leaves renders at once.
func TestRenderCapped(t *testing.T) {
	cut := func(s string, max int) string {
		if max > 0 && len(s) > max {
			return s[:max] + "..."
		}
		return s
	}
	r := rand.New(rand.NewSource(59))
	for trial := 0; trial < 500; trial++ {
		p := fuzzPred(r, 4)
		e := fuzzExpr(r, 4)
		term, err := EncodeStatePred(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, max := range []int{0, 1, 7, 40, renderLimit} {
			if got, want := render(p, max), cut(p.String(), max); got != want {
				t.Fatalf("render(%s, %d) = %q, want %q", p, max, got, want)
			}
			if got, want := render(e, max), cut(e.String(), max); got != want {
				t.Fatalf("render(%s, %d) = %q, want %q", e, max, got, want)
			}
			if got, want := render(term, max), cut(refString(term), max); got != want {
				t.Fatalf("render(%s, %d) = %q, want %q", term, max, got, want)
			}
		}
	}
	// Every operator and every form of package logic, named one by one,
	// so that a change to its String syntax cannot slip past the random
	// predicates above.
	a, b := logic.V("a"), logic.V("b")
	var xs []any
	for op := logic.OpAdd; op <= logic.OpCmpSlt+1; op++ {
		xs = append(xs, logic.Bin{Op: op, L: a, R: logic.C(1)})
	}
	for op := logic.CmpEq; op <= logic.CmpSle+1; op++ {
		xs = append(xs, logic.Cmp{Op: op, L: a, R: logic.CI(-8)})
	}
	xs = append(xs, logic.True, logic.False, logic.RdP(a), logic.WrP(b),
		logic.And{L: logic.RdP(a), R: logic.True}, logic.Or{L: logic.False, R: logic.WrP(b)},
		logic.Imp{L: logic.RdP(a), R: logic.WrP(b)}, logic.Forall{Var: "a", Body: logic.RdP(a)},
		logic.C(1<<63), logic.SelE(a, b), logic.UpdE(a, b, logic.C(7)))
	for _, x := range xs {
		want := x.(fmt.Stringer).String()
		for _, max := range []int{0, 3, renderLimit} {
			if got := render(x, max); got != cut(want, max) {
				t.Fatalf("render(%s, %d) = %q, want %q", want, max, got, cut(want, max))
			}
		}
	}

	var tower Term = Konst{CTT}
	for i := 0; i < 60; i++ {
		tower = Apply(Konst{CAnd}, tower, tower)
	}
	if got := render(tower, renderLimit); len(got) != renderLimit+len("...") {
		t.Fatalf("render of a 2⁶⁰-leaf tree gave %d bytes", len(got))
	}
}

// TestMemoDoesNotOutliveCheck: a type inferred in one check is never
// reused by the next, even for the very same term nodes — here
// re-checked against a signature that no longer declares a constant.
func TestMemoDoesNotOutliveCheck(t *testing.T) {
	with := NewSignature()
	with.declare("extra", Konst{CPred})
	var term Term = Lam{Konst{CExp}, App{Konst{CPf}, Konst{"extra"}}}
	c := NewChecker(with)
	for i := 0; i < 2; i++ {
		if _, err := c.Infer(term); err != nil {
			t.Fatalf("check %d: %v", i, err)
		}
	}
	c.Sig = NewSignature()
	if _, err := c.Infer(term); err == nil {
		t.Fatal("a type inferred under the previous signature was reused")
	}
}

// TestMemoKeyedOnBinderContext: one node, pf #0, under a pred binder
// and under an exp binder. It checks under the first and not under the
// second, so reusing its first type would accept an ill-typed term.
func TestMemoKeyedOnBinderContext(t *testing.T) {
	sig := NewSignature()
	var shared Term = App{Konst{CPf}, Bound{0}} // one node, boxed once
	term := Apply(Lam{Pi{Konst{CPred}, SType}, Lam{Pi{Konst{CExp}, SType}, Konst{CTT}}},
		Lam{Konst{CPred}, shared}, Lam{Konst{CExp}, shared})
	if _, err := NewChecker(sig).Infer(term); err == nil {
		t.Fatal("pf applied to an exp variable was accepted")
	}
	compareCheckers(t, sig, term, nil, 0, 0)
}

// TestMemoPastCapacity: a valid proof with twice memoCap binder
// contexts, every one of them holding the same subproof, so nothing
// can be reused and the context table fills up. Past the cap the
// checker stops memoizing and goes on: it accepts, counts one step per
// node of the expanded tree, and trips step fuel exactly where the
// tree walk would.
func TestMemoPastCapacity(t *testing.T) {
	tt, truei := Term(Konst{CTT}), Term(Konst{CTrueI})
	q := truei // : pf tt
	for i := 0; i < 13; i++ {
		arm := func() Term { // a fresh annotation node, so a fresh context
			return Apply(Konst{CImpE}, tt, tt,
				Apply(Konst{CImpI}, tt, tt, Lam{App{Konst{CPf}, tt}, q}), truei)
		}
		q = Apply(Konst{CAndEL}, tt, tt, Apply(Konst{CAndI}, tt, tt, arm(), arm()))
	}
	want := App{Konst{CPf}, tt}
	size := Size(q)
	for _, maxSteps := range []int{0, size, size - 1, size / 2} {
		c := NewChecker(NewSignature())
		c.MaxSteps = maxSteps
		err := c.Check(q, want)
		wantClass, wantSteps := "ok", size
		if maxSteps > 0 && maxSteps < size {
			wantClass, wantSteps = "limit:check_steps", maxSteps+1
		}
		if ErrorClass(err) != wantClass || c.Steps != wantSteps || c.depth != 0 {
			t.Fatalf("MaxSteps %d: %v after %d steps at depth %d; want %s after %d",
				maxSteps, err, c.Steps, c.depth, wantClass, wantSteps)
		}
	}
}

func TestCheckerRejectsIllTyped(t *testing.T) {
	sig := NewSignature()
	c := NewChecker(sig)
	cases := []Term{
		Konst{"nonexistent"},
		Bound{0},
		App{Konst{CTrueI}, Konst{CTT}},            // applying a non-function
		App{Konst{CRd}, Konst{CTT}},               // rd of a pred, not an exp
		App{Konst{CPf}, App{Konst{CCst}, Lit{1}}}, // pf of an exp
		Apply(Konst{CAndI}, Konst{CTT}, Konst{CTT}, Konst{CTrueI}, Konst{CFF}),
	}
	for i, tm := range cases {
		if _, err := c.Infer(tm); err == nil {
			t.Errorf("case %d: ill-typed term accepted: %s", i, tm)
		}
	}
}

func TestCheckerAcceptsCoreRules(t *testing.T) {
	sig := NewSignature()
	c := NewChecker(sig)
	// andi tt tt truei truei : pf (and tt tt)
	tm := Apply(Konst{CAndI}, Konst{CTT}, Konst{CTT}, Konst{CTrueI}, Konst{CTrueI})
	want := App{Konst{CPf}, Apply(Konst{CAnd}, Konst{CTT}, Konst{CTT})}
	if err := c.Check(tm, want); err != nil {
		t.Fatal(err)
	}
	// impi tt tt (λh. h) : pf (imp tt tt)
	imp := Apply(Konst{CImpI}, Konst{CTT}, Konst{CTT},
		Lam{App{Konst{CPf}, Konst{CTT}}, Bound{0}})
	wantImp := App{Konst{CPf}, Apply(Konst{CImp}, Konst{CTT}, Konst{CTT})}
	if err := c.Check(imp, wantImp); err != nil {
		t.Fatal(err)
	}
}

func TestProofTermTamperingDetected(t *testing.T) {
	term, sp := certifyLF(t, `
        LDQ  r4, 0(r1)
        LDQ  r5, 8(r1)
        CLR  r0
        RET
	`, policy.PacketFilter())
	sig := NewSignature()

	mutants := mutateTerm(term)
	if len(mutants) < 10 {
		t.Fatalf("expected more mutants, got %d", len(mutants))
	}
	rejected := 0
	for _, m := range mutants {
		if err := ValidateProof(sig, m, sp); err != nil {
			rejected++
		}
	}
	// Most single-node mutations must be rejected. (A few may be
	// harmless — e.g. renaming an unused hypothesis type — which the
	// paper explicitly allows: "tampering can go undetected only if the
	// adulterated code is still guaranteed to respect the policy".)
	if rejected < len(mutants)*9/10 {
		t.Fatalf("only %d/%d mutants rejected", rejected, len(mutants))
	}
}

// mutateTerm produces single-node mutations of an LF term.
func mutateTerm(t Term) []Term {
	var out []Term
	var walk func(t Term, rebuild func(Term) Term)
	walk = func(t Term, rebuild func(Term) Term) {
		switch t := t.(type) {
		case Lit:
			out = append(out, rebuild(Lit{t.V + 1}))
		case Bound:
			out = append(out, rebuild(Bound{t.Idx + 1}))
		case Konst:
			repl := "e_add"
			if t.Name == "e_add" {
				repl = "e_sub"
			}
			out = append(out, rebuild(Konst{repl}))
		case App:
			walk(t.F, func(n Term) Term { return rebuild(App{n, t.X}) })
			walk(t.X, func(n Term) Term { return rebuild(App{t.F, n}) })
		case Lam:
			walk(t.M, func(n Term) Term { return rebuild(Lam{t.A, n}) })
		case Pi:
			walk(t.B, func(n Term) Term { return rebuild(Pi{t.A, n}) })
		}
	}
	walk(t, func(n Term) Term { return n })
	if len(out) > 300 {
		// Sample evenly; checking thousands of mutants is slow.
		sampled := make([]Term, 0, 300)
		for i := 0; i < len(out); i += len(out) / 300 {
			sampled = append(sampled, out[i])
		}
		out = sampled
	}
	return out
}

func TestTermStringAndSize(t *testing.T) {
	tm := Apply(Konst{CAndI}, Konst{CTT}, Konst{CTT}, Konst{CTrueI}, Konst{CTrueI})
	s := tm.String()
	if !strings.Contains(s, "andi") || !strings.Contains(s, "truei") {
		t.Errorf("bad rendering: %s", s)
	}
	if Size(tm) != 9 {
		t.Errorf("Size = %d, want 9", Size(tm))
	}
}

func TestProofSizeRatio(t *testing.T) {
	// §2.3: "the proof about 3 times larger than the code". Check the
	// LF proof term is nontrivially sized for a small filter.
	term, _ := certifyLF(t, `
        LDQ  r4, 0(r1)
        CLR  r0
        RET
	`, policy.PacketFilter())
	if Size(term) < 50 {
		t.Errorf("proof term suspiciously small: %d nodes", Size(term))
	}
}

func TestFormatSignature(t *testing.T) {
	out := FormatSignature(NewSignature())
	for _, frag := range []string{
		"pf", "forall", "andi", "impi",
		"lt_le_trans", "-> ", "{x0:pred}",
		"a<b ∧ b≤c ⇒ a<c", // the axiom's published comment
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("signature listing missing %q", frag)
		}
	}
	if len(strings.Split(out, "\n")) < 50 {
		t.Errorf("signature listing suspiciously short:\n%s", out)
	}
}

func TestOrProofValidatesThroughLF(t *testing.T) {
	// A disjunctive policy exercised end to end: precondition offers
	// wr(r0) ∨ wr(r0+8); the claim rd(r0) ∨ rd(r0+8) follows by case
	// analysis (wr implies rd). The proof must survive LF encoding and
	// validation.
	r0 := logic.V("r0")
	goal := logic.All("r0", logic.Implies(
		logic.Or{L: logic.WrP(r0), R: logic.WrP(logic.Add(r0, logic.C(8)))},
		logic.Or{L: logic.RdP(r0), R: logic.RdP(logic.Add(r0, logic.C(8)))},
	))
	proof, err := prover.Prove(goal)
	if err != nil {
		t.Fatal(err)
	}
	term, err := EncodeProof(proof)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateProof(NewSignature(), term, goal); err != nil {
		t.Fatalf("LF validation of or-proof failed: %v", err)
	}
}

func TestFalseEProofValidatesThroughLF(t *testing.T) {
	goal := logic.All("r0", logic.Implies(logic.False, logic.WrP(logic.V("r0"))))
	proof, err := prover.Prove(goal)
	if err != nil {
		t.Fatal(err)
	}
	term, err := EncodeProof(proof)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateProof(NewSignature(), term, goal); err != nil {
		t.Fatalf("LF validation of false_e proof failed: %v", err)
	}
}

// TestSignatureDigestMemoConcurrent: concurrent first calls to Digest
// and Fingerprint on a fresh signature all see the digest a fresh
// computation gives (run under -race by scripts/verify.sh), and the
// signature refuses new constants once its digest is fixed.
func TestSignatureDigestMemoConcurrent(t *testing.T) {
	want := NewSignature().computeDigest()
	sig := NewSignature()
	const workers = 8
	digests := make(chan [32]byte, workers)
	prints := make(chan uint64, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prints <- sig.Fingerprint()
			digests <- sig.Digest()
		}()
	}
	wg.Wait()
	close(digests)
	close(prints)
	for d := range digests {
		if d != want {
			t.Fatalf("concurrent Digest = %x, fresh computation %x", d, want)
		}
	}
	for fp := range prints {
		if fp != binary.LittleEndian.Uint64(want[:8]) {
			t.Fatalf("concurrent Fingerprint = %#x, want the digest's first 64 bits", fp)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("declare after Digest did not panic")
		}
	}()
	sig.declare("late_constant", SType)
}
