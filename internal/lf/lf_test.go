package lf

import (
	"encoding/binary"
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
		if err := c.checkIsType(ty, nil); err != nil {
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
	// Instantiate(λ-body x) with closed arg leaves no dangling indexes.
	body := Apply(Konst{"e_add"}, Bound{0}, Bound{0})
	arg := App{Konst{CCst}, Lit{7}}
	got := Instantiate(body, arg)
	want := Apply(Konst{"e_add"}, arg, arg)
	if !Equal(got, want) {
		t.Fatalf("instantiate = %s, want %s", got, want)
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
