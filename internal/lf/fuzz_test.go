package lf

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
)

// Property tests over randomly generated predicates and terms.

var fuzzVars = []string{"r0", "r1", "r2", "r3"}

func fuzzExpr(r *rand.Rand, depth int) logic.Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			return logic.C(r.Uint64() >> uint(r.Intn(56)))
		}
		return logic.V(fuzzVars[r.Intn(len(fuzzVars))])
	}
	if r.Intn(10) == 0 {
		return logic.SelE(logic.V("rm"), fuzzExpr(r, depth-1))
	}
	ops := []logic.BinOp{logic.OpAdd, logic.OpSub, logic.OpMul, logic.OpAnd,
		logic.OpOr, logic.OpXor, logic.OpShl, logic.OpShr,
		logic.OpCmpEq, logic.OpCmpUlt, logic.OpCmpUle, logic.OpCmpSlt}
	return logic.Bin{Op: ops[r.Intn(len(ops))], L: fuzzExpr(r, depth-1), R: fuzzExpr(r, depth-1)}
}

func fuzzPred(r *rand.Rand, depth int) logic.Pred {
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(6) {
		case 0:
			return logic.True
		case 1:
			return logic.False
		case 2:
			return logic.RdP(fuzzExpr(r, 2))
		case 3:
			return logic.WrP(fuzzExpr(r, 2))
		default:
			ops := []logic.CmpOp{logic.CmpEq, logic.CmpNe, logic.CmpUlt,
				logic.CmpUle, logic.CmpSlt, logic.CmpSle}
			return logic.Cmp{Op: ops[r.Intn(len(ops))], L: fuzzExpr(r, 2), R: fuzzExpr(r, 2)}
		}
	}
	switch r.Intn(4) {
	case 0:
		return logic.And{L: fuzzPred(r, depth-1), R: fuzzPred(r, depth-1)}
	case 1:
		return logic.Or{L: fuzzPred(r, depth-1), R: fuzzPred(r, depth-1)}
	case 2:
		return logic.Imp{L: fuzzPred(r, depth-1), R: fuzzPred(r, depth-1)}
	default:
		return logic.Forall{Var: "x", Body: fuzzPred(r, depth-1)}
	}
}

// TestFuzzEncodedPredsTypecheck: every encodable predicate's LF image
// must have type `pred` under the published signature — the encoder
// never produces ill-typed syntax.
func TestFuzzEncodedPredsTypecheck(t *testing.T) {
	sig := NewSignature()
	c := NewChecker(sig)
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 1000; trial++ {
		p := fuzzPred(r, 4)
		term, err := EncodeStatePred(p)
		if err != nil {
			t.Fatalf("encode %s: %v", p, err)
		}
		ty, err := c.Infer(term)
		if err != nil {
			t.Fatalf("encoded %s does not typecheck: %v", p, err)
		}
		if !Equal(Normalize(ty), Konst{CPred}) {
			t.Fatalf("encoded %s has type %s", p, ty)
		}
	}
}

// TestFuzzEncodeDecodeStatePred: decode ∘ encode is the identity up to
// α-renaming.
func TestFuzzEncodeDecodeStatePred(t *testing.T) {
	r := rand.New(rand.NewSource(56))
	for trial := 0; trial < 1000; trial++ {
		p := fuzzPred(r, 4)
		term, err := EncodeStatePred(p)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodePred(term)
		if err != nil {
			t.Fatalf("decode of %s failed: %v", p, err)
		}
		if !logic.AlphaEqual(p, back) {
			t.Fatalf("round trip changed predicate:\n  in:  %s\n  out: %s", p, back)
		}
	}
}

// TestNormalizeIdempotent over encoded predicates (which contain no
// redexes) and over β-redex-bearing terms built around them.
func TestNormalizeIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(57))
	for trial := 0; trial < 500; trial++ {
		p := fuzzPred(r, 3)
		term, err := EncodeStatePred(p)
		if err != nil {
			t.Fatal(err)
		}
		// Wrap in a redex: (λx:exp. forall (λy:exp. <term>)) (cst 1).
		redex := App{
			Lam{Konst{CExp}, App{Konst{CForall}, Lam{Konst{CExp}, shiftFree(term, 2)}}},
			App{Konst{CCst}, Lit{1}},
		}
		n1 := Normalize(redex)
		n2 := Normalize(n1)
		if !Equal(n1, n2) {
			t.Fatalf("Normalize not idempotent on %s", redex)
		}
	}
}

// shiftFree shifts the free de Bruijn indexes of t (encoded state
// predicates have none, so this is the identity; kept for clarity).
func shiftFree(t Term, d int) Term { return shift(t, d, 0) }

// TestCheckerStepsBounded: LF checking of encoded predicates is linear
// enough that the step counter stays proportional to the term size
// (the paper: "typechecking is decidable and described by a few simple
// rules").
func TestCheckerStepsBounded(t *testing.T) {
	sig := NewSignature()
	r := rand.New(rand.NewSource(58))
	for trial := 0; trial < 200; trial++ {
		p := fuzzPred(r, 4)
		term, err := EncodeStatePred(p)
		if err != nil {
			t.Fatal(err)
		}
		c := NewChecker(sig)
		if _, err := c.Infer(term); err != nil {
			t.Fatal(err)
		}
		if c.Steps > 4*Size(term)+16 {
			t.Fatalf("checker took %d steps for a %d-node term", c.Steps, Size(term))
		}
	}
}

// TestWrongSignatureRejectsProofs: a consumer publishing a signature
// without some axiom must reject proofs that use it.
func TestWrongSignatureRejectsProofs(t *testing.T) {
	full := NewSignature()
	// Build a stripped signature lacking the arithmetic axioms.
	stripped := &Signature{types: map[string]Term{}}
	for _, name := range full.Names() {
		if name == "lt_le_trans" || name == "band_ub" {
			continue
		}
		ty, _ := full.Lookup(name)
		stripped.declare(name, ty)
	}
	term := Apply(Konst{"band_ub"},
		App{Konst{CCst}, Lit{1}}, App{Konst{CCst}, Lit{7}})
	if _, err := NewChecker(full).Infer(term); err != nil {
		t.Fatalf("full signature rejected axiom use: %v", err)
	}
	if _, err := NewChecker(stripped).Infer(term); err == nil {
		t.Fatal("stripped signature accepted a missing axiom")
	}
}
