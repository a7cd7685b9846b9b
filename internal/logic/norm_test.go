package logic

import (
	"math/rand"
	"testing"
)

// Properties the VC generator's sharing rests on: NormPred is
// idempotent, so a normal subformula is its own normal form, and
// SubstNorm over a normal predicate is Subst followed by NormPred.

// normVars are the variables the generators below draw from: register
// names, the memory pseudo-register and a logical variable, so bound
// names collide with substituted ones.
var normVars = []string{"r0", "r1", "r2", "r3", "x"}

// stateVars are the names a quantifier binds or a substitution
// replaces: normVars and rm.
var stateVars = []string{"r0", "r1", "r2", "r3", "x", "rm"}

func normExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			return Const{[]uint64{0, 1, 7, 8, 16, ^uint64(7), 1 << 63, r.Uint64()}[r.Intn(8)]}
		}
		return Var{normVars[r.Intn(len(normVars))]}
	}
	switch r.Intn(8) {
	case 0:
		return Sel{normMem(r, depth-1), normExpr(r, depth-1)}
	default:
		ops := []BinOp{OpAdd, OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpShr,
			OpCmpEq, OpCmpUlt, OpCmpUle, OpCmpSlt}
		return Bin{ops[r.Intn(len(ops))], normExpr(r, depth-1), normExpr(r, depth-1)}
	}
}

func normMem(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(2) == 0 {
		return Var{"rm"}
	}
	return Upd{normMem(r, depth-1), normExpr(r, depth-1), normExpr(r, depth-1)}
}

func normRandPred(r *rand.Rand, depth int) Pred {
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(7) {
		case 0:
			return True
		case 1:
			return False
		case 2:
			return Rd{normExpr(r, 3)}
		case 3:
			return Wr{normExpr(r, 3)}
		default:
			return Cmp{CmpOp(r.Intn(int(CmpSle) + 1)), normExpr(r, 3), normExpr(r, 3)}
		}
	}
	switch r.Intn(5) {
	case 0:
		return And{normRandPred(r, depth-1), normRandPred(r, depth-1)}
	case 1:
		return Or{normRandPred(r, depth-1), normRandPred(r, depth-1)}
	case 2:
		return Imp{normRandPred(r, depth-1), normRandPred(r, depth-1)}
	case 3:
		return Forall{stateVars[r.Intn(len(stateVars))], normRandPred(r, depth-1)}
	default:
		return And{normRandPred(r, depth-1), Imp{normRandPred(r, depth-1), normRandPred(r, depth-1)}}
	}
}

// TestNormPredIdempotentWithMemory: NormPred(NormPred(p)) is PredEqual to
// NormPred(p) over the parser's fuzz seeds and random predicates with
// sel/upd terms and quantifiers (TestNormPredIdempotent draws
// memory-free, quantifier-free ones).
func TestNormPredIdempotentWithMemory(t *testing.T) {
	var preds []Pred
	for _, src := range predSeeds {
		if p, err := ParsePred(src); err == nil {
			preds = append(preds, p)
		}
	}
	r := rand.New(rand.NewSource(0x1DE))
	for i := 0; i < 3000; i++ {
		preds = append(preds, normRandPred(r, 5))
	}
	for _, p := range preds {
		n := NormPred(p)
		if nn := NormPred(n); !PredEqual(nn, n) {
			t.Fatalf("NormPred not idempotent on %s:\n  once:  %s\n  twice: %s", p, n, nn)
		}
	}
}

// TestSubstNormMatchesSubst: on normal predicates, SubstNorm(p, v, e)
// is PredEqual to NormPred(Subst(p, v, e)), including under
// quantifiers that bind v (shadowing) or a variable of e (capture).
func TestSubstNormMatchesSubst(t *testing.T) {
	r := rand.New(rand.NewSource(0x5B5))
	for i := 0; i < 5000; i++ {
		p := NormPred(normRandPred(r, 5))
		v := stateVars[r.Intn(len(stateVars))]
		var e Expr
		if v == "rm" {
			e = normMem(r, 2)
		} else {
			e = normExpr(r, 3)
		}
		got, want := SubstNorm(p, v, e), NormPred(Subst(p, v, e))
		if !PredEqual(got, want) {
			t.Fatalf("SubstNorm(%s, %s, %s)\n  = %s\nwant %s", p, v, e, got, want)
		}
	}
}

// TestSubstNormKeepsUntouched: substituting a variable that does not
// occur returns the predicate itself, allocating nothing.
func TestSubstNormKeepsUntouched(t *testing.T) {
	p := NormPred(MustParsePred("(ALL i. (i < r2 => rd(r1 + i))) /\\ (sel(rm, r3 + 8) <> 0 => wr(r3 + 8))"))
	e := Expr(Bin{OpAdd, Var{"r4"}, Const{8}})
	if allocs := testing.AllocsPerRun(100, func() { _ = SubstNorm(p, "r5", e) }); allocs != 0 {
		t.Fatalf("SubstNorm of an absent variable made %.0f allocations", allocs)
	}
	if got := SubstNorm(p, "r5", e); !PredEqual(got, p) {
		t.Fatalf("SubstNorm of an absent variable changed %s to %s", p, got)
	}
}
