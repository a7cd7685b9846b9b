package pccbin

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lf"
	"repro/internal/logic"
)

// Property tests for the binary codec over randomly generated LF terms
// (obtained by encoding random predicates, which exercises every tag
// except the sorts).

var rtVars = []string{"r0", "r1", "r2", "rm"}

func randExpr(r *rand.Rand, depth int) logic.Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			return logic.C(r.Uint64() >> uint(r.Intn(60)))
		}
		return logic.V(rtVars[r.Intn(len(rtVars)-1)]) // not rm in word position
	}
	switch r.Intn(8) {
	case 0:
		return logic.SelE(logic.V("rm"), randExpr(r, depth-1))
	case 1:
		return logic.SelE(
			logic.UpdE(logic.V("rm"), randExpr(r, depth-1), randExpr(r, depth-1)),
			randExpr(r, depth-1))
	default:
		ops := []logic.BinOp{logic.OpAdd, logic.OpSub, logic.OpAnd, logic.OpOr,
			logic.OpXor, logic.OpShl, logic.OpShr, logic.OpCmpEq, logic.OpCmpUlt}
		return logic.Bin{Op: ops[r.Intn(len(ops))], L: randExpr(r, depth-1), R: randExpr(r, depth-1)}
	}
}

func randPred(r *rand.Rand, depth int) logic.Pred {
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(5) {
		case 0:
			return logic.True
		case 1:
			return logic.RdP(randExpr(r, 2))
		case 2:
			return logic.WrP(randExpr(r, 2))
		default:
			ops := []logic.CmpOp{logic.CmpEq, logic.CmpNe, logic.CmpUlt, logic.CmpUle}
			return logic.Cmp{Op: ops[r.Intn(len(ops))], L: randExpr(r, 2), R: randExpr(r, 2)}
		}
	}
	switch r.Intn(4) {
	case 0:
		return logic.And{L: randPred(r, depth-1), R: randPred(r, depth-1)}
	case 1:
		return logic.Or{L: randPred(r, depth-1), R: randPred(r, depth-1)}
	case 2:
		return logic.Imp{L: randPred(r, depth-1), R: randPred(r, depth-1)}
	default:
		return logic.Forall{Var: "i", Body: randPred(r, depth-1)}
	}
}

func TestRandomTermRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(321))
	for trial := 0; trial < 1500; trial++ {
		p := randPred(r, 4)
		term, err := lf.EncodeStatePred(p)
		if err != nil {
			t.Fatalf("encode %s: %v", p, err)
		}
		inv, err := lf.EncodeStatePred(randPred(r, 3))
		if err != nil {
			t.Fatal(err)
		}
		b := &Binary{
			PolicyName: "fuzz/v1",
			Code:       []byte{1, 2, 3, 4},
			Invariants: []Invariant{{PC: 0, Pred: inv}},
			Proof:      term,
		}
		data, layout, err := b.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if layout.Total != len(data) {
			t.Fatalf("layout total mismatch")
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !lf.Equal(got.Proof, term) {
			t.Fatalf("proof changed:\n in:  %s\n out: %s", term, got.Proof)
		}
		if got.ProofNodes != lf.Size(term) {
			t.Fatalf("ProofNodes %d, tree size %d", got.ProofNodes, lf.Size(term))
		}
		if !lf.Equal(got.Invariants[0].Pred, inv) {
			t.Fatalf("invariant changed")
		}
	}
}

func TestSharingShrinksRepeatedSubterms(t *testing.T) {
	// A term with massive repetition must compress dramatically.
	leaf, err := lf.EncodeStatePred(logic.RdP(logic.Add(logic.V("r1"), logic.C(123456))))
	if err != nil {
		t.Fatal(err)
	}
	big := leaf
	for i := 0; i < 10; i++ {
		big = lf.App{F: lf.App{F: lf.Konst{Name: lf.CAnd}, X: big}, X: big}
	}
	b := &Binary{PolicyName: "x", Proof: big}
	data, layout, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	tree := TreeEncodedSize(big)
	if layout.ProofLen*100 > tree {
		t.Fatalf("sharing too weak: DAG %d vs tree %d bytes", layout.ProofLen, tree)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !lf.Equal(got.Proof, big) {
		t.Fatal("round trip changed the shared term")
	}
	if got.ProofNodes != lf.Size(big) {
		t.Fatalf("ProofNodes %d, tree size %d", got.ProofNodes, lf.Size(big))
	}
}

// TestProofNodesCountsTheTree: ProofNodes is the size of the tree the
// proof DAG expands to, counted once per DAG node, and saturates
// instead of overflowing on a bomb whose tree has 2^71-1 nodes.
func TestProofNodesCountsTheTree(t *testing.T) {
	base := &Binary{PolicyName: "bomb", Proof: lf.Konst{Name: lf.CTT}}
	data, lay, err := base.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// d0 = tt, dk = App{dk-1, dk-1}: each level doubles the tree.
	doubling := func(levels int) []byte {
		out := append([]byte(nil), data[:lay.ProofOff]...)
		for k := 0; k < levels; k++ {
			out = append(out, tagApp)
		}
		out = append(out, tagKonst, 0)
		for k := 0; k < levels; k++ {
			out = append(out, tagRef)
			out = binary.AppendUvarint(out, uint64(k))
		}
		return out
	}
	for _, c := range []struct{ levels, want int }{
		{0, 1}, {10, 1<<11 - 1}, {61, 1<<62 - 1}, {70, math.MaxInt},
	} {
		got, err := Unmarshal(doubling(c.levels))
		if err != nil {
			t.Fatal(err)
		}
		if got.ProofNodes != c.want {
			t.Errorf("%d levels: ProofNodes %d, want %d", c.levels, got.ProofNodes, c.want)
		}
		if c.levels <= 10 && got.ProofNodes != lf.Size(got.Proof) {
			t.Errorf("%d levels: ProofNodes %d, tree size %d", c.levels, got.ProofNodes, lf.Size(got.Proof))
		}
	}
}

func TestRefCannotPointForward(t *testing.T) {
	// Hand-craft a binary whose proof is a bare forward reference.
	b := &Binary{PolicyName: "x", Proof: lf.Konst{Name: lf.CTT}}
	data, lay, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// The proof section is the last byte run: tagKonst + symbol 0.
	// Replace with tagRef + index 5 (beyond anything decoded).
	mut := append([]byte(nil), data[:lay.ProofOff]...)
	mut = append(mut, tagRef, 5)
	if _, err := Unmarshal(mut); err == nil {
		t.Fatal("forward/out-of-range reference accepted")
	}
}
