package pcc

import (
	"testing"

	"repro/internal/lf"
	"repro/internal/logic"
	"repro/internal/policy"
	"repro/internal/prover"
	"repro/internal/vcgen"
)

// headerOnly is a producer's policy that assumes less than the packet
// filter's: read access to the first 64 bytes of the packet only.
func headerOnly() *policy.Policy {
	return &policy.Policy{
		Name: "header-only/v1",
		Pre: logic.MustParsePred(
			"64 <= r2 /\\ (ALL i. (0 <= i /\\ i < r2 /\\ (i & 7) = 0) => rd(r1 + i))"),
		Post: logic.True,
	}
}

// impProof returns the goal negotiateImp builds for from ⇒ to and the
// LF term it checks, or ok false when the prover finds no proof.
func impProof(t *testing.T, from, to logic.Pred) (goal logic.Pred, term lf.Term, ok bool) {
	t.Helper()
	goal = logic.NormPred(logic.AllOf(vcgen.RegNames(), logic.Implies(from, to)))
	proof, err := prover.Prove(goal)
	if err != nil {
		return goal, nil, false
	}
	term, err = prover.EncodeProof(prover.Simplify(proof), nil)
	if err != nil {
		t.Fatal(err)
	}
	return goal, term, true
}

// rewriteFirst returns t with its first node in pre-order for which f
// gives a replacement replaced, and whether there was one.
func rewriteFirst(t lf.Term, f func(lf.Term) (lf.Term, bool)) (lf.Term, bool) {
	if r, ok := f(t); ok {
		return r, true
	}
	switch n := t.(type) {
	case lf.App:
		if x, ok := rewriteFirst(n.F, f); ok {
			return lf.App{F: x, X: n.X}, true
		}
		if x, ok := rewriteFirst(n.X, f); ok {
			return lf.App{F: n.F, X: x}, true
		}
	case lf.Lam:
		if x, ok := rewriteFirst(n.M, f); ok {
			return lf.Lam{A: n.A, M: x}, true
		}
	}
	return t, false
}

// TestNegotiationRefusesTamperedProof: negotiation's verdict rests on
// the LF term it is handed. The implication proof of the packet
// filter's precondition ⇒ header-only's is accepted as encoded, and
// refused with the proofs of one andi swapped or one literal changed.
func TestNegotiationRefusesTamperedProof(t *testing.T) {
	base := PacketFilterPolicy()
	goal, term, ok := impProof(t, base.Pre, headerOnly().Pre)
	if !ok {
		t.Fatal("no proof of the header-only precondition")
	}
	if err := checkImp(base, term, goal); err != nil {
		t.Fatalf("untampered proof refused: %v", err)
	}
	swapAndI := func(x lf.Term) (lf.Term, bool) {
		head, args := lf.Spine(x)
		if k, ok := head.(lf.Konst); !ok || k.Name != lf.CAndI || len(args) != 4 ||
			lf.Equal(args[0], args[1]) {
			return nil, false
		}
		return lf.Apply(head, args[0], args[1], args[3], args[2]), true
	}
	bumpLit := func(x lf.Term) (lf.Term, bool) {
		if l, ok := x.(lf.Lit); ok {
			return lf.Lit{V: l.V + 1}, true
		}
		return nil, false
	}
	for name, f := range map[string]func(lf.Term) (lf.Term, bool){
		"andi swapped": swapAndI, "literal changed": bumpLit,
	} {
		bad, ok := rewriteFirst(term, f)
		if !ok {
			t.Fatalf("%s: the proof has no such node", name)
		}
		if err := checkImp(base, bad, goal); err == nil {
			t.Errorf("%s: tampered proof accepted", name)
		}
	}
}

// TestNegotiationLFAcceptsProvableImplications: every pre- and
// postcondition implication the prover proves among the shipped
// policies and header-only passes the LF check negotiation makes.
func TestNegotiationLFAcceptsProvableImplications(t *testing.T) {
	pols := []*policy.Policy{
		policy.PacketFilter(), policy.ResourceAccess(), policy.Semaphore(),
		policy.SFISegment(), headerOnly(),
	}
	proved := 0
	for _, a := range pols {
		for _, b := range pols {
			for _, imp := range [][2]logic.Pred{{a.Pre, b.Pre}, {b.Post, a.Post}} {
				goal, term, ok := impProof(t, imp[0], imp[1])
				if !ok {
					continue
				}
				proved++
				if err := checkImp(a, term, goal); err != nil {
					t.Errorf("%s vs %s: LF refused the prover's proof of %s: %v", a.Name, b.Name, goal, err)
				}
			}
		}
	}
	t.Logf("%d provable implications, all accepted", proved)
	if proved < len(pols)*2 {
		t.Fatalf("only %d implications proved; each policy implies itself", proved)
	}
}
