package lf_test

import (
	"testing"

	"repro/internal/alpha"
	"repro/internal/lf"
	"repro/internal/logic"
	"repro/internal/policy"
	"repro/internal/prover"
	"repro/internal/vcgen"
)

// The tests here build proofs with the prover, which imports package
// lf, so they live in the external test package.

func init() { lf.CertifyLF = certifyLF }

func certifyLF(t *testing.T, src string, pol *policy.Policy) (lf.Term, logic.Pred) {
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
	term, err := prover.EncodeProof(proof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := lf.ValidateProof(lf.NewChecker(lf.NewSignature()), term, res.SP); err != nil {
		t.Fatalf("LF validation failed: %v", err)
	}
	return term, res.SP
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
	term, err := prover.EncodeProof(proof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := lf.ValidateProof(lf.NewChecker(lf.NewSignature()), term, goal); err != nil {
		t.Fatalf("LF validation of or-proof failed: %v", err)
	}
}

func TestFalseEProofValidatesThroughLF(t *testing.T) {
	goal := logic.All("r0", logic.Implies(logic.False, logic.WrP(logic.V("r0"))))
	proof, err := prover.Prove(goal)
	if err != nil {
		t.Fatal(err)
	}
	term, err := prover.EncodeProof(proof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := lf.ValidateProof(lf.NewChecker(lf.NewSignature()), term, goal); err != nil {
		t.Fatalf("LF validation of false_e proof failed: %v", err)
	}
}
