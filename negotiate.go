package pcc

import (
	"fmt"

	"repro/internal/lf"
	"repro/internal/logic"
	"repro/internal/policy"
	"repro/internal/prover"
	"repro/internal/vcgen"
)

// NegotiatePolicy implements the §4 "negotiate a safety policy at run
// time" direction: a code producer proposes a policy of its own (for
// instance, one with a weaker precondition tailored to a new language
// it wants to ship code in), and the consumer accepts it only after
// determining that the proposed policy implies its own basic notion of
// safety.
//
// Soundness argument: a binary certified under `proposed` is
// guaranteed safe whenever started in a state satisfying proposed.Pre
// and, on termination, establishes proposed.Post. The consumer only
// ever starts extensions in states satisfying base.Pre and relies on
// base.Post afterwards. It is therefore sufficient to prove, over the
// published rules,
//
//	∀state. base.Pre ⇒ proposed.Pre      (the producer may assume less)
//	∀state. proposed.Post ⇒ base.Post    (and must guarantee no less)
//
// The consumer's prover looks for each proof; the LF checker, the same
// one that validates binaries, decides it under base's signature. The
// prover is thus outside the trusted base here too: a wrong proof it
// found would be refused. On success the consumer may validate
// binaries against the proposed policy; rejection returns the sub-goal
// the prover got stuck on, or the LF checker's error.
func NegotiatePolicy(base, proposed *policy.Policy) error {
	// Proposed proof rules must be machine-checkable: every schema is
	// vetted against the 64-bit model before the consumer will publish
	// it. Schemas over the uninterpreted rd/wr/sel symbols cannot be
	// machine-vetted and are refused in negotiation (the consumer may
	// still adopt such rules deliberately, outside this protocol).
	if len(proposed.Axioms) > 0 {
		if err := VetAxioms(proposed.Axioms, 20000); err != nil {
			return fmt.Errorf("pcc: negotiation: %w", err)
		}
		for _, sc := range proposed.Axioms {
			if !schemaEvaluable(sc) {
				return fmt.Errorf(
					"pcc: negotiation: axiom %q is not machine-checkable (uninterpreted symbols)",
					sc.Name)
			}
		}
	}
	if err := negotiateImp(base, base.Pre, proposed.Pre); err != nil {
		return fmt.Errorf("pcc: negotiation: proposed precondition not implied by %q's: %w",
			base.Name, err)
	}
	if err := negotiateImp(base, proposed.Post, base.Post); err != nil {
		return fmt.Errorf("pcc: negotiation: proposed postcondition does not imply %q's: %w",
			base.Name, err)
	}
	return nil
}

// schemaEvaluable reports whether every part of the schema is
// ground-evaluable (so vetting actually exercised it).
func schemaEvaluable(s *logic.Schema) bool {
	env := map[string]uint64{}
	for _, p := range s.Params {
		env[p] = 1
	}
	if _, ok := logic.EvalPred(s.Concl, env); !ok {
		return false
	}
	for _, prem := range s.Prems {
		if _, ok := logic.EvalPred(prem, env); !ok {
			return false
		}
	}
	return true
}

// negotiateImp finds a proof of ∀regs. from ⇒ to with the prover and
// lets the LF checker decide it, under base's signature.
func negotiateImp(base *policy.Policy, from, to logic.Pred) error {
	goal := logic.NormPred(logic.AllOf(vcgen.RegNames(), logic.Implies(from, to)))
	proof, err := prover.Prove(goal)
	if err != nil {
		return err
	}
	term, err := prover.EncodeProof(prover.Simplify(proof), nil)
	if err != nil {
		return err
	}
	return checkImp(base, term, goal)
}

// checkImp is negotiation's verdict: term must be an LF proof of goal
// under base's signature, within the default step and depth budgets.
func checkImp(base *policy.Policy, term lf.Term, goal logic.Pred) error {
	lim := DefaultLimits()
	c := lf.NewChecker(signatureFor(base))
	c.MaxSteps, c.MaxDepth = lim.MaxCheckSteps, lim.MaxTermDepth
	return lf.ValidateProof(c, term, goal)
}
