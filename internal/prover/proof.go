// Package prover implements the certification side of PCC: natural-
// deduction proof terms for the safety-predicate logic, the automatic
// theorem prover that certifies the paper's programs, the encoder of
// its proofs into LF objects, and an independent proof checker used as
// a testing oracle. The axiom schemas of the proof system ℒ are
// logic.Axioms plus those a policy publishes.
//
// The consumer validates the encoded proofs by LF type checking alone
// (internal/lf), exactly as in §2.3: package lf does not import this
// one. The checker here exists so the repository has two independent
// validators to test against each other.
package prover

import (
	"fmt"

	"repro/internal/logic"
)

// Proof is a natural-deduction proof term.
type Proof interface {
	isProof()
	// Size returns the number of proof nodes (used for Table 1's
	// proof-size accounting and growth tests).
	Size() int
}

// Hyp references a hypothesis in scope, introduced by ImpI.
type Hyp struct{ Name string }

// TrueI proves true.
type TrueI struct{}

// AndI proves P ∧ Q from proofs of P and Q.
type AndI struct{ P, Q Proof }

// AndEL extracts the left conjunct.
type AndEL struct{ P Proof }

// AndER extracts the right conjunct.
type AndER struct{ P Proof }

// ImpI proves A ⇒ B by deriving B under hypothesis Name : A.
type ImpI struct {
	Name string
	Ante logic.Pred
	Body Proof
}

// ImpE is modus ponens: from A ⇒ B and A, conclude B.
type ImpE struct{ PQ, P Proof }

// AllI proves ∀v. P by proving P for a fresh v.
type AllI struct {
	Var  string
	Body Proof
}

// AllE instantiates ∀v. P at the expression Inst.
type AllE struct {
	All  Proof
	Inst logic.Expr
}

// Ground proves a closed predicate by two's-complement evaluation —
// the paper's "predicate calculus extended with two's-complement
// integer arithmetic". The checker re-evaluates the predicate.
type Ground struct{ Goal logic.Pred }

// Conv re-types a proof of P as a proof of Q when P and Q have the same
// normal form under the trusted normalizer (see DESIGN.md); this is the
// proof-level face of the paper's built-in arithmetic simplification.
type Conv struct {
	To logic.Pred
	P  Proof
}

// OrIL proves P ∨ Q from a proof of P (the right disjunct is recorded
// for type inference).
type OrIL struct {
	Right logic.Pred
	P     Proof
}

// OrIR proves P ∨ Q from a proof of Q.
type OrIR struct {
	Left logic.Pred
	P    Proof
}

// OrE is case analysis: from P ∨ Q, a proof of R under hypothesis
// Name : P, and a proof of R under Name : Q, conclude R.
type OrE struct {
	Disj  Proof
	Name  string
	Left  Proof
	Right Proof
}

// FalseE is ex falso quodlibet: from a proof of false, conclude Goal.
type FalseE struct {
	Goal logic.Pred
	P    Proof
}

// Axiom instantiates a named axiom schema from the published rule set
// with the given parameter expressions and premise proofs.
type Axiom struct {
	Name  string
	Args  []logic.Expr
	Prems []Proof
}

func (Hyp) isProof()    {}
func (TrueI) isProof()  {}
func (AndI) isProof()   {}
func (AndEL) isProof()  {}
func (AndER) isProof()  {}
func (ImpI) isProof()   {}
func (ImpE) isProof()   {}
func (AllI) isProof()   {}
func (AllE) isProof()   {}
func (Ground) isProof() {}
func (Conv) isProof()   {}
func (OrIL) isProof()   {}
func (OrIR) isProof()   {}
func (OrE) isProof()    {}
func (FalseE) isProof() {}
func (Axiom) isProof()  {}

func (Hyp) Size() int      { return 1 }
func (TrueI) Size() int    { return 1 }
func (p AndI) Size() int   { return 1 + p.P.Size() + p.Q.Size() }
func (p AndEL) Size() int  { return 1 + p.P.Size() }
func (p AndER) Size() int  { return 1 + p.P.Size() }
func (p ImpI) Size() int   { return 1 + p.Body.Size() }
func (p ImpE) Size() int   { return 1 + p.PQ.Size() + p.P.Size() }
func (p AllI) Size() int   { return 1 + p.Body.Size() }
func (p AllE) Size() int   { return 1 + p.All.Size() }
func (Ground) Size() int   { return 1 }
func (p Conv) Size() int   { return 1 + p.P.Size() }
func (p OrIL) Size() int   { return 1 + p.P.Size() }
func (p OrIR) Size() int   { return 1 + p.P.Size() }
func (p OrE) Size() int    { return 1 + p.Disj.Size() + p.Left.Size() + p.Right.Size() }
func (p FalseE) Size() int { return 1 + p.P.Size() }
func (p Axiom) Size() int {
	n := 1
	for _, q := range p.Prems {
		n += q.Size()
	}
	return n
}

// CheckError reports a proof that fails to check.
type CheckError struct{ Msg string }

// Error implements the error interface.
func (e *CheckError) Error() string { return "prover: " + e.Msg }

func checkErr(format string, args ...interface{}) error {
	return &CheckError{fmt.Sprintf(format, args...)}
}

// Check verifies that proof establishes goal (up to normalization),
// using the base rule set. It is used in tests as an oracle
// independent of the LF checker.
func Check(proof Proof, goal logic.Pred) error {
	got, err := infer(proof, map[string]logic.Pred{}, nil)
	if err != nil {
		return err
	}
	if !normAlphaEq(got, goal) {
		return checkErr("proved %s, wanted %s", got, goal)
	}
	return nil
}

func normAlphaEq(a, b logic.Pred) bool {
	return logic.AlphaEqual(logic.NormPred(a), logic.NormPred(b))
}

// infer computes the predicate proved by a proof term under the
// hypothesis context and axiom set.
func infer(p Proof, ctx map[string]logic.Pred, extra map[string]*logic.Schema) (logic.Pred, error) {
	switch p := p.(type) {
	case Hyp:
		h, ok := ctx[p.Name]
		if !ok {
			return nil, checkErr("unbound hypothesis %q", p.Name)
		}
		return h, nil
	case TrueI:
		return logic.True, nil
	case AndI:
		l, err := infer(p.P, ctx, extra)
		if err != nil {
			return nil, err
		}
		r, err := infer(p.Q, ctx, extra)
		if err != nil {
			return nil, err
		}
		return logic.And{L: l, R: r}, nil
	case AndEL:
		q, err := infer(p.P, ctx, extra)
		if err != nil {
			return nil, err
		}
		and, ok := q.(logic.And)
		if !ok {
			return nil, checkErr("and_el on non-conjunction %s", q)
		}
		return and.L, nil
	case AndER:
		q, err := infer(p.P, ctx, extra)
		if err != nil {
			return nil, err
		}
		and, ok := q.(logic.And)
		if !ok {
			return nil, checkErr("and_er on non-conjunction %s", q)
		}
		return and.R, nil
	case ImpI:
		if _, dup := ctx[p.Name]; dup {
			return nil, checkErr("hypothesis %q shadows an existing one", p.Name)
		}
		inner := make(map[string]logic.Pred, len(ctx)+1)
		for k, v := range ctx {
			inner[k] = v
		}
		inner[p.Name] = p.Ante
		body, err := infer(p.Body, inner, extra)
		if err != nil {
			return nil, err
		}
		return logic.Imp{L: p.Ante, R: body}, nil
	case ImpE:
		q, err := infer(p.PQ, ctx, extra)
		if err != nil {
			return nil, err
		}
		imp, ok := q.(logic.Imp)
		if !ok {
			return nil, checkErr("imp_e on non-implication %s", q)
		}
		arg, err := infer(p.P, ctx, extra)
		if err != nil {
			return nil, err
		}
		if !logic.PredEqual(arg, imp.L) {
			return nil, checkErr("imp_e argument %s does not match antecedent %s", arg, imp.L)
		}
		return imp.R, nil
	case AllI:
		// Eigenvariable condition: the bound variable must not occur
		// free in any hypothesis in scope.
		for name, h := range ctx {
			if logic.FreeVars(h)[p.Var] {
				return nil, checkErr("all_i violates freshness: %s free in hypothesis %q", p.Var, name)
			}
		}
		body, err := infer(p.Body, ctx, extra)
		if err != nil {
			return nil, err
		}
		return logic.Forall{Var: p.Var, Body: body}, nil
	case AllE:
		q, err := infer(p.All, ctx, extra)
		if err != nil {
			return nil, err
		}
		fa, ok := q.(logic.Forall)
		if !ok {
			return nil, checkErr("all_e on non-universal %s", q)
		}
		return logic.Subst(fa.Body, fa.Var, p.Inst), nil
	case Ground:
		v, ok := logic.EvalPred(p.Goal, map[string]uint64{})
		if !ok {
			return nil, checkErr("ground proof of non-ground predicate %s", p.Goal)
		}
		if !v {
			return nil, checkErr("ground predicate %s is false", p.Goal)
		}
		return p.Goal, nil
	case Conv:
		from, err := infer(p.P, ctx, extra)
		if err != nil {
			return nil, err
		}
		if !normAlphaEq(from, p.To) {
			return nil, checkErr("conv between non-convertible %s and %s", from, p.To)
		}
		return p.To, nil
	case OrIL:
		l, err := infer(p.P, ctx, extra)
		if err != nil {
			return nil, err
		}
		return logic.Or{L: l, R: p.Right}, nil
	case OrIR:
		r, err := infer(p.P, ctx, extra)
		if err != nil {
			return nil, err
		}
		return logic.Or{L: p.Left, R: r}, nil
	case OrE:
		d, err := infer(p.Disj, ctx, extra)
		if err != nil {
			return nil, err
		}
		or, ok := d.(logic.Or)
		if !ok {
			return nil, checkErr("or_e on non-disjunction %s", d)
		}
		if _, dup := ctx[p.Name]; dup {
			return nil, checkErr("hypothesis %q shadows an existing one", p.Name)
		}
		withHyp := func(h logic.Pred, body Proof) (logic.Pred, error) {
			inner := make(map[string]logic.Pred, len(ctx)+1)
			for k, v := range ctx {
				inner[k] = v
			}
			inner[p.Name] = h
			return infer(body, inner, extra)
		}
		l, err := withHyp(or.L, p.Left)
		if err != nil {
			return nil, err
		}
		r, err := withHyp(or.R, p.Right)
		if err != nil {
			return nil, err
		}
		if !logic.PredEqual(l, r) {
			return nil, checkErr("or_e branches prove different predicates: %s vs %s", l, r)
		}
		return l, nil
	case FalseE:
		q, err := infer(p.P, ctx, extra)
		if err != nil {
			return nil, err
		}
		if !logic.PredEqual(q, logic.False) {
			return nil, checkErr("false_e over non-false %s", q)
		}
		return p.Goal, nil
	case Axiom:
		s, ok := logic.LookupAxiom(p.Name, extra)
		if !ok {
			return nil, checkErr("unknown axiom %q", p.Name)
		}
		if len(p.Args) != len(s.Params) {
			return nil, checkErr("axiom %q wants %d args, got %d", p.Name, len(s.Params), len(p.Args))
		}
		if len(p.Prems) != len(s.Prems) {
			return nil, checkErr("axiom %q wants %d premises, got %d", p.Name, len(s.Prems), len(p.Prems))
		}
		for i, want := range s.Prems {
			wantInst := s.Instantiate(want, p.Args)
			got, err := infer(p.Prems[i], ctx, extra)
			if err != nil {
				return nil, err
			}
			if !logic.PredEqual(got, wantInst) {
				return nil, checkErr("axiom %q premise %d: got %s, want %s", p.Name, i, got, wantInst)
			}
		}
		return s.Instantiate(s.Concl, p.Args), nil
	}
	return nil, checkErr("unknown proof node %T", p)
}

// Infer exposes type inference over closed proofs (used by tests).
func Infer(p Proof) (logic.Pred, error) { return infer(p, map[string]logic.Pred{}, nil) }
