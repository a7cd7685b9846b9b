package prover

import (
	"fmt"

	"repro/internal/lf"
	"repro/internal/logic"
)

// EncodeProof encodes a closed natural-deduction proof into an LF
// object whose type is pf(goal) for the predicate the proof proves.
// extra holds the policy-published axiom schemas the proof may use
// (nil for the core rule set alone).
func EncodeProof(p Proof, extra map[string]*logic.Schema) (lf.Term, error) {
	enc := &encoder{hyps: map[string]logic.Pred{}, extra: extra}
	return enc.proof(p)
}

// encoder carries the state of proof encoding: the hypothesis context
// for predicate inference, the axiom set, and the names of the LF
// binders in scope, outermost first. A hypothesis h is bound under the
// name "hyp$h", which no logic variable can take.
type encoder struct {
	hyps  map[string]logic.Pred
	extra map[string]*logic.Schema
	scope []string
}

func (enc *encoder) pred(p logic.Pred) (lf.Term, error) { return lf.EncodePredIn(p, enc.scope) }

func (enc *encoder) expr(e logic.Expr) (lf.Term, error) { return lf.EncodeExprIn(e, enc.scope) }

// under runs f with one more LF binder, named name, in scope.
func (enc *encoder) under(name string, f func() (lf.Term, error)) (lf.Term, error) {
	enc.scope = append(enc.scope, name)
	defer func() { enc.scope = enc.scope[:len(enc.scope)-1] }()
	return f()
}

// withHyp runs f with hypothesis name : h in the context.
func (enc *encoder) withHyp(name string, h logic.Pred, f func() (lf.Term, error)) (lf.Term, error) {
	enc.hyps[name] = h
	defer delete(enc.hyps, name)
	return f()
}

// typeOf infers the predicate proved by a sub-proof under the current
// hypothesis context.
func (enc *encoder) typeOf(p Proof) (logic.Pred, error) { return infer(p, enc.hyps, enc.extra) }

func konst(name string) lf.Term { return lf.Konst{Name: name} }

func (enc *encoder) proof(p Proof) (lf.Term, error) {
	switch p := p.(type) {
	case Hyp:
		return enc.expr(logic.V("hyp$" + p.Name))

	case TrueI:
		return konst(lf.CTrueI), nil

	case AndI:
		a, err := enc.typeOf(p.P)
		if err != nil {
			return nil, err
		}
		b, err := enc.typeOf(p.Q)
		if err != nil {
			return nil, err
		}
		return enc.rule(lf.CAndI, a, b, p.P, p.Q)

	case AndEL:
		return enc.andElim(lf.CAndEL, p.P)

	case AndER:
		return enc.andElim(lf.CAndER, p.P)

	case ImpI:
		aT, err := enc.pred(p.Ante)
		if err != nil {
			return nil, err
		}
		body, err := enc.withHyp(p.Name, p.Ante, func() (lf.Term, error) {
			return enc.under("hyp$"+p.Name, func() (lf.Term, error) { return enc.proof(p.Body) })
		})
		if err != nil {
			return nil, err
		}
		enc.hyps[p.Name] = p.Ante
		bPred, err := enc.typeOf(p.Body)
		delete(enc.hyps, p.Name)
		if err != nil {
			return nil, err
		}
		bT, err := enc.pred(bPred)
		if err != nil {
			return nil, err
		}
		hypTy := lf.App{F: konst(lf.CPf), X: aT}
		return lf.Apply(konst(lf.CImpI), aT, bT, lf.Lam{A: hypTy, M: body}), nil

	case ImpE:
		q, err := enc.typeOf(p.PQ)
		if err != nil {
			return nil, err
		}
		imp, ok := q.(logic.Imp)
		if !ok {
			return nil, fmt.Errorf("prover: encode: imp_e over non-implication")
		}
		return enc.rule(lf.CImpE, imp.L, imp.R, p.PQ, p.P)

	case AllI:
		bodyPred, err := enc.typeOf(p.Body)
		if err != nil {
			return nil, err
		}
		var f lf.Term
		body, err := enc.under(p.Var, func() (lf.Term, error) {
			fBody, err := enc.pred(bodyPred)
			if err != nil {
				return nil, err
			}
			f = lf.Lam{A: konst(lf.CExp), M: fBody}
			return enc.proof(p.Body)
		})
		if err != nil {
			return nil, err
		}
		return lf.Apply(konst(lf.CAllI), f, lf.Lam{A: konst(lf.CExp), M: body}), nil

	case AllE:
		q, err := enc.typeOf(p.All)
		if err != nil {
			return nil, err
		}
		fa, ok := q.(logic.Forall)
		if !ok {
			return nil, fmt.Errorf("prover: encode: all_e over non-universal")
		}
		fBody, err := enc.under(fa.Var, func() (lf.Term, error) { return enc.pred(fa.Body) })
		if err != nil {
			return nil, err
		}
		e, err := enc.expr(p.Inst)
		if err != nil {
			return nil, err
		}
		all, err := enc.proof(p.All)
		if err != nil {
			return nil, err
		}
		return lf.Apply(konst(lf.CAllE), lf.Lam{A: konst(lf.CExp), M: fBody}, e, all), nil

	case OrIL:
		lPred, err := enc.typeOf(p.P)
		if err != nil {
			return nil, err
		}
		return enc.orIntro(lf.COrIL, lPred, p.Right, p.P)

	case OrIR:
		rPred, err := enc.typeOf(p.P)
		if err != nil {
			return nil, err
		}
		return enc.orIntro(lf.COrIR, p.Left, rPred, p.P)

	case OrE:
		dPred, err := enc.typeOf(p.Disj)
		if err != nil {
			return nil, err
		}
		or, ok := dPred.(logic.Or)
		if !ok {
			return nil, fmt.Errorf("prover: encode: or_e over non-disjunction")
		}
		enc.hyps[p.Name] = or.L
		rPred, err := enc.typeOf(p.Left)
		delete(enc.hyps, p.Name)
		if err != nil {
			return nil, err
		}
		lT, err := enc.pred(or.L)
		if err != nil {
			return nil, err
		}
		rT, err := enc.pred(or.R)
		if err != nil {
			return nil, err
		}
		goalT, err := enc.pred(rPred)
		if err != nil {
			return nil, err
		}
		dT, err := enc.proof(p.Disj)
		if err != nil {
			return nil, err
		}
		branch := func(h logic.Pred, hT lf.Term, body Proof) (lf.Term, error) {
			b, err := enc.withHyp(p.Name, h, func() (lf.Term, error) {
				return enc.under("hyp$"+p.Name, func() (lf.Term, error) { return enc.proof(body) })
			})
			if err != nil {
				return nil, err
			}
			return lf.Lam{A: lf.App{F: konst(lf.CPf), X: hT}, M: b}, nil
		}
		lBranch, err := branch(or.L, lT, p.Left)
		if err != nil {
			return nil, err
		}
		rBranch, err := branch(or.R, rT, p.Right)
		if err != nil {
			return nil, err
		}
		return lf.Apply(konst(lf.COrE), lT, rT, goalT, dT, lBranch, rBranch), nil

	case FalseE:
		gT, err := enc.pred(p.Goal)
		if err != nil {
			return nil, err
		}
		inner, err := enc.proof(p.P)
		if err != nil {
			return nil, err
		}
		return lf.Apply(konst(lf.CFalseE), gT, inner), nil

	case Ground:
		g, err := enc.pred(p.Goal)
		if err != nil {
			return nil, err
		}
		return lf.Apply(konst(lf.CGArith), g, lf.App{F: konst(lf.CGr), X: g}), nil

	case Conv:
		fromPred, err := enc.typeOf(p.P)
		if err != nil {
			return nil, err
		}
		from, err := enc.pred(fromPred)
		if err != nil {
			return nil, err
		}
		to, err := enc.pred(p.To)
		if err != nil {
			return nil, err
		}
		inner, err := enc.proof(p.P)
		if err != nil {
			return nil, err
		}
		return lf.Apply(konst(lf.CConvP), from, to,
			lf.Apply(konst(lf.CNrm), from, to), inner), nil

	case Axiom:
		sc, ok := logic.LookupAxiom(p.Name, enc.extra)
		if !ok {
			return nil, fmt.Errorf("prover: encode: unknown axiom %q", p.Name)
		}
		if len(p.Args) != len(sc.Params) || len(p.Prems) != len(sc.Prems) {
			return nil, fmt.Errorf("prover: encode: axiom %q arity mismatch", p.Name)
		}
		out := konst(p.Name)
		for _, a := range p.Args {
			e, err := enc.expr(a)
			if err != nil {
				return nil, err
			}
			out = lf.App{F: out, X: e}
		}
		for _, prem := range p.Prems {
			q, err := enc.proof(prem)
			if err != nil {
				return nil, err
			}
			out = lf.App{F: out, X: q}
		}
		return out, nil
	}
	return nil, fmt.Errorf("prover: encode: cannot encode proof node %T", p)
}

// andElim emits c A B q for a conjunction elimination from q : A ∧ B.
func (enc *encoder) andElim(c string, q Proof) (lf.Term, error) {
	qPred, err := enc.typeOf(q)
	if err != nil {
		return nil, err
	}
	and, ok := qPred.(logic.And)
	if !ok {
		return nil, fmt.Errorf("prover: encode: %s over non-conjunction", c)
	}
	return enc.rule(c, and.L, and.R, q)
}

// orIntro emits c A B q for a disjunction introduction of A ∨ B.
func (enc *encoder) orIntro(c string, l, r logic.Pred, q Proof) (lf.Term, error) {
	lT, err := enc.pred(l)
	if err != nil {
		return nil, err
	}
	rT, err := enc.pred(r)
	if err != nil {
		return nil, err
	}
	inner, err := enc.proof(q)
	if err != nil {
		return nil, err
	}
	return lf.Apply(konst(c), lT, rT, inner), nil
}

// rule emits c A B q1 … qn for a rule with two predicate parameters
// and n proof arguments.
func (enc *encoder) rule(c string, a, b logic.Pred, qs ...Proof) (lf.Term, error) {
	aT, err := enc.pred(a)
	if err != nil {
		return nil, err
	}
	bT, err := enc.pred(b)
	if err != nil {
		return nil, err
	}
	out := lf.Apply(konst(c), aT, bT)
	for _, q := range qs {
		qT, err := enc.proof(q)
		if err != nil {
			return nil, err
		}
		out = lf.App{F: out, X: qT}
	}
	return out, nil
}
