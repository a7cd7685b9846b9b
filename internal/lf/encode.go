package lf

import (
	"fmt"

	"repro/internal/logic"
)

// varResolver maps a free logic variable name to an LF term, given the
// current binder depth.
type varResolver func(name string, depth int) (Term, error)

// encodeExprWith encodes a logic expression at the given binder depth.
func encodeExprWith(e logic.Expr, resolve varResolver, depth int) (Term, error) {
	switch e := e.(type) {
	case logic.Const:
		return App{Konst{CCst}, Lit{e.Val}}, nil
	case logic.Var:
		return resolve(e.Name, depth)
	case logic.Bin:
		l, err := encodeExprWith(e.L, resolve, depth)
		if err != nil {
			return nil, err
		}
		r, err := encodeExprWith(e.R, resolve, depth)
		if err != nil {
			return nil, err
		}
		return Apply(Konst{BinOpConst(e.Op)}, l, r), nil
	case logic.Sel:
		m, err := encodeExprWith(e.Mem, resolve, depth)
		if err != nil {
			return nil, err
		}
		a, err := encodeExprWith(e.Addr, resolve, depth)
		if err != nil {
			return nil, err
		}
		return Apply(Konst{CSel}, m, a), nil
	case logic.Upd:
		m, err := encodeExprWith(e.Mem, resolve, depth)
		if err != nil {
			return nil, err
		}
		a, err := encodeExprWith(e.Addr, resolve, depth)
		if err != nil {
			return nil, err
		}
		v, err := encodeExprWith(e.Val, resolve, depth)
		if err != nil {
			return nil, err
		}
		return Apply(Konst{CUpd}, m, a, v), nil
	}
	return nil, fmt.Errorf("lf: cannot encode expression %T", e)
}

// encodePredWith encodes a logic predicate at the given binder depth.
func encodePredWith(p logic.Pred, resolve varResolver, depth int) Term {
	t, err := encodePredWithErr(p, resolve, depth)
	if err != nil {
		panic(err) // signature building uses known-closed predicates
	}
	return t
}

func encodePredWithErr(p logic.Pred, resolve varResolver, depth int) (Term, error) {
	switch p := p.(type) {
	case logic.TruePred:
		return Konst{CTT}, nil
	case logic.FalsePred:
		return Konst{CFF}, nil
	case logic.Cmp:
		l, err := encodeExprWith(p.L, resolve, depth)
		if err != nil {
			return nil, err
		}
		r, err := encodeExprWith(p.R, resolve, depth)
		if err != nil {
			return nil, err
		}
		return Apply(Konst{CmpOpConst(p.Op)}, l, r), nil
	case logic.Rd:
		a, err := encodeExprWith(p.Addr, resolve, depth)
		if err != nil {
			return nil, err
		}
		return App{Konst{CRd}, a}, nil
	case logic.Wr:
		a, err := encodeExprWith(p.Addr, resolve, depth)
		if err != nil {
			return nil, err
		}
		return App{Konst{CWr}, a}, nil
	case logic.And:
		return encodeBinPred(CAnd, p.L, p.R, resolve, depth)
	case logic.Or:
		return encodeBinPred(COr, p.L, p.R, resolve, depth)
	case logic.Imp:
		return encodeBinPred(CImp, p.L, p.R, resolve, depth)
	case logic.Forall:
		inner := bindVar(resolve, p.Var, depth)
		body, err := encodePredWithErr(p.Body, inner, depth+1)
		if err != nil {
			return nil, err
		}
		return App{Konst{CForall}, Lam{Konst{CExp}, body}}, nil
	}
	return nil, fmt.Errorf("lf: cannot encode predicate %T", p)
}

func encodeBinPred(c string, l, r logic.Pred, resolve varResolver, depth int) (Term, error) {
	lt, err := encodePredWithErr(l, resolve, depth)
	if err != nil {
		return nil, err
	}
	rt, err := encodePredWithErr(r, resolve, depth)
	if err != nil {
		return nil, err
	}
	return Apply(Konst{c}, lt, rt), nil
}

// bindVar extends a resolver with a variable bound at binder level
// `level` (the depth at which the binder was introduced).
func bindVar(resolve varResolver, name string, level int) varResolver {
	return func(n string, depth int) (Term, error) {
		if n == name {
			return Bound{depth - level - 1}, nil
		}
		return resolve(n, depth)
	}
}

func closedResolver(name string, depth int) (Term, error) {
	return nil, fmt.Errorf("lf: free variable %q in closed encoding", name)
}

// EncodePredIn encodes p under LF binders named by scope, outermost
// first: a free variable of p becomes the de Bruijn index of the
// innermost binder of its name, and one that no binder names is an
// error. The proof encoder (internal/prover) encodes the predicates
// and expressions its proof terms carry with it and EncodeExprIn.
func EncodePredIn(p logic.Pred, scope []string) (Term, error) {
	return encodePredWithErr(p, scopeResolver(scope), len(scope))
}

// EncodeExprIn is EncodePredIn for an expression.
func EncodeExprIn(e logic.Expr, scope []string) (Term, error) {
	return encodeExprWith(e, scopeResolver(scope), len(scope))
}

func scopeResolver(scope []string) varResolver {
	return func(name string, depth int) (Term, error) {
		for level := len(scope) - 1; level >= 0; level-- {
			if scope[level] == name {
				return Bound{depth - level - 1}, nil
			}
		}
		return closedResolver(name, depth)
	}
}

// EncodePred encodes a closed predicate (e.g. a safety predicate).
func EncodePred(p logic.Pred) (Term, error) {
	return encodePredWithErr(p, closedResolver, 0)
}

var stateVarSet = func() map[string]bool {
	m := map[string]bool{}
	for _, v := range StateVars {
		m[v] = true
	}
	return m
}()

// stateResolver maps machine-state variables to their signature
// constants; any other free variable is an error.
func stateResolver(name string, depth int) (Term, error) {
	if stateVarSet[name] {
		return Konst{"reg_" + name}, nil
	}
	return nil, fmt.Errorf("lf: free variable %q in state predicate", name)
}

// EncodeStatePred encodes a predicate over the machine state (free in
// r0..r10 and rm), as loop invariants are.
func EncodeStatePred(p logic.Pred) (Term, error) {
	return encodePredWithErr(p, stateResolver, 0)
}
