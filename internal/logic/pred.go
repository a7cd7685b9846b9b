package logic

import (
	"fmt"
	"sort"
)

// CmpOp identifies an atomic comparison predicate between machine words.
type CmpOp uint8

// Comparison predicates. Unsigned orderings are the ones the packet
// filter policy uses; the signed ordering supports BGE/BLT branches.
const (
	CmpEq  CmpOp = iota // equality
	CmpNe               // disequality
	CmpUlt              // unsigned less-than
	CmpUle              // unsigned less-or-equal
	CmpSlt              // signed less-than
	CmpSle              // signed less-or-equal
)

var cmpOpNames = [...]string{
	CmpEq: "=", CmpNe: "<>", CmpUlt: "<", CmpUle: "<=", CmpSlt: "<s", CmpSle: "<=s",
}

// String returns the conventional spelling of the comparison.
func (op CmpOp) String() string {
	if int(op) < len(cmpOpNames) {
		return cmpOpNames[op]
	}
	return fmt.Sprintf("cmpop(%d)", uint8(op))
}

// Eval applies the comparison to two concrete machine words.
func (op CmpOp) Eval(a, b uint64) bool {
	switch op {
	case CmpEq:
		return a == b
	case CmpNe:
		return a != b
	case CmpUlt:
		return a < b
	case CmpUle:
		return a <= b
	case CmpSlt:
		return int64(a) < int64(b)
	case CmpSle:
		return int64(a) <= int64(b)
	}
	panic(fmt.Sprintf("logic: unknown cmpop %d", op))
}

// NegateCmp returns the atomic comparison logically equivalent to the
// negation of c. For the orderings this swaps operands:
// ¬(a <u b) ⇔ (b ≤u a).
func NegateCmp(c Cmp) Cmp {
	switch c.Op {
	case CmpEq:
		return Cmp{CmpNe, c.L, c.R}
	case CmpNe:
		return Cmp{CmpEq, c.L, c.R}
	case CmpUlt:
		return Cmp{CmpUle, c.R, c.L}
	case CmpUle:
		return Cmp{CmpUlt, c.R, c.L}
	case CmpSlt:
		return Cmp{CmpSle, c.R, c.L}
	case CmpSle:
		return Cmp{CmpSlt, c.R, c.L}
	}
	panic(fmt.Sprintf("logic: unknown cmpop %d", c.Op))
}

// Pred is a first-order predicate over machine states.
type Pred interface {
	isPred()
	// String renders the predicate in a human-readable syntax.
	String() string
}

// TruePred is the always-true predicate (the paper's postcondition for
// every packet filter).
type TruePred struct{}

// FalsePred is the always-false predicate.
type FalsePred struct{}

// Cmp is an atomic comparison between two word expressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Rd asserts that the 64-bit word at the given address may be safely
// read (which on the Alpha implies 8-byte alignment).
type Rd struct{ Addr Expr }

// Wr asserts that the 64-bit word at the given address may be safely
// read or written.
type Wr struct{ Addr Expr }

// And is conjunction.
type And struct{ L, R Pred }

// Or is disjunction.
type Or struct{ L, R Pred }

// Imp is implication.
type Imp struct{ L, R Pred }

// Forall is universal quantification over a machine word.
type Forall struct {
	Var  string
	Body Pred
}

func (TruePred) isPred()  {}
func (FalsePred) isPred() {}
func (Cmp) isPred()       {}
func (Rd) isPred()        {}
func (Wr) isPred()        {}
func (And) isPred()       {}
func (Or) isPred()        {}
func (Imp) isPred()       {}
func (Forall) isPred()    {}

func (TruePred) String() string  { return "true" }
func (FalsePred) String() string { return "false" }
func (c Cmp) String() string     { return predString(c) }
func (r Rd) String() string      { return predString(r) }
func (w Wr) String() string      { return predString(w) }
func (a And) String() string     { return predString(a) }
func (o Or) String() string      { return predString(o) }
func (i Imp) String() string     { return predString(i) }
func (f Forall) String() string  { return predString(f) }

// Convenience constructors.

// True is the always-true predicate.
var True Pred = TruePred{}

// False is the always-false predicate.
var False Pred = FalsePred{}

// Eq returns l = r.
func Eq(l, r Expr) Pred { return Cmp{CmpEq, l, r} }

// Ne returns l ≠ r.
func Ne(l, r Expr) Pred { return Cmp{CmpNe, l, r} }

// Ult returns l <u r.
func Ult(l, r Expr) Pred { return Cmp{CmpUlt, l, r} }

// Ule returns l ≤u r.
func Ule(l, r Expr) Pred { return Cmp{CmpUle, l, r} }

// Slt returns l <s r (signed).
func Slt(l, r Expr) Pred { return Cmp{CmpSlt, l, r} }

// Sle returns l ≤s r (signed).
func Sle(l, r Expr) Pred { return Cmp{CmpSle, l, r} }

// RdP returns rd(addr).
func RdP(addr Expr) Pred { return Rd{addr} }

// WrP returns wr(addr).
func WrP(addr Expr) Pred { return Wr{addr} }

// Conj returns the right-nested conjunction of the given predicates
// (True for the empty list).
func Conj(ps ...Pred) Pred {
	if len(ps) == 0 {
		return True
	}
	p := ps[len(ps)-1]
	for i := len(ps) - 2; i >= 0; i-- {
		p = And{ps[i], p}
	}
	return p
}

// Implies returns l ⇒ r.
func Implies(l, r Pred) Pred { return Imp{l, r} }

// All returns ∀v. body.
func All(v string, body Pred) Pred { return Forall{v, body} }

// AllOf quantifies body over each variable in vs, left to right.
func AllOf(vs []string, body Pred) Pred {
	for i := len(vs) - 1; i >= 0; i-- {
		body = Forall{vs[i], body}
	}
	return body
}

// PredEqual reports structural equality of two predicates (including
// bound-variable names; use AlphaEqual for equality up to renaming).
func PredEqual(a, b Pred) bool {
	switch a := a.(type) {
	case TruePred:
		_, ok := b.(TruePred)
		return ok
	case FalsePred:
		_, ok := b.(FalsePred)
		return ok
	case Cmp:
		b, ok := b.(Cmp)
		return ok && a.Op == b.Op && ExprEqual(a.L, b.L) && ExprEqual(a.R, b.R)
	case Rd:
		b, ok := b.(Rd)
		return ok && ExprEqual(a.Addr, b.Addr)
	case Wr:
		b, ok := b.(Wr)
		return ok && ExprEqual(a.Addr, b.Addr)
	case And:
		b, ok := b.(And)
		return ok && PredEqual(a.L, b.L) && PredEqual(a.R, b.R)
	case Or:
		b, ok := b.(Or)
		return ok && PredEqual(a.L, b.L) && PredEqual(a.R, b.R)
	case Imp:
		b, ok := b.(Imp)
		return ok && PredEqual(a.L, b.L) && PredEqual(a.R, b.R)
	case Forall:
		b, ok := b.(Forall)
		return ok && a.Var == b.Var && PredEqual(a.Body, b.Body)
	case nil:
		return b == nil
	}
	panic(fmt.Sprintf("logic: unknown pred %T", a))
}

// AlphaEqual reports equality of two predicates up to consistent
// renaming of bound variables.
func AlphaEqual(a, b Pred) bool { return alphaEq(a, b, nil, nil, 0) }

func alphaEq(a, b Pred, la, lb map[string]int, depth int) bool {
	switch a := a.(type) {
	case TruePred:
		_, ok := b.(TruePred)
		return ok
	case FalsePred:
		_, ok := b.(FalsePred)
		return ok
	case Cmp:
		b, ok := b.(Cmp)
		return ok && a.Op == b.Op && alphaEqExpr(a.L, b.L, la, lb) && alphaEqExpr(a.R, b.R, la, lb)
	case Rd:
		b, ok := b.(Rd)
		return ok && alphaEqExpr(a.Addr, b.Addr, la, lb)
	case Wr:
		b, ok := b.(Wr)
		return ok && alphaEqExpr(a.Addr, b.Addr, la, lb)
	case And:
		b, ok := b.(And)
		return ok && alphaEq(a.L, b.L, la, lb, depth) && alphaEq(a.R, b.R, la, lb, depth)
	case Or:
		b, ok := b.(Or)
		return ok && alphaEq(a.L, b.L, la, lb, depth) && alphaEq(a.R, b.R, la, lb, depth)
	case Imp:
		b, ok := b.(Imp)
		return ok && alphaEq(a.L, b.L, la, lb, depth) && alphaEq(a.R, b.R, la, lb, depth)
	case Forall:
		b, ok := b.(Forall)
		if !ok {
			return false
		}
		la2 := extendLevels(la, a.Var, depth)
		lb2 := extendLevels(lb, b.Var, depth)
		return alphaEq(a.Body, b.Body, la2, lb2, depth+1)
	}
	panic(fmt.Sprintf("logic: unknown pred %T", a))
}

func extendLevels(m map[string]int, name string, level int) map[string]int {
	out := make(map[string]int, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	out[name] = level
	return out
}

func alphaEqExpr(a, b Expr, la, lb map[string]int) bool {
	switch a := a.(type) {
	case Const:
		b, ok := b.(Const)
		return ok && a.Val == b.Val
	case Var:
		b, ok := b.(Var)
		if !ok {
			return false
		}
		da, boundA := la[a.Name]
		db, boundB := lb[b.Name]
		if boundA != boundB {
			return false
		}
		if boundA {
			return da == db
		}
		return a.Name == b.Name
	case Bin:
		b, ok := b.(Bin)
		return ok && a.Op == b.Op && alphaEqExpr(a.L, b.L, la, lb) && alphaEqExpr(a.R, b.R, la, lb)
	case Sel:
		b, ok := b.(Sel)
		return ok && alphaEqExpr(a.Mem, b.Mem, la, lb) && alphaEqExpr(a.Addr, b.Addr, la, lb)
	case Upd:
		b, ok := b.(Upd)
		return ok && alphaEqExpr(a.Mem, b.Mem, la, lb) && alphaEqExpr(a.Addr, b.Addr, la, lb) &&
			alphaEqExpr(a.Val, b.Val, la, lb)
	}
	panic(fmt.Sprintf("logic: unknown expr %T", a))
}

// Subst replaces every free occurrence of the variable named v in p with
// repl, renaming bound variables as needed to avoid capture.
func Subst(p Pred, v string, repl Expr) Pred {
	replVars := map[string]bool{}
	ExprVars(repl, replVars)
	return subst(p, v, repl, replVars)
}

func subst(p Pred, v string, repl Expr, replVars map[string]bool) Pred {
	switch p := p.(type) {
	case TruePred, FalsePred:
		return p
	case Cmp:
		return Cmp{p.Op, SubstExpr(p.L, v, repl), SubstExpr(p.R, v, repl)}
	case Rd:
		return Rd{SubstExpr(p.Addr, v, repl)}
	case Wr:
		return Wr{SubstExpr(p.Addr, v, repl)}
	case And:
		return And{subst(p.L, v, repl, replVars), subst(p.R, v, repl, replVars)}
	case Or:
		return Or{subst(p.L, v, repl, replVars), subst(p.R, v, repl, replVars)}
	case Imp:
		return Imp{subst(p.L, v, repl, replVars), subst(p.R, v, repl, replVars)}
	case Forall:
		if p.Var == v {
			return p // v is shadowed; nothing free to replace
		}
		if replVars[p.Var] {
			// Capture: rename the bound variable first.
			free := FreeVars(p.Body)
			fresh := freshName(p.Var, func(n string) bool {
				return replVars[n] || free[n] || n == v
			})
			body := subst(p.Body, p.Var, Var{fresh}, map[string]bool{fresh: true})
			return Forall{fresh, subst(body, v, repl, replVars)}
		}
		return Forall{p.Var, subst(p.Body, v, repl, replVars)}
	}
	panic(fmt.Sprintf("logic: unknown pred %T", p))
}

func freshName(base string, taken func(string) bool) string {
	for i := 1; ; i++ {
		n := fmt.Sprintf("%s'%d", base, i)
		if !taken(n) {
			return n
		}
	}
}

// FreeVars returns the set of free variable names in p.
func FreeVars(p Pred) map[string]bool {
	out := map[string]bool{}
	freeVars(p, map[string]bool{}, out)
	return out
}

func freeVars(p Pred, bound, out map[string]bool) {
	collect := func(e Expr) {
		all := map[string]bool{}
		ExprVars(e, all)
		for n := range all {
			if !bound[n] {
				out[n] = true
			}
		}
	}
	switch p := p.(type) {
	case TruePred, FalsePred:
	case Cmp:
		collect(p.L)
		collect(p.R)
	case Rd:
		collect(p.Addr)
	case Wr:
		collect(p.Addr)
	case And:
		freeVars(p.L, bound, out)
		freeVars(p.R, bound, out)
	case Or:
		freeVars(p.L, bound, out)
		freeVars(p.R, bound, out)
	case Imp:
		freeVars(p.L, bound, out)
		freeVars(p.R, bound, out)
	case Forall:
		inner := make(map[string]bool, len(bound)+1)
		for k := range bound {
			inner[k] = true
		}
		inner[p.Var] = true
		freeVars(p.Body, inner, out)
	default:
		panic(fmt.Sprintf("logic: unknown pred %T", p))
	}
}

// SortedFreeVars returns the free variables of p in lexicographic order.
func SortedFreeVars(p Pred) []string {
	m := FreeVars(p)
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// EvalPred evaluates a closed, memory-free predicate under env. It
// fails (ok == false) on quantifiers, rd/wr atoms, or sel/upd terms —
// these are not ground-decidable.
func EvalPred(p Pred, env map[string]uint64) (val, ok bool) {
	switch p := p.(type) {
	case TruePred:
		return true, true
	case FalsePred:
		return false, true
	case Cmp:
		l, ok := EvalExpr(p.L, env)
		if !ok {
			return false, false
		}
		r, ok := EvalExpr(p.R, env)
		if !ok {
			return false, false
		}
		return p.Op.Eval(l, r), true
	case And:
		l, ok := EvalPred(p.L, env)
		if !ok {
			return false, false
		}
		r, ok := EvalPred(p.R, env)
		if !ok {
			return false, false
		}
		return l && r, true
	case Or:
		l, ok := EvalPred(p.L, env)
		if !ok {
			return false, false
		}
		r, ok := EvalPred(p.R, env)
		if !ok {
			return false, false
		}
		return l || r, true
	case Imp:
		l, ok := EvalPred(p.L, env)
		if !ok {
			return false, false
		}
		r, ok := EvalPred(p.R, env)
		if !ok {
			return false, false
		}
		return !l || r, true
	case Rd, Wr, Forall:
		return false, false
	}
	panic(fmt.Sprintf("logic: unknown pred %T", p))
}

// PredSize returns the number of AST nodes in p.
func PredSize(p Pred) int {
	switch p := p.(type) {
	case TruePred, FalsePred:
		return 1
	case Cmp:
		return 1 + exprSize(p.L) + exprSize(p.R)
	case Rd:
		return 1 + exprSize(p.Addr)
	case Wr:
		return 1 + exprSize(p.Addr)
	case And:
		return 1 + PredSize(p.L) + PredSize(p.R)
	case Or:
		return 1 + PredSize(p.L) + PredSize(p.R)
	case Imp:
		return 1 + PredSize(p.L) + PredSize(p.R)
	case Forall:
		return 1 + PredSize(p.Body)
	}
	panic(fmt.Sprintf("logic: unknown pred %T", p))
}

// Conjuncts flattens nested conjunctions into a list (dropping True).
func Conjuncts(p Pred) []Pred {
	var out []Pred
	var walk func(Pred)
	walk = func(q Pred) {
		switch q := q.(type) {
		case And:
			walk(q.L)
			walk(q.R)
		case TruePred:
		default:
			out = append(out, q)
		}
	}
	walk(p)
	return out
}

// Pretty renders p on multiple lines with indentation, for debugging
// large safety predicates.
func Pretty(p Pred) string {
	switch p := p.(type) {
	case And:
		return "(" + indent(Pretty(p.L), " ") + "\n /\\\n" + indent(Pretty(p.R), " ") + ")"
	case Imp:
		return "(" + indent(Pretty(p.L), " ") + "\n =>\n" + indent(Pretty(p.R), " ") + ")"
	case Forall:
		return fmt.Sprintf("ALL %s.\n%s", p.Var, indent(Pretty(p.Body), "  "))
	default:
		return p.String()
	}
}
