package logic

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// This file implements the trusted normalizer shared by the producer and
// the consumer (see DESIGN.md). Normalization performs constant folding
// in two's-complement arithmetic, flattens ⊕/⊖ chains into a canonical
// "sum of terms plus constant" form, and applies a handful of
// word-algebra identities. Because the code consumer recomputes the
// verification condition with this same normalizer, safety proofs match
// hypotheses syntactically and never need to justify these steps — they
// play the role of the paper's built-in "two's-complement integer
// arithmetic" extension of the predicate calculus.

// NormExpr returns the canonical form of e. It is compositional:
// a node's normal form is its local rule (normBin, normSel) applied to
// its children's normal forms.
func NormExpr(e Expr) Expr { return normExprFuel(e, nil) }

// normExprFuel is NormExpr charging one unit of fuel (nil: uncharged) per
// node, plus what the local rules charge. Once *fuel is negative it
// stops, and its result is meaningless.
func normExprFuel(e Expr, fuel *int) Expr {
	if spent(fuel) {
		return e
	}
	switch e := e.(type) {
	case Const, Var:
		return e
	case Bin:
		return normBin(e.Op, normExprFuel(e.L, fuel), normExprFuel(e.R, fuel), fuel)
	case Sel:
		return normSel(normExprFuel(e.Mem, fuel), normExprFuel(e.Addr, fuel), fuel)
	case Upd:
		return Upd{normExprFuel(e.Mem, fuel), normExprFuel(e.Addr, fuel), normExprFuel(e.Val, fuel)}
	}
	panic(fmt.Sprintf("logic: unknown expr %T", e))
}

// spent charges one node to fuel (nil: uncharged) and reports whether
// the fuel is gone.
func spent(fuel *int) bool {
	if fuel == nil {
		return false
	}
	*fuel--
	return *fuel < 0
}

// normBin returns the normal form of l op r for normal l and r,
// charging the sum rule's work to fuel (see normSum; nil: uncharged).
func normBin(op BinOp, l, r Expr, fuel *int) Expr {
	lc, lIsC := l.(Const)
	rc, rIsC := r.(Const)
	if lIsC && rIsC {
		return Const{op.Eval(lc.Val, rc.Val)}
	}
	// Canonical orientation for the commutative bit operations:
	// constant operand on the right.
	if lIsC && !rIsC && (op == OpAnd || op == OpOr || op == OpXor) {
		l, r = r, l
		lc, rc = rc, lc
		lIsC, rIsC = rIsC, lIsC
	}
	_ = lc
	switch op {
	case OpAdd, OpSub:
		return normSum(Bin{op, l, r}, fuel)
	case OpAnd:
		if rIsC && rc.Val == 0 {
			return Const{0}
		}
		if rIsC && rc.Val == ^uint64(0) {
			return l
		}
		// Combine nested constant masks: (x & c1) & c2 = x & (c1&c2).
		if rIsC {
			if lb, ok := l.(Bin); ok && lb.Op == OpAnd {
				if ic, ok := lb.R.(Const); ok {
					return NormExpr(Bin{OpAnd, lb.L, Const{ic.Val & rc.Val}})
				}
			}
			// (x << c) & m = 0 when every set bit of m lies below
			// bit c (the low c bits of a left shift are zero).
			if lb, ok := l.(Bin); ok && lb.Op == OpShl {
				if sc, ok := lb.R.(Const); ok && sc.Val&63 != 0 && rc.Val>>(sc.Val&63) == 0 {
					return Const{0}
				}
			}
		}
		return Bin{OpAnd, l, r}
	case OpOr, OpXor:
		if rIsC && rc.Val == 0 {
			return l
		}
		return Bin{op, l, r}
	case OpShl, OpShr:
		if rIsC && rc.Val&63 == 0 {
			return l
		}
		// Combine nested constant shifts in the same direction.
		if rIsC {
			if lb, ok := l.(Bin); ok && lb.Op == op {
				if ic, ok := lb.R.(Const); ok {
					total := (ic.Val & 63) + (rc.Val & 63)
					if total < 64 {
						return Bin{op, lb.L, Const{total}}
					}
					return Const{0}
				}
			}
		}
		return Bin{op, l, r}
	default:
		return Bin{op, l, r}
	}
}

// normSel returns the normal form of sel(mem, addr) for normal mem and
// addr. Each update it looks past costs fuel the size of addr, which
// bounds comparing the two addresses (nil: uncharged).
func normSel(mem, addr Expr, fuel *int) Expr {
	cost := 0
	if fuel != nil {
		cost = exprSizeUpTo(addr, *fuel)
	}
	// sel(upd(m, a, v), b): yields v when a and b are syntactically
	// identical after normalization, and skips the update entirely
	// when the two addresses provably differ (same base, different
	// constant offset) — McCarthy's axioms, folded by the trusted
	// normalizer.
	for {
		u, ok := mem.(Upd)
		if !ok {
			break
		}
		if fuel != nil {
			if *fuel -= cost; *fuel < 0 {
				break
			}
		}
		if ExprEqual(u.Addr, addr) {
			return u.Val
		}
		if !definitelyDistinct(u.Addr, addr) {
			break
		}
		mem = u.Mem
	}
	return Sel{mem, addr}
}

// normSum flattens an ⊕/⊖ tree into a sorted sum of non-constant terms
// plus a folded constant offset. Terms that are not themselves ⊕/⊖
// nodes are treated as opaque. Rendering each term and rebuilding the
// sum cost about its size, the sort compares each term about log₂ t
// times, and cancelling compares each positive term with the negative
// ones, so t terms of S nodes in all, p positive and n negative, cost
// (2 + log₂ t + min(p, n))·S units of fuel (nil: uncharged).
func normSum(e Expr, fuel *int) Expr {
	var terms []Expr
	var offset uint64
	var walk func(Expr, bool)
	walk = func(x Expr, negate bool) {
		switch x := x.(type) {
		case Const:
			if negate {
				offset -= x.Val
			} else {
				offset += x.Val
			}
		case Bin:
			if x.Op == OpAdd {
				walk(x.L, negate)
				walk(x.R, negate)
				return
			}
			if x.Op == OpSub {
				walk(x.L, negate)
				walk(x.R, !negate)
				return
			}
			appendTerm(&terms, x, negate)
		default:
			appendTerm(&terms, x, negate)
		}
	}
	walk(e, false)
	if fuel != nil && len(terms) > 0 {
		neg := 0
		for _, t := range terms {
			if isNeg(t) {
				neg++
			}
		}
		weight := 2 + bits.Len(uint(len(terms))) + min(neg, len(terms)-neg)
		per := *fuel / weight
		size := 0
		for _, t := range terms {
			size += exprSizeUpTo(t, per-size)
		}
		if size > per {
			*fuel = -1
			return e
		}
		*fuel -= weight * size
	}

	// Cancel syntactically equal positive/negative term pairs
	// (the paper's e1 ⊕ e2 ⊖ e2 = e1, valid because every value is
	// already a machine word in our representation).
	terms = cancelTerms(terms)

	// Deterministic order for the positive terms, negatives afterwards,
	// each term rendered once rather than at every comparison.
	var buf [8]sumTerm
	keyed := buf[:0]
	if len(terms) > len(buf) {
		keyed = make([]sumTerm, 0, len(terms))
	}
	for _, t := range terms {
		k := sumTerm{t: t, neg: isNeg(t)}
		if len(terms) > 1 {
			k.key = t.String()
		}
		keyed = append(keyed, k)
	}
	slices.SortStableFunc(keyed, func(a, b sumTerm) int {
		if a.neg != b.neg {
			if a.neg {
				return 1
			}
			return -1
		}
		return strings.Compare(a.key, b.key)
	})

	var out Expr
	for _, k := range keyed {
		n, neg := stripNeg(k.t)
		switch {
		case out == nil && neg:
			out = Bin{OpSub, Const{0}, n}
		case out == nil:
			out = n
		case neg:
			out = Bin{OpSub, out, n}
		default:
			out = Bin{OpAdd, out, n}
		}
	}
	if out == nil {
		return Const{offset}
	}
	if offset != 0 {
		out = Bin{OpAdd, out, Const{offset}}
	}
	return out
}

// exprSizeUpTo is the node count of e's tree if it is at most max, and
// otherwise some number above max, found without walking further.
func exprSizeUpTo(e Expr, max int) int {
	if max < 1 {
		return 1
	}
	switch e := e.(type) {
	case Bin:
		n := 1 + exprSizeUpTo(e.L, max-1)
		return n + exprSizeUpTo(e.R, max-n)
	case Sel:
		n := 1 + exprSizeUpTo(e.Mem, max-1)
		return n + exprSizeUpTo(e.Addr, max-n)
	case Upd:
		n := 1 + exprSizeUpTo(e.Mem, max-1)
		n += exprSizeUpTo(e.Addr, max-n)
		return n + exprSizeUpTo(e.Val, max-n)
	case negTerm:
		return exprSizeUpTo(e.X, max)
	}
	return 1
}

// sumTerm is one entry of normSum's sort: a term, its sign and its
// rendering.
type sumTerm struct {
	t   Expr
	neg bool
	key string
}

// negTerm marks a negated opaque term inside normSum's worklist. It is
// never exposed outside this file.
type negTerm struct{ X Expr }

func (negTerm) isExpr()          {}
func (n negTerm) String() string { return "(- " + n.X.String() + ")" }

func appendTerm(terms *[]Expr, x Expr, negate bool) {
	if negate {
		*terms = append(*terms, negTerm{x})
	} else {
		*terms = append(*terms, x)
	}
}

func isNeg(e Expr) bool { _, ok := e.(negTerm); return ok }

func stripNeg(e Expr) (Expr, bool) {
	if n, ok := e.(negTerm); ok {
		return n.X, true
	}
	return e, false
}

// cancelTerms drops syntactically equal pairs of a positive and a
// negative term: each term, in order, cancels against the first later
// term of the other sign that equals it. It compares only pairs of
// opposite signs, so a sum of one sign costs no comparison at all.
func cancelTerms(terms []Expr) []Expr {
	var pos, neg []int // indexes of each sign, ascending
	n := 0
	for _, t := range terms {
		if isNeg(t) {
			n++
		}
	}
	if n == 0 || n == len(terms) {
		return terms
	}
	for i, t := range terms {
		if isNeg(t) {
			neg = append(neg, i)
		} else {
			pos = append(pos, i)
		}
	}
	out := terms[:0:0]
	used := make([]bool, len(terms))
	for i, t := range terms {
		if used[i] {
			continue
		}
		ti, negI := stripNeg(t)
		other := neg
		if negI {
			other = pos
		}
		cancelled := false
		for _, j := range other[sort.SearchInts(other, i+1):] {
			if used[j] {
				continue
			}
			if tj, _ := stripNeg(terms[j]); ExprEqual(ti, tj) {
				used[i], used[j] = true, true
				cancelled = true
				break
			}
		}
		if !cancelled {
			out = append(out, t)
		}
	}
	return out
}

// definitelyDistinct reports whether two normalized address
// expressions denote different machine words for every variable
// assignment: they decompose as the same base plus different constant
// offsets (wraparound preserves disequality: b⊕c1 = b⊕c2 iff c1 = c2).
func definitelyDistinct(a, b Expr) bool {
	baseOff := func(e Expr) (Expr, uint64) {
		if bin, ok := e.(Bin); ok && bin.Op == OpAdd {
			if c, ok := bin.R.(Const); ok {
				return bin.L, c.Val
			}
		}
		if c, ok := e.(Const); ok {
			return nil, c.Val
		}
		return e, 0
	}
	ab, ao := baseOff(a)
	bb, bo := baseOff(b)
	if ab == nil && bb == nil {
		return ao != bo
	}
	if ab == nil || bb == nil {
		return false
	}
	return ExprEqual(ab, bb) && ao != bo
}

// NormPred returns the canonical form of p: all expressions normalized,
// ground atoms decided, and trivial connectives collapsed.
func NormPred(p Pred) Pred { return NormPredFuel(p, nil) }

// NormPredFuel is NormPred at a bounded cost, for a predicate from an
// untrusted source: fuel, when not nil, is charged one unit per node
// of p's tree and what the local rules charge (normSum, normSel). Once
// *fuel is negative it stops, and its result is meaningless.
func NormPredFuel(p Pred, fuel *int) Pred {
	if spent(fuel) {
		return p
	}
	switch p := p.(type) {
	case TruePred, FalsePred:
		return p
	case Cmp:
		return normCmp(p.Op, normExprFuel(p.L, fuel), normExprFuel(p.R, fuel))
	case Rd:
		return Rd{normExprFuel(p.Addr, fuel)}
	case Wr:
		return Wr{normExprFuel(p.Addr, fuel)}
	case And:
		return NormAnd(NormPredFuel(p.L, fuel), NormPredFuel(p.R, fuel))
	case Or:
		return normOr(NormPredFuel(p.L, fuel), NormPredFuel(p.R, fuel))
	case Imp:
		return NormImp(NormPredFuel(p.L, fuel), NormPredFuel(p.R, fuel))
	case Forall:
		return NormAll(p.Var, NormPredFuel(p.Body, fuel))
	}
	panic(fmt.Sprintf("logic: unknown pred %T", p))
}

// normCmp returns the normal form of the atom l op r for normal l and
// r.
func normCmp(op CmpOp, l, r Expr) Pred {
	if lc, ok := l.(Const); ok {
		if rc, ok := r.(Const); ok {
			if op.Eval(lc.Val, rc.Val) {
				return True
			}
			return False
		}
	}
	// Canonical orientation for the symmetric atoms: constant on
	// the right.
	if op == CmpEq || op == CmpNe {
		if _, ok := l.(Const); ok {
			l, r = r, l
		}
	}
	// x ≤u y with x = 0 is vacuously true.
	if lc, ok := l.(Const); ok && lc.Val == 0 && op == CmpUle {
		return True
	}
	if ExprEqual(l, r) {
		switch op {
		case CmpEq, CmpUle, CmpSle:
			return True
		case CmpNe, CmpUlt, CmpSlt:
			return False
		}
	}
	return Cmp{op, l, r}
}

// The local connective rules. Each takes normal operands and returns
// the normal form of the connective over them, which is what NormPred
// of the connective returns once its operands are normalized.

// NormAnd returns the normal form of l ∧ r for normal l and r.
func NormAnd(l, r Pred) Pred {
	switch {
	case isTrue(l):
		return r
	case isTrue(r):
		return l
	case isFalse(l) || isFalse(r):
		return False
	}
	return And{l, r}
}

func normOr(l, r Pred) Pred {
	switch {
	case isFalse(l):
		return r
	case isFalse(r):
		return l
	case isTrue(l) || isTrue(r):
		return True
	}
	return Or{l, r}
}

// NormImp returns the normal form of l ⇒ r for normal l and r.
func NormImp(l, r Pred) Pred {
	switch {
	case isTrue(l):
		return r
	case isFalse(l):
		return True
	case isTrue(r):
		return True
	}
	return Imp{l, r}
}

// NormAll returns the normal form of ∀v. body for a normal body.
func NormAll(v string, body Pred) Pred {
	switch {
	case isTrue(body):
		return True
	case isFalse(body):
		return False // machine words are a non-empty domain
	}
	return Forall{v, body}
}

func isTrue(p Pred) bool  { _, ok := p.(TruePred); return ok }
func isFalse(p Pred) bool { _, ok := p.(FalsePred); return ok }

// SubstNorm returns NormPred(Subst(p, v, repl)) for a normal p without
// renormalizing what the substitution leaves alone. fuel, when not
// nil, bounds the work: each node of p visited costs one unit, and
// the local rules that compare or render subterms charge their size
// (normSum, normSel). Once *fuel is negative SubstNorm stops walking,
// and its result is meaningless; p's tree (not its DAG) is walked, so
// without fuel a predicate that shares subformulas costs time
// exponential in its size. NormPred and
// NormExpr are compositional (a node's normal form is its local rule
// applied to its children's normal forms) and idempotent, so a
// subterm in which v does not occur is its own normal form and is
// returned as is (the same value, not a copy), an occurrence of v
// becomes NormExpr(repl), and each node on a path to an occurrence is
// rebuilt by its local rule over operands that are already normal. A
// ∀ whose bound variable occurs in repl would be renamed by Subst, so
// there SubstNorm falls back to NormPred(Subst(...)) for that
// subformula.
func SubstNorm(p Pred, v string, repl Expr, fuel *int) Pred {
	s := substNormer{v: v, repl: repl, left: math.MaxInt}
	if fuel != nil {
		s.left, s.metered = *fuel, true
	}
	q, _ := s.pred(p)
	if fuel != nil {
		*fuel = s.left
	}
	return q
}

// substNormer carries one SubstNorm: the variable, its replacement,
// the replacement's normal form once an occurrence needs it, and the
// fuel left, if metered. (A copy of the caller's counter, not a
// pointer to it, keeps the counter off the heap.)
type substNormer struct {
	v          string
	repl, norm Expr
	left       int
	metered    bool
}

// fuel is the counter the local rules charge: nil when unmetered, so
// that they skip measuring the subterms.
func (s *substNormer) fuel() *int {
	if !s.metered {
		return nil
	}
	return &s.left
}

// spend charges one visited node and reports whether fuel is left.
func (s *substNormer) spend() bool {
	s.left--
	return s.left >= 0
}

// pred is SubstNorm on p that also reports whether anything changed.
func (s *substNormer) pred(p Pred) (Pred, bool) {
	if !s.spend() {
		return p, false
	}
	switch q := p.(type) {
	case TruePred, FalsePred:
		return p, false
	case Cmp:
		l, cl := s.expr(q.L)
		r, cr := s.expr(q.R)
		if !cl && !cr {
			return p, false
		}
		return normCmp(q.Op, l, r), true
	case Rd:
		a, c := s.expr(q.Addr)
		if !c {
			return p, false
		}
		return Rd{a}, true
	case Wr:
		a, c := s.expr(q.Addr)
		if !c {
			return p, false
		}
		return Wr{a}, true
	case And:
		l, cl := s.pred(q.L)
		r, cr := s.pred(q.R)
		if !cl && !cr {
			return p, false
		}
		return NormAnd(l, r), true
	case Or:
		l, cl := s.pred(q.L)
		r, cr := s.pred(q.R)
		if !cl && !cr {
			return p, false
		}
		return normOr(l, r), true
	case Imp:
		l, cl := s.pred(q.L)
		r, cr := s.pred(q.R)
		if !cl && !cr {
			return p, false
		}
		return NormImp(l, r), true
	case Forall:
		if q.Var == s.v {
			return p, false
		}
		if occurs(s.repl, q.Var) {
			// Uncharged: VC generation substitutes registers and
			// memory, and no quantifier decoded from a binary binds
			// one (decoded binders are named !0, !1, …).
			return NormPred(Subst(p, s.v, s.repl)), true
		}
		body, c := s.pred(q.Body)
		if !c {
			return p, false
		}
		return NormAll(q.Var, body), true
	}
	panic(fmt.Sprintf("logic: unknown pred %T", p))
}

// expr is NormExpr(SubstExpr(e, v, repl)) for a normal e, reporting
// whether anything changed.
func (s *substNormer) expr(e Expr) (Expr, bool) {
	if !s.spend() {
		return e, false
	}
	switch x := e.(type) {
	case Const:
		return e, false
	case Var:
		if x.Name != s.v {
			return e, false
		}
		if s.norm == nil {
			s.norm = NormExpr(s.repl)
		}
		return s.norm, true
	case Bin:
		if x.Op == OpAdd || x.Op == OpSub {
			l, cl := s.sumTree(x.L)
			r, cr := s.sumTree(x.R)
			if !cl && !cr {
				return e, false
			}
			return normSum(Bin{x.Op, l, r}, s.fuel()), true
		}
		l, cl := s.expr(x.L)
		r, cr := s.expr(x.R)
		if !cl && !cr {
			return e, false
		}
		return normBin(x.Op, l, r, s.fuel()), true
	case Sel:
		m, cm := s.expr(x.Mem)
		a, ca := s.expr(x.Addr)
		if !cm && !ca {
			return e, false
		}
		return normSel(m, a, s.fuel()), true
	case Upd:
		m, cm := s.expr(x.Mem)
		a, ca := s.expr(x.Addr)
		val, cv := s.expr(x.Val)
		if !cm && !ca && !cv {
			return e, false
		}
		return Upd{m, a, val}, true
	}
	panic(fmt.Sprintf("logic: unknown expr %T", e))
}

// sumTree substitutes into the terms of the ⊕/⊖ tree below a sum and
// rebuilds that tree without normalizing it, so that expr normalizes
// the whole sum once. normSum flattens through every ⊕/⊖ node and
// treats the rest as terms, which sumTree has normalized, so the
// result is the one normBin would build node by node; but that would
// renormalize the sum below each node on the way, t times for a sum
// of t terms.
func (s *substNormer) sumTree(e Expr) (Expr, bool) {
	x, ok := e.(Bin)
	if !ok || x.Op != OpAdd && x.Op != OpSub {
		return s.expr(e)
	}
	if !s.spend() {
		return e, false
	}
	l, cl := s.sumTree(x.L)
	r, cr := s.sumTree(x.R)
	if !cl && !cr {
		return e, false
	}
	return Bin{x.Op, l, r}, true
}

// occurs reports whether the variable named v occurs in e.
func occurs(e Expr, v string) bool {
	switch e := e.(type) {
	case Const:
		return false
	case Var:
		return e.Name == v
	case Bin:
		return occurs(e.L, v) || occurs(e.R, v)
	case Sel:
		return occurs(e.Mem, v) || occurs(e.Addr, v)
	case Upd:
		return occurs(e.Mem, v) || occurs(e.Addr, v) || occurs(e.Val, v)
	}
	panic(fmt.Sprintf("logic: unknown expr %T", e))
}
