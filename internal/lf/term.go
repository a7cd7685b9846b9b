// Package lf implements the Edinburgh Logical Framework core used to
// represent and validate safety proofs, following §2.3 of Necula & Lee:
// predicates and proofs are encoded as LF objects over a published
// signature, and "proof validation amounts to typechecking".
//
// The implementation is a standard dependently-typed λ-calculus with
// Π-types, de Bruijn representation, β-normalization, and a
// bidirectional-style checker, extended — as documented in DESIGN.md —
// with two small primitives that stand in for the paper's "predicate
// calculus extended with two's-complement integer arithmetic":
//
//   - 64-bit literals of the primitive type `word`;
//   - the decidable judgments `ground p` (p is closed and evaluates to
//     true) and `norm_eq p q` (p and q have the same normal form under
//     the trusted normalizer), inhabited by the primitive constants
//     `gr` and `nrm` whose applications are verified by evaluation
//     during typechecking.
package lf

import (
	"fmt"
	"unsafe"
)

// Term is an LF term. A single syntactic category covers objects,
// families, and kinds; the checker keeps the levels straight.
type Term interface {
	isTerm()
	String() string
}

// Sort is a classifier: the kind `type` or the superkind classifying
// kinds.
type Sort uint8

// The two sorts.
const (
	SType Sort = iota // the kind "type"
	SKind             // classifies kinds; never written by encoders
)

// Konst references a signature constant by name.
type Konst struct{ Name string }

// Bound is a de Bruijn variable (0 = innermost binder).
type Bound struct{ Idx int }

// Pi is the dependent product Πx:A. B (B lives under the binder).
type Pi struct{ A, B Term }

// Lam is the annotated abstraction λx:A. M.
type Lam struct{ A, M Term }

// App is application.
type App struct{ F, X Term }

// Lit is a 64-bit literal of the primitive type `word`.
type Lit struct{ V uint64 }

func (Sort) isTerm()  {}
func (Konst) isTerm() {}
func (Bound) isTerm() {}
func (Pi) isTerm()    {}
func (Lam) isTerm()   {}
func (App) isTerm()   {}
func (Lit) isTerm()   {}

func (s Sort) String() string {
	if s == SType {
		return "type"
	}
	return "kind"
}
func (k Konst) String() string { return k.Name }
func (b Bound) String() string { return fmt.Sprintf("#%d", b.Idx) }
func (p Pi) String() string    { return render(p, 0) }
func (l Lam) String() string   { return render(l, 0) }
func (a App) String() string   { return render(a, 0) }
func (l Lit) String() string   { return fmt.Sprintf("%d", l.V) }

// Spine decomposes nested applications into a head and argument list.
// It counts the spine first, so one allocation holds the arguments.
func Spine(t Term) (head Term, args []Term) {
	n := 0
	head = t
	for a, ok := head.(App); ok; a, ok = head.(App) {
		head = a.F
		n++
	}
	if n == 0 {
		return head, nil
	}
	args = make([]Term, n)
	for a, ok := t.(App); ok; a, ok = t.(App) {
		n--
		args[n] = a.X
		t = a.F
	}
	return head, args
}

// Apply folds a head and arguments back into nested applications.
func Apply(head Term, args ...Term) Term {
	t := head
	for _, a := range args {
		t = App{t, a}
	}
	return t
}

// The term transformations below — hsubst.apply and Normalize — share
// structure: each returns its input term itself, not a copy, when
// nothing inside it changed, and allocates new Pi/Lam/App nodes only
// along the paths where an index moved or a redex fired. The results
// are the same terms the plain tree-rebuilding definitions produce;
// only the number of fresh nodes differs. hsubst.apply is the one
// traversal that rewrites indexes: shifting is the substitution with
// no arguments, and β-reduction the substitution with one.

// shift adds d to every de Bruijn index ≥ cutoff in t. No argument is
// substituted, so no redex is created and the result is the plain
// shift of t.
func shift(t Term, d, cutoff int) Term {
	if d == 0 {
		return t
	}
	out, _ := hsubst{d: d}.apply(t, cutoff)
	return out
}

// instantiate substitutes args simultaneously for the len(args)
// innermost binders of body — args[0] for the outermost, the last for
// #0 — in one pass, the way a spine a1 … an instantiates a Π-type
// under n binders. The substitution is hereditary: a redex it creates
// by putting an abstraction in head position is reduced at once, and
// an argument is copied (shifted) only where it lands under a binder
// of body. An abstraction applied to the variable of the one binder it
// lands under, as in foralli's `p x`, reduces to its own body.
func instantiate(body Term, args []Term) Term {
	if len(args) == 0 {
		return body
	}
	out, _ := hsubst{args: args}.apply(body, 0)
	return out
}

// hsubst is a simultaneous hereditary substitution. At binder level
// lvl, #lvl … #lvl+k-1 (k = len(args)) are replaced by args, last
// first, shifted by lvl; the indexes above them refer past the
// substituted binders and become #i-k+d. The arguments live at level
// 0: d is how many binders the result sits under that the arguments do
// not (0 when instantiating a type, the redex's level when reducing a
// created redex). With no arguments it is a shift: #i ≥ lvl becomes
// #i+d.
type hsubst struct {
	args []Term
	d    int
}

// arg returns the argument replacing #idx at level lvl, if any.
func (s hsubst) arg(idx, lvl int) (Term, bool) {
	if k := len(s.args); idx >= lvl && idx < lvl+k {
		return s.args[k-1-(idx-lvl)], true
	}
	return nil, false
}

// beta reduces (λ.body) x, where the abstraction's free indexes sit d
// binders above x's.
func beta(body, x Term, d int) Term {
	if d == 1 && x == Term(Bound{0}) {
		return body
	}
	out, _ := hsubst{args: []Term{x}, d: d}.apply(body, 0)
	return out
}

// apply substitutes under lvl binders, reporting whether anything
// changed; unchanged terms come back as the input.
func (s hsubst) apply(t Term, lvl int) (Term, bool) {
	switch n := t.(type) {
	case Sort, Konst, Lit:
	case Bound:
		if a, ok := s.arg(n.Idx, lvl); ok {
			return shift(a, lvl, 0), true
		}
		if k := len(s.args); n.Idx >= lvl+k && k != s.d {
			return Bound{n.Idx - k + s.d}, true
		}
	case Pi:
		a, ca := s.apply(n.A, lvl)
		b, cb := s.apply(n.B, lvl+1)
		if ca || cb {
			return Pi{a, b}, true
		}
	case Lam:
		a, ca := s.apply(n.A, lvl)
		m, cm := s.apply(n.M, lvl+1)
		if ca || cm {
			return Lam{a, m}, true
		}
	case App:
		// A substituted abstraction in head position is reduced
		// against the argument without first being shifted to lvl.
		if b, ok := n.F.(Bound); ok {
			if a, ok := s.arg(b.Idx, lvl); ok {
				if lam, ok := a.(Lam); ok {
					x, _ := s.apply(n.X, lvl)
					return beta(lam.M, x, lvl), true
				}
			}
		}
		f, cf := s.apply(n.F, lvl)
		x, cx := s.apply(n.X, lvl)
		if lam, ok := f.(Lam); ok && cf {
			if _, was := n.F.(Lam); !was {
				return beta(lam.M, x, 0), true
			}
		}
		if cf || cx {
			return App{f, x}, true
		}
	default:
		panic(fmt.Sprintf("lf: unknown term %T", t))
	}
	return t, false
}

// Normalize fully β-normalizes t (normal order). LF terms arising from
// PCC proofs are small, so naive normalization is adequate and easy to
// trust — the paper's criterion for the validator. A term already in
// normal form is returned as is.
func Normalize(t Term) Term {
	out, _ := normalized(t)
	return out
}

// normalized is Normalize reporting whether any redex fired.
func normalized(t Term) (Term, bool) {
	switch n := t.(type) {
	case Sort, Konst, Bound, Lit:
	case Pi:
		a, ca := normalized(n.A)
		b, cb := normalized(n.B)
		if ca || cb {
			return Pi{a, b}, true
		}
	case Lam:
		a, ca := normalized(n.A)
		m, cm := normalized(n.M)
		if ca || cm {
			return Lam{a, m}, true
		}
	case App:
		f, cf := normalized(n.F)
		x, cx := normalized(n.X)
		if lam, ok := f.(Lam); ok {
			return Normalize(beta(lam.M, x, 0)), true
		}
		if cf || cx {
			return App{f, x}, true
		}
	default:
		panic(fmt.Sprintf("lf: unknown term %T", t))
	}
	return t, false
}

// Equal reports syntactic equality (α-equality is free under de
// Bruijn). Callers normalize first for β-equality.
func Equal(a, b Term) bool {
	switch a.(type) {
	case Pi, Lam, App:
		if idOf(a) == idOf(b) {
			return true
		}
	}
	switch a := a.(type) {
	case Sort:
		b, ok := b.(Sort)
		return ok && a == b
	case Konst:
		b, ok := b.(Konst)
		return ok && a.Name == b.Name
	case Bound:
		b, ok := b.(Bound)
		return ok && a.Idx == b.Idx
	case Lit:
		b, ok := b.(Lit)
		return ok && a.V == b.V
	case Pi:
		b, ok := b.(Pi)
		return ok && Equal(a.A, b.A) && Equal(a.B, b.B)
	case Lam:
		b, ok := b.(Lam)
		return ok && Equal(a.A, b.A) && Equal(a.M, b.M)
	case App:
		b, ok := b.(App)
		return ok && Equal(a.F, b.F) && Equal(a.X, b.X)
	}
	panic(fmt.Sprintf("lf: unknown term %T", a))
}

// Size returns the number of nodes in t. The walk follows the term's
// tree shape: on a hash-consed DAG the count is the expanded tree
// size, which can be exponential in the number of distinct nodes —
// never call Size on an untrusted term; use SizeBounded.
func Size(t Term) int {
	switch t := t.(type) {
	case Sort, Konst, Bound, Lit:
		return 1
	case Pi:
		return 1 + Size(t.A) + Size(t.B)
	case Lam:
		return 1 + Size(t.A) + Size(t.M)
	case App:
		return 1 + Size(t.F) + Size(t.X)
	}
	panic(fmt.Sprintf("lf: unknown term %T", t))
}

// SizeBounded returns the number of nodes in t, counting at most max
// (max <= 0 means unbounded, i.e. plain Size). Decoded proof terms are
// hash-consed DAGs from untrusted producers, and DAGs expand to trees
// under traversal: a few dozen wire nodes can encode a tree of 2^60
// nodes, so an unbounded walk is an exponential-time bomb. Consumers
// recording size as a statistic cap the walk and accept the floor
// value.
func SizeBounded(t Term, max int) int {
	n := 0
	var walk func(Term)
	walk = func(t Term) {
		if max > 0 && n >= max {
			return
		}
		n++
		switch t := t.(type) {
		case Pi:
			walk(t.A)
			walk(t.B)
		case Lam:
			walk(t.A)
			walk(t.M)
		case App:
			walk(t.F)
			walk(t.X)
		}
	}
	walk(t)
	return n
}

// nodeID is the identity of a term node: both words of its interface
// value, the type word and the data pointer. It is the one place the
// package looks beneath a Term. Two words, because small scalar values
// share static data — Bound{0} and Lit{0} can carry the same data
// pointer. Pointers rather than uintptrs, so a map keyed on nodeIDs
// keeps its nodes alive and their addresses cannot be reused while the
// map exists. Terms are immutable values, so equal identities mean
// equal terms; equal terms need not have equal identities.
type nodeID struct{ typ, data unsafe.Pointer }

func idOf(t Term) nodeID { return *(*nodeID)(unsafe.Pointer(&t)) }
