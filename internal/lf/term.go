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
	"strings"
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
func (p Pi) String() string    { return fmt.Sprintf("({%s} %s)", p.A, p.B) }
func (l Lam) String() string   { return fmt.Sprintf("([%s] %s)", l.A, l.M) }
func (l Lit) String() string   { return fmt.Sprintf("%d", l.V) }

func (a App) String() string {
	head, args := Spine(a)
	parts := make([]string, 0, len(args)+1)
	parts = append(parts, head.String())
	for _, x := range args {
		parts = append(parts, x.String())
	}
	return "(" + strings.Join(parts, " ") + ")"
}

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

// The term transformations below — shift, substIdx, Normalize — share
// structure: each returns its input term itself, not a copy, when
// nothing inside it changed, and allocates new Pi/Lam/App nodes only
// along the paths where an index moved or a redex fired. The results
// are the same terms the plain tree-rebuilding definitions produce;
// only the number of fresh nodes differs.

// shift adds d to every de Bruijn index ≥ cutoff in t.
func shift(t Term, d, cutoff int) Term {
	if d == 0 {
		return t
	}
	out, _ := shifted(t, d, cutoff)
	return out
}

// shifted is shift reporting whether anything changed; unchanged
// terms come back as the input.
func shifted(t Term, d, cutoff int) (Term, bool) {
	switch n := t.(type) {
	case Sort, Konst, Lit:
	case Bound:
		if n.Idx >= cutoff {
			return Bound{n.Idx + d}, true
		}
	case Pi:
		a, ca := shifted(n.A, d, cutoff)
		b, cb := shifted(n.B, d, cutoff+1)
		if ca || cb {
			return Pi{a, b}, true
		}
	case Lam:
		a, ca := shifted(n.A, d, cutoff)
		m, cm := shifted(n.M, d, cutoff+1)
		if ca || cm {
			return Lam{a, m}, true
		}
	case App:
		f, cf := shifted(n.F, d, cutoff)
		x, cx := shifted(n.X, d, cutoff)
		if cf || cx {
			return App{f, x}, true
		}
	default:
		panic(fmt.Sprintf("lf: unknown term %T", t))
	}
	return t, false
}

// substIdx replaces Bound{j} in t with s (itself shifted appropriately)
// and renumbers the indexes above j.
func substIdx(t Term, j int, s Term) Term {
	out, _ := substituted(t, j, s)
	return out
}

// substituted is substIdx reporting whether anything changed.
func substituted(t Term, j int, s Term) (Term, bool) {
	switch n := t.(type) {
	case Sort, Konst, Lit:
	case Bound:
		switch {
		case n.Idx == j:
			return shift(s, j, 0), true
		case n.Idx > j:
			return Bound{n.Idx - 1}, true
		}
	case Pi:
		a, ca := substituted(n.A, j, s)
		b, cb := substituted(n.B, j+1, s)
		if ca || cb {
			return Pi{a, b}, true
		}
	case Lam:
		a, ca := substituted(n.A, j, s)
		m, cm := substituted(n.M, j+1, s)
		if ca || cm {
			return Lam{a, m}, true
		}
	case App:
		f, cf := substituted(n.F, j, s)
		x, cx := substituted(n.X, j, s)
		if cf || cx {
			return App{f, x}, true
		}
	default:
		panic(fmt.Sprintf("lf: unknown term %T", t))
	}
	return t, false
}

// Instantiate β-reduces a binder body with the given argument.
func Instantiate(body Term, arg Term) Term { return substIdx(body, 0, arg) }

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
			return Normalize(Instantiate(lam.M, x)), true
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
