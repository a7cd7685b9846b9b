package lf

import (
	"fmt"
	"strings"

	"repro/internal/logic"
	"repro/internal/prover"
)

// FormatSignature renders the published signature in a λProlog-style
// concrete syntax, one declaration per line — the form in which a code
// consumer "defines and publicizes" its proof-formation rules. The
// axiom schemas carry their documentation comments.
func FormatSignature(s *Signature) string {
	var b strings.Builder
	b.WriteString("%% PCC object logic and proof rules (published signature)\n")
	for _, name := range s.Names() {
		ty, _ := s.Lookup(name)
		if sc, ok := prover.Axioms[name]; ok && sc.Comment != "" {
			fmt.Fprintf(&b, "%% %s\n", sc.Comment)
		}
		fmt.Fprintf(&b, "%-16s : %s.\n", name, formatTy(ty, 0))
	}
	return b.String()
}

// formatTy renders a type with named binders (x0, x1, …) instead of de
// Bruijn indexes, for readability.
func formatTy(t Term, depth int) string {
	switch t := t.(type) {
	case Sort:
		return t.String()
	case Konst:
		return t.Name
	case Bound:
		return fmt.Sprintf("x%d", depth-t.Idx-1)
	case Lit:
		return fmt.Sprintf("%d", t.V)
	case Pi:
		// Non-dependent products print as arrows, the unused binder
		// dropped from the body.
		if !mentionsIdx(t.B, 0) {
			return fmt.Sprintf("%s -> %s", formatTyAtom(t.A, depth), formatTy(shift(t.B, -1, 1), depth))
		}
		return fmt.Sprintf("{x%d:%s} %s", depth, formatTy(t.A, depth), formatTy(t.B, depth+1))
	case Lam:
		return fmt.Sprintf("[x%d:%s] %s", depth, formatTy(t.A, depth), formatTy(t.M, depth+1))
	case App:
		head, args := Spine(t)
		parts := []string{formatTyAtom(head, depth)}
		for _, a := range args {
			parts = append(parts, formatTyAtom(a, depth))
		}
		return strings.Join(parts, " ")
	}
	return "?"
}

func formatTyAtom(t Term, depth int) string {
	switch t.(type) {
	case App, Pi, Lam:
		return "(" + formatTy(t, depth) + ")"
	}
	return formatTy(t, depth)
}

// mentionsIdx reports whether #idx occurs free in t.
func mentionsIdx(t Term, idx int) bool {
	switch t := t.(type) {
	case Bound:
		return t.Idx == idx
	case Pi:
		return mentionsIdx(t.A, idx) || mentionsIdx(t.B, idx+1)
	case Lam:
		return mentionsIdx(t.A, idx) || mentionsIdx(t.M, idx+1)
	case App:
		return mentionsIdx(t.F, idx) || mentionsIdx(t.X, idx)
	}
	return false
}

// render writes x, a Term, logic.Pred or logic.Expr, in its String
// syntax. Past max bytes (max <= 0: no cap) it cuts the text, marks
// the cut with "...", and stops walking, so rendering a DAG whose tree
// is exponentially large costs no more than the cap.
func render(x any, max int) string {
	w := &capWriter{max: max}
	w.put(x)
	if w.cut {
		return w.b.String() + "..."
	}
	return w.b.String()
}

// capWriter is render's output: it keeps at most max bytes and
// records whether it dropped any.
type capWriter struct {
	b   strings.Builder
	max int
	cut bool
}

// put writes each part: a string as it is, a term, predicate or
// expression by walking it. Predicates and expressions follow the
// String methods of package logic.
func (w *capWriter) put(parts ...any) {
	for _, x := range parts {
		if w.cut {
			return
		}
		switch x := x.(type) {
		case string:
			if w.max > 0 && w.b.Len()+len(x) > w.max {
				x, w.cut = x[:w.max-w.b.Len()], true
			}
			w.b.WriteString(x)
		case Pi:
			w.put("({", x.A, "} ", x.B, ")")
		case Lam:
			w.put("([", x.A, "] ", x.M, ")")
		case App: // (head a1 … an)
			w.put("(")
			w.spine(x)
			w.put(")")
		case logic.Cmp:
			w.put(x.L, " "+x.Op.String()+" ", x.R)
		case logic.Rd:
			w.put("rd(", x.Addr, ")")
		case logic.Wr:
			w.put("wr(", x.Addr, ")")
		case logic.And:
			w.put("(", x.L, ` /\ `, x.R, ")")
		case logic.Or:
			w.put("(", x.L, ` \/ `, x.R, ")")
		case logic.Imp:
			w.put("(", x.L, " => ", x.R, ")")
		case logic.Forall:
			w.put("(ALL "+x.Var+". ", x.Body, ")")
		case logic.Bin:
			switch op := x.Op.String(); x.Op {
			case logic.OpCmpEq, logic.OpCmpUlt, logic.OpCmpUle, logic.OpCmpSlt:
				w.put(op+"(", x.L, ", ", x.R, ")")
			default:
				w.put("(", x.L, " "+op+" ", x.R, ")")
			}
		case logic.Sel:
			w.put("sel(", x.Mem, ", ", x.Addr, ")")
		case logic.Upd:
			w.put("upd(", x.Mem, ", ", x.Addr, ", ", x.Val, ")")
		default: // sorts, constants, variables, literals
			w.put(fmt.Sprint(x))
		}
	}
}

func (w *capWriter) spine(a App) {
	if f, ok := a.F.(App); ok {
		w.spine(f)
	} else {
		w.put(a.F)
	}
	w.put(" ", a.X)
}
