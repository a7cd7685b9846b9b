package lf

import (
	"fmt"
	"strings"

	"repro/internal/logic"
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
		if sc, ok := logic.Axioms[name]; ok && sc.Comment != "" {
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
// syntax, capped at max bytes by logic.Render (max <= 0: no cap).
// Predicates and expressions are written by package logic's printer.
func render(x any, max int) string {
	return logic.Render(max, func(w *logic.Writer) {
		switch x := x.(type) {
		case Term:
			writeTerm(w, x)
		case logic.Pred:
			w.Pred(x)
		case logic.Expr:
			w.Expr(x)
		default:
			w.Text(fmt.Sprint(x))
		}
	})
}

// writeTerm writes t: "({A} B)", "([A] M)", "(head a1 … an)", and the
// String forms of sorts, constants, variables and literals.
func writeTerm(w *logic.Writer, t Term) {
	switch t := t.(type) {
	case Pi:
		w.Text("({")
		writeTerm(w, t.A)
		w.Text("} ")
		writeTerm(w, t.B)
		w.Text(")")
	case Lam:
		w.Text("([")
		writeTerm(w, t.A)
		w.Text("] ")
		writeTerm(w, t.M)
		w.Text(")")
	case App:
		w.Text("(")
		writeSpine(w, t)
		w.Text(")")
	case nil:
		w.Text("<nil>")
	default:
		w.Text(t.String())
	}
}

func writeSpine(w *logic.Writer, a App) {
	if f, ok := a.F.(App); ok {
		writeSpine(w, f)
	} else {
		writeTerm(w, a.F)
	}
	w.Text(" ")
	writeTerm(w, a.X)
}
