package logic

import "unsafe"

// Writer renders predicates and expressions in their String syntax. It
// is the one printer of that syntax: the String methods use it, and
// the LF term printer hands it the predicates and expressions it
// meets. A Writer from Render may cap its text: the write that would
// pass the cap keeps what fits and stops the walk, so the walks below
// never look at the cap. An uncapped Writer is one pass into one
// buffer.
type Writer struct {
	buf []byte
	max int // 0: no cap
}

// capReached is the panic value that ends a capped walk at its cap.
type capReached struct{}

// Render runs write on a Writer capped at max bytes (max <= 0: no cap)
// and returns its text. Past the cap the text is cut to max bytes and
// marked with "...", and write is stopped there, so rendering a DAG
// whose tree is exponentially large costs no more than the cap.
func Render(max int, write func(*Writer)) (text string) {
	w := &Writer{max: max}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(capReached); !ok {
				panic(r)
			}
			text = w.text() + "..."
		}
	}()
	write(w)
	return w.text()
}

// Text writes s as it is.
func (w *Writer) Text(s string) {
	if w.max > 0 && len(w.buf)+len(s) > w.max {
		w.cut(s)
	}
	w.buf = append(w.buf, s...)
}

func (w *Writer) cut(s string) {
	w.buf = append(w.buf, s[:w.max-len(w.buf)]...)
	panic(capReached{})
}

// text returns what was written, without a copy, as strings.Builder
// does: the buffer is not written again.
func (w *Writer) text() string { return unsafe.String(unsafe.SliceData(w.buf), len(w.buf)) }

// Pred writes p: "l op r", "rd(a)", "wr(a)", "(l /\ r)", "(l \/ r)",
// "(l => r)" and "(ALL v. body)".
func (w *Writer) Pred(p Pred) {
	switch p := p.(type) {
	case Cmp:
		w.Expr(p.L)
		w.Text(" " + p.Op.String() + " ")
		w.Expr(p.R)
	case Rd:
		w.Text("rd(")
		w.Expr(p.Addr)
		w.Text(")")
	case Wr:
		w.Text("wr(")
		w.Expr(p.Addr)
		w.Text(")")
	case And:
		w.connective(p.L, ` /\ `, p.R)
	case Or:
		w.connective(p.L, ` \/ `, p.R)
	case Imp:
		w.connective(p.L, " => ", p.R)
	case Forall:
		w.Text("(ALL " + p.Var + ". ")
		w.Pred(p.Body)
		w.Text(")")
	case nil:
		w.Text(nilOperand)
	default:
		w.Text(p.String())
	}
}

func (w *Writer) connective(l Pred, op string, r Pred) {
	w.Text("(")
	w.Pred(l)
	w.Text(op)
	w.Pred(r)
	w.Text(")")
}

// Expr writes e: "(l op r)", "op(l, r)" for the comparison operators,
// "sel(m, a)" and "upd(m, a, v)".
func (w *Writer) Expr(e Expr) {
	switch e := e.(type) {
	case Bin:
		if e.Op.isCompare() {
			w.Text(e.Op.String())
			w.Text("(")
			w.Expr(e.L)
			w.Text(", ")
		} else {
			w.Text("(")
			w.Expr(e.L)
			w.Text(" ")
			w.Text(e.Op.String())
			w.Text(" ")
		}
		w.Expr(e.R)
	case Sel:
		w.Text("sel(")
		w.Expr(e.Mem)
		w.Text(", ")
		w.Expr(e.Addr)
	case Upd:
		w.Text("upd(")
		w.Expr(e.Mem)
		w.Text(", ")
		w.Expr(e.Addr)
		w.Text(", ")
		w.Expr(e.Val)
	case nil:
		w.Text(nilOperand)
		return
	default:
		w.Text(e.String())
		return
	}
	w.Text(")")
}

// nilOperand is how fmt renders a nil operand.
const nilOperand = "%!s(<nil>)"

func predString(p Pred) string {
	var w Writer
	w.Pred(p)
	return w.text()
}

func exprString(e Expr) string {
	var w Writer
	w.Expr(e)
	return w.text()
}
