// Package logic implements the first-order logic in which PCC safety
// predicates are stated: expressions over 64-bit two's-complement machine
// words (including the sel/upd memory terms of Necula & Lee's abstract
// machine) and predicates built from equality, unsigned and signed
// orderings, the rd/wr safety atoms, and the usual connectives and
// universal quantifier.
//
// All expressions denote values in [0, 2^64), and every arithmetic
// operator is the "circled" two's-complement operator of the paper:
// Add is e1 ⊕ e2 = (e1 + e2) mod 2^64, and so on. The paper's side
// condition "ri mod 2^64 = ri" is therefore an invariant of the
// representation rather than a proof obligation; see DESIGN.md
// ("trusted normalizer").
package logic

import (
	"fmt"
	"strings"
)

// BinOp identifies a binary operator on 64-bit machine words.
type BinOp uint8

// Binary operators. The Cmp* operators are the Alpha compare
// instructions viewed as expressions: they yield 1 when the comparison
// holds and 0 otherwise.
const (
	OpAdd    BinOp = iota // two's-complement addition (⊕)
	OpSub                 // two's-complement subtraction (⊖)
	OpMul                 // two's-complement multiplication
	OpAnd                 // bitwise and
	OpOr                  // bitwise or
	OpXor                 // bitwise xor
	OpShl                 // logical shift left (shift amount mod 64)
	OpShr                 // logical shift right (shift amount mod 64)
	OpCmpEq               // 1 if equal, else 0
	OpCmpUlt              // 1 if unsigned less-than, else 0
	OpCmpUle              // 1 if unsigned less-or-equal, else 0
	OpCmpSlt              // 1 if signed less-than, else 0
)

var binOpNames = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpAnd: "&", OpOr: "|", OpXor: "^",
	OpShl: "<<", OpShr: ">>",
	OpCmpEq: "cmpeq", OpCmpUlt: "cmpult", OpCmpUle: "cmpule", OpCmpSlt: "cmpslt",
}

// String returns the conventional spelling of the operator.
func (op BinOp) String() string {
	if int(op) < len(binOpNames) {
		return binOpNames[op]
	}
	return fmt.Sprintf("binop(%d)", uint8(op))
}

// isCompare reports whether the operator is one of the 0/1-valued
// comparison operators.
func (op BinOp) isCompare() bool {
	switch op {
	case OpCmpEq, OpCmpUlt, OpCmpUle, OpCmpSlt:
		return true
	}
	return false
}

// Eval applies the operator to two concrete machine words.
func (op BinOp) Eval(a, b uint64) uint64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return a << (b & 63)
	case OpShr:
		return a >> (b & 63)
	case OpCmpEq:
		return b2i(a == b)
	case OpCmpUlt:
		return b2i(a < b)
	case OpCmpUle:
		return b2i(a <= b)
	case OpCmpSlt:
		return b2i(int64(a) < int64(b))
	}
	panic(fmt.Sprintf("logic: unknown binop %d", op))
}

func b2i(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Expr is a first-order expression denoting a 64-bit machine word
// (or, for terms of sort "memory", a memory state; the two sorts are
// kept apart by construction, as in the paper's rm pseudo-register).
type Expr interface {
	isExpr()
	// String renders the expression in a fully parenthesized
	// human-readable syntax.
	String() string
}

// Const is an integer literal in [0, 2^64).
type Const struct{ Val uint64 }

// Var is a named variable: a machine register (r0..r10), the memory
// pseudo-register rm, or a logical variable bound by a quantifier.
type Var struct{ Name string }

// Bin applies a binary operator to two word-sorted expressions.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// Sel is sel(mem, addr): the 64-bit word at address addr in memory
// state mem.
type Sel struct{ Mem, Addr Expr }

// Upd is upd(mem, addr, val): the memory state obtained from mem by
// storing val at addr.
type Upd struct{ Mem, Addr, Val Expr }

func (Const) isExpr() {}
func (Var) isExpr()   {}
func (Bin) isExpr()   {}
func (Sel) isExpr()   {}
func (Upd) isExpr()   {}

func (c Const) String() string {
	if c.Val >= 1<<63 {
		// Render small negative two's-complement constants negatively
		// for readability (e.g. -8 rather than 18446744073709551608).
		if neg := -c.Val; neg <= 1<<16 {
			return fmt.Sprintf("-%d", neg)
		}
		return fmt.Sprintf("%#x", c.Val)
	}
	return fmt.Sprintf("%d", c.Val)
}

func (v Var) String() string { return v.Name }

func (b Bin) String() string { return exprString(b) }
func (s Sel) String() string { return exprString(s) }
func (u Upd) String() string { return exprString(u) }

// exprString renders e into one buffer, in time linear in the result.
func exprString(e Expr) string {
	var sb strings.Builder
	writeExpr(&sb, e)
	return sb.String()
}

// writeExpr appends the rendering of e to sb: "(l op r)", "op(l, r)"
// for the comparison operators, "sel(m, a)" and "upd(m, a, v)".
func writeExpr(sb *strings.Builder, e Expr) {
	switch e := e.(type) {
	case Bin:
		if e.Op.isCompare() {
			sb.WriteString(e.Op.String())
			sb.WriteByte('(')
			writeExpr(sb, e.L)
			sb.WriteString(", ")
			writeExpr(sb, e.R)
		} else {
			sb.WriteByte('(')
			writeExpr(sb, e.L)
			sb.WriteByte(' ')
			sb.WriteString(e.Op.String())
			sb.WriteByte(' ')
			writeExpr(sb, e.R)
		}
	case Sel:
		sb.WriteString("sel(")
		writeExpr(sb, e.Mem)
		sb.WriteString(", ")
		writeExpr(sb, e.Addr)
	case Upd:
		sb.WriteString("upd(")
		writeExpr(sb, e.Mem)
		sb.WriteString(", ")
		writeExpr(sb, e.Addr)
		sb.WriteString(", ")
		writeExpr(sb, e.Val)
	case nil:
		sb.WriteString("%!s(<nil>)") // as fmt renders a nil operand
		return
	default:
		sb.WriteString(e.String())
		return
	}
	sb.WriteByte(')')
}

// Convenience constructors.

// C returns the constant expression with the given value.
func C(v uint64) Expr { return Const{v} }

// CI returns the constant expression for a (possibly negative) signed
// value, encoded in two's complement.
func CI(v int64) Expr { return Const{uint64(v)} }

// V returns the variable with the given name.
func V(name string) Expr { return Var{name} }

// Add returns l ⊕ r.
func Add(l, r Expr) Expr { return Bin{OpAdd, l, r} }

// Sub returns l ⊖ r.
func Sub(l, r Expr) Expr { return Bin{OpSub, l, r} }

// And2 returns the bitwise and of l and r.
func And2(l, r Expr) Expr { return Bin{OpAnd, l, r} }

// Or2 returns the bitwise or of l and r.
func Or2(l, r Expr) Expr { return Bin{OpOr, l, r} }

// Xor2 returns the bitwise xor of l and r.
func Xor2(l, r Expr) Expr { return Bin{OpXor, l, r} }

// Shl returns l shifted left by r bits.
func Shl(l, r Expr) Expr { return Bin{OpShl, l, r} }

// Shr returns l shifted right (logically) by r bits.
func Shr(l, r Expr) Expr { return Bin{OpShr, l, r} }

// SelE returns sel(mem, addr).
func SelE(mem, addr Expr) Expr { return Sel{mem, addr} }

// UpdE returns upd(mem, addr, val).
func UpdE(mem, addr, val Expr) Expr { return Upd{mem, addr, val} }

// ExprEqual reports structural equality of two expressions.
func ExprEqual(a, b Expr) bool {
	switch a := a.(type) {
	case Const:
		b, ok := b.(Const)
		return ok && a.Val == b.Val
	case Var:
		b, ok := b.(Var)
		return ok && a.Name == b.Name
	case Bin:
		b, ok := b.(Bin)
		return ok && a.Op == b.Op && ExprEqual(a.L, b.L) && ExprEqual(a.R, b.R)
	case Sel:
		b, ok := b.(Sel)
		return ok && ExprEqual(a.Mem, b.Mem) && ExprEqual(a.Addr, b.Addr)
	case Upd:
		b, ok := b.(Upd)
		return ok && ExprEqual(a.Mem, b.Mem) && ExprEqual(a.Addr, b.Addr) && ExprEqual(a.Val, b.Val)
	case nil:
		return b == nil
	}
	panic(fmt.Sprintf("logic: unknown expr %T", a))
}

// SubstExpr replaces every free occurrence of the variable named v in e
// with repl. Expressions have no binders, so no capture is possible here.
func SubstExpr(e Expr, v string, repl Expr) Expr {
	switch e := e.(type) {
	case Const:
		return e
	case Var:
		if e.Name == v {
			return repl
		}
		return e
	case Bin:
		return Bin{e.Op, SubstExpr(e.L, v, repl), SubstExpr(e.R, v, repl)}
	case Sel:
		return Sel{SubstExpr(e.Mem, v, repl), SubstExpr(e.Addr, v, repl)}
	case Upd:
		return Upd{SubstExpr(e.Mem, v, repl), SubstExpr(e.Addr, v, repl), SubstExpr(e.Val, v, repl)}
	}
	panic(fmt.Sprintf("logic: unknown expr %T", e))
}

// ExprVars adds the names of all variables occurring in e to set.
func ExprVars(e Expr, set map[string]bool) {
	switch e := e.(type) {
	case Const:
	case Var:
		set[e.Name] = true
	case Bin:
		ExprVars(e.L, set)
		ExprVars(e.R, set)
	case Sel:
		ExprVars(e.Mem, set)
		ExprVars(e.Addr, set)
	case Upd:
		ExprVars(e.Mem, set)
		ExprVars(e.Addr, set)
		ExprVars(e.Val, set)
	default:
		panic(fmt.Sprintf("logic: unknown expr %T", e))
	}
}

// EvalExpr evaluates a closed, memory-free expression. env supplies
// values for variables; evaluation fails (ok == false) if the expression
// mentions a variable absent from env or contains sel/upd terms.
func EvalExpr(e Expr, env map[string]uint64) (val uint64, ok bool) {
	switch e := e.(type) {
	case Const:
		return e.Val, true
	case Var:
		v, ok := env[e.Name]
		return v, ok
	case Bin:
		l, ok := EvalExpr(e.L, env)
		if !ok {
			return 0, false
		}
		r, ok := EvalExpr(e.R, env)
		if !ok {
			return 0, false
		}
		return e.Op.Eval(l, r), true
	case Sel, Upd:
		return 0, false
	}
	panic(fmt.Sprintf("logic: unknown expr %T", e))
}

// exprSize returns the number of AST nodes in e (used for bounds in the
// prover and for size accounting in tests).
func exprSize(e Expr) int {
	switch e := e.(type) {
	case Const, Var:
		return 1
	case Bin:
		return 1 + exprSize(e.L) + exprSize(e.R)
	case Sel:
		return 1 + exprSize(e.Mem) + exprSize(e.Addr)
	case Upd:
		return 1 + exprSize(e.Mem) + exprSize(e.Addr) + exprSize(e.Val)
	}
	panic(fmt.Sprintf("logic: unknown expr %T", e))
}

// ExprSize returns the number of AST nodes in e.
func ExprSize(e Expr) int { return exprSize(e) }

// indent is a shared helper for multi-line pretty printers.
func indent(s, prefix string) string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n")
}
