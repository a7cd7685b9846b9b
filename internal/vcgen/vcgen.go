// Package vcgen implements the Floyd-style verification-condition
// generator of Necula & Lee (OSDI '96, Figure 4). Given a program in
// the Alpha subset, a precondition, a postcondition, and a table of
// loop invariants for backward-branch targets (the paper's §4
// convention), it computes the safety predicate
//
//	SP(Π, Pre, Post) = ∀r0…∀r10.∀rm. (Pre ⇒ VC₀) ∧ ⋀_c (Inv_c ⇒ VC_c)
//
// whose provability guarantees (Safety Theorem 2.1) that execution on
// the abstract machine never blocks on an rd/wr check and, on
// termination, satisfies Post.
//
// The generator normalizes every predicate it produces with the trusted
// normalizer of internal/logic; both producer and consumer run this
// same code, so proofs match the consumer's VC syntactically.
package vcgen

import (
	"fmt"
	"sort"

	"repro/internal/alpha"
	"repro/internal/logic"
)

// regVars holds RegVar's result for every register; regNames the
// names of the writable ones and rm, in the paper's order.
var regVars, regNames = func() (vars [alpha.RegZero + 1]logic.Expr, names [alpha.NumRegs + 1]string) {
	for r := range vars {
		vars[r] = logic.V(fmt.Sprintf("r%d", r))
	}
	vars[alpha.RegZero] = logic.C(0)
	for r := 0; r < alpha.NumRegs; r++ {
		names[r] = fmt.Sprintf("r%d", r)
	}
	names[alpha.NumRegs] = "rm"
	return vars, names
}()

// RegVar returns the logic variable naming register r; the zero
// register is the constant 0.
func RegVar(r alpha.Reg) logic.Expr {
	if int(r) < len(regVars) {
		return regVars[r]
	}
	return logic.V(fmt.Sprintf("r%d", r))
}

// MemVar is the logic variable naming the memory pseudo-register.
var MemVar = logic.V("rm")

// RegNames lists the quantified machine-state variables of a safety
// predicate: r0..r10 and rm, in the paper's order.
func RegNames() []string {
	return append([]string(nil), regNames[:]...)
}

// Obligation is one conjunct of the safety predicate: the verification
// condition of an acyclic fragment, to be established from its
// assumption (the precondition for the entry fragment, a loop invariant
// otherwise).
type Obligation struct {
	// PC is the fragment's entry instruction index (0 for the program
	// entry).
	PC int
	// Assume is Pre or the invariant at PC.
	Assume logic.Pred
	// VC is the fragment's verification condition.
	VC logic.Pred
}

// Result carries the generated safety predicate and its parts.
type Result struct {
	// SP is the closed safety predicate.
	SP logic.Pred
	// Obligations are the per-fragment implications, in PC order
	// (entry first).
	Obligations []Obligation
	// VCs holds the per-instruction verification conditions, VCs[pc]
	// being the Figure 4 predicate of instruction pc (VCs[len(prog)]
	// covers falling off the end). Exposed for inspection tools.
	VCs []logic.Pred
}

// Gen computes the safety predicate of prog under (pre, post) with the
// given invariant table (instruction index of each backward-branch
// target ↦ invariant). It fails if a backward branch targets a point
// with no invariant, mirroring the paper's requirement that the PCC
// binary carry an invariant for every loop.
//
// Every predicate Gen builds is in the normal form of logic.NormPred,
// but Gen never renormalizes a whole tree: Pre, Post and each
// invariant are normalized once, each vc[pc] is the successor's
// (normal) VC under logic.SubstNorm, which keeps every subformula the
// substitution leaves alone, and the connectives Gen adds go through
// the local rules (logic.NormAnd, NormImp, NormAll).
//
// budget, when given and positive, bounds the work, in the units of
// logic.SubstNorm's fuel, and Gen fails with an error that has a
// VCBudget method once it is spent; without one Gen runs unbounded. A
// VC is a tree that can double in size with each instruction (MULQ
// r1, r1, r1 squares r1's value), and each substitution walks it, so
// the cost of generating from untrusted code must be bounded by more
// than its length. The safety predicate's tree size is charged too,
// since its encoding walks it. The consumer passes a quarter of its
// VC-size limit; producers generate from their own code and pass none.
func Gen(prog []alpha.Instr, pre, post logic.Pred, invariants map[int]logic.Pred, budget ...int) (*Result, error) {
	var fuel *int // nil: unbounded
	if len(budget) > 0 && budget[0] > 0 {
		left := budget[0]
		fuel = &left
	}
	if err := alpha.Validate(prog); err != nil {
		return nil, err
	}
	for pc := range invariants {
		if pc < 0 || pc >= len(prog) {
			return nil, fmt.Errorf("vcgen: invariant at pc %d outside program", pc)
		}
	}
	post = logic.NormPred(post)
	var normInv map[int]logic.Pred
	if len(invariants) > 0 {
		// The invariants come with the untrusted code, so normalizing
		// them is charged too.
		normInv = make(map[int]logic.Pred, len(invariants))
		for pc, inv := range invariants {
			if normInv[pc] = logic.NormPredFuel(inv, fuel); fuel != nil && *fuel < 0 {
				return nil, &budgetError{pc: pc, budget: budget[0]}
			}
		}
	}

	// vc[pc] is the Figure 4 verification condition of instruction pc;
	// vc[len(prog)] covers falling off the end (treated as RET).
	vc := make([]logic.Pred, len(prog)+1)
	vc[len(prog)] = post

	// refVC is the predicate a *predecessor* uses for control reaching
	// pc: the invariant if pc is a cut point, the computed VC
	// otherwise.
	refVC := func(from, to int) (logic.Pred, error) {
		if inv, ok := normInv[to]; ok {
			return inv, nil
		}
		if to <= from {
			return nil, fmt.Errorf(
				"vcgen: pc %d: backward branch to %d without a loop invariant", from, to)
		}
		return vc[to], nil
	}

	for pc := len(prog) - 1; pc >= 0; pc-- {
		p, err := instrVC(prog[pc], pc, vc, refVC, post, fuel)
		if err != nil {
			return nil, err
		}
		if fuel != nil && *fuel < 0 {
			return nil, &budgetError{pc: pc, budget: budget[0]}
		}
		vc[pc] = p
	}

	res := &Result{VCs: vc}
	res.Obligations = append(res.Obligations, Obligation{
		PC:     0,
		Assume: logic.NormPred(pre),
		VC:     vc[0],
	})
	cuts := make([]int, 0, len(invariants))
	for pc := range invariants {
		cuts = append(cuts, pc)
	}
	sort.Ints(cuts)
	for _, pc := range cuts {
		res.Obligations = append(res.Obligations, Obligation{
			PC:     pc,
			Assume: normInv[pc],
			VC:     vc[pc],
		})
	}

	// ∀r0…rm. ⋀(Assume ⇒ VC), right-nested as logic.Conj builds it.
	obs := res.Obligations
	sp := logic.NormImp(obs[len(obs)-1].Assume, obs[len(obs)-1].VC)
	for i := len(obs) - 2; i >= 0; i-- {
		sp = logic.NormAnd(logic.NormImp(obs[i].Assume, obs[i].VC), sp)
	}
	for i := len(regNames) - 1; i >= 0; i-- {
		sp = logic.NormAll(regNames[i], sp)
	}
	if fuel != nil {
		// Substituting for the empty name, which no variable has,
		// visits every node of sp's tree and changes none.
		if logic.SubstNorm(sp, "", logic.C(0), fuel); *fuel < 0 {
			return nil, &budgetError{pc: -1, budget: budget[0]}
		}
	}
	res.SP = sp
	return res, nil
}

// budgetError is Gen's failure once its work exceeds the caller's
// budget, at instruction pc (-1: in the safety predicate). A caller
// tells it from a malformed program by its VCBudget method, the way
// net.Error's Timeout tells a timeout from other failures.
type budgetError struct{ pc, budget int }

func (e *budgetError) Error() string {
	if e.pc < 0 {
		return fmt.Sprintf("vcgen: safety predicate exceeds the work budget of %d", e.budget)
	}
	return fmt.Sprintf("vcgen: pc %d: VC generation exceeds its work budget of %d", e.pc, e.budget)
}

// VCBudget returns the budget Gen ran out of.
func (e *budgetError) VCBudget() int { return e.budget }

// instrVC implements the per-instruction rules of Figure 4 (extended to
// the full subset). Its operands (the VCs in vc, refVC's results and
// post) are normal, and so is its result.
func instrVC(ins alpha.Instr, pc int, vc []logic.Pred,
	refVC func(from, to int) (logic.Pred, error), post logic.Pred, fuel *int) (logic.Pred, error) {

	next := vc[pc+1]
	regName := func(r alpha.Reg) (string, error) {
		if r == alpha.RegZero {
			return "", fmt.Errorf("vcgen: pc %d: write to r31", pc)
		}
		return regNames[r], nil
	}

	switch ins.Op {
	case alpha.LDQ:
		addr := logic.Add(RegVar(ins.Rb), logic.CI(int64(ins.Disp)))
		rd, err := regName(ins.Ra)
		if err != nil {
			return nil, err
		}
		return logic.NormAnd(
			logic.NormPred(logic.RdP(addr)),
			logic.SubstNorm(next, rd, logic.SelE(MemVar, addr), fuel),
		), nil

	case alpha.STQ:
		addr := logic.Add(RegVar(ins.Rb), logic.CI(int64(ins.Disp)))
		return logic.NormAnd(
			logic.NormPred(logic.WrP(addr)),
			logic.SubstNorm(next, "rm", logic.UpdE(MemVar, addr, RegVar(ins.Ra)), fuel),
		), nil

	case alpha.LDA:
		rd, err := regName(ins.Ra)
		if err != nil {
			return nil, err
		}
		val := logic.Add(RegVar(ins.Rb), logic.CI(int64(ins.Disp)))
		return logic.SubstNorm(next, rd, val, fuel), nil

	case alpha.ADDQ, alpha.SUBQ, alpha.MULQ, alpha.AND, alpha.BIS, alpha.XOR,
		alpha.SLL, alpha.SRL, alpha.CMPEQ, alpha.CMPULT, alpha.CMPULE:
		rd, err := regName(ins.Rc)
		if err != nil {
			return nil, err
		}
		var opnd logic.Expr
		if ins.HasLit {
			opnd = logic.C(uint64(ins.Lit))
		} else {
			opnd = RegVar(ins.Rb)
		}
		val := logic.Bin{Op: aluBinOp(ins.Op), L: RegVar(ins.Ra), R: opnd}
		return logic.SubstNorm(next, rd, val, fuel), nil

	case alpha.BEQ, alpha.BNE, alpha.BGE, alpha.BLT:
		taken, notTaken := branchConds(ins)
		target, err := refVC(pc, ins.Target)
		if err != nil {
			return nil, err
		}
		return logic.NormAnd(
			logic.NormImp(logic.NormPred(taken), target),
			logic.NormImp(logic.NormPred(notTaken), next),
		), nil

	case alpha.BR:
		return refVC(pc, ins.Target)

	case alpha.RET:
		return post, nil
	}
	return nil, fmt.Errorf("vcgen: pc %d: unsupported op %v", pc, ins.Op)
}

func aluBinOp(op alpha.Op) logic.BinOp {
	switch op {
	case alpha.ADDQ:
		return logic.OpAdd
	case alpha.SUBQ:
		return logic.OpSub
	case alpha.MULQ:
		return logic.OpMul
	case alpha.AND:
		return logic.OpAnd
	case alpha.BIS:
		return logic.OpOr
	case alpha.XOR:
		return logic.OpXor
	case alpha.SLL:
		return logic.OpShl
	case alpha.SRL:
		return logic.OpShr
	case alpha.CMPEQ:
		return logic.OpCmpEq
	case alpha.CMPULT:
		return logic.OpCmpUlt
	case alpha.CMPULE:
		return logic.OpCmpUle
	}
	panic(fmt.Sprintf("vcgen: not an ALU op: %v", op))
}

// branchConds returns the taken and not-taken conditions of a
// conditional branch. Signedness is expressed over the unsigned order:
// ra ≥s 0 ⇔ ra <u 2^63.
func branchConds(ins alpha.Instr) (taken, notTaken logic.Pred) {
	ra := RegVar(ins.Ra)
	signBit := logic.C(1 << 63)
	switch ins.Op {
	case alpha.BEQ:
		return logic.Eq(ra, logic.C(0)), logic.Ne(ra, logic.C(0))
	case alpha.BNE:
		return logic.Ne(ra, logic.C(0)), logic.Eq(ra, logic.C(0))
	case alpha.BGE:
		return logic.Ult(ra, signBit), logic.Ule(signBit, ra)
	case alpha.BLT:
		return logic.Ule(signBit, ra), logic.Ult(ra, signBit)
	}
	panic(fmt.Sprintf("vcgen: not a conditional branch: %v", ins.Op))
}
