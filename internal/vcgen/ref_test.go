package vcgen

import (
	"fmt"
	"sort"

	"repro/internal/alpha"
	"repro/internal/logic"
)

// A reference copy of the VC generator as it was before it shared
// subformulas: every vc[pc] is built with logic.Subst over the
// successor's VC and then normalized as a whole tree with
// logic.NormPred, and so is the final safety predicate. The
// production Gen substitutes and normalizes in one pass and keeps
// what a substitution leaves alone; the differential tests
// (differential_test.go) require the two to produce PredEqual safety
// predicates, obligations and per-instruction VCs, and the same
// errors.

// RefGen is the reference generator.
func RefGen(prog []alpha.Instr, pre, post logic.Pred, invariants map[int]logic.Pred) (*Result, error) {
	if err := alpha.Validate(prog); err != nil {
		return nil, err
	}
	for pc := range invariants {
		if pc < 0 || pc >= len(prog) {
			return nil, fmt.Errorf("vcgen: invariant at pc %d outside program", pc)
		}
	}

	// vc[pc] is the Figure 4 verification condition of instruction pc;
	// vc[len(prog)] covers falling off the end (treated as RET).
	vc := make([]logic.Pred, len(prog)+1)
	vc[len(prog)] = logic.NormPred(post)

	// refVC is the predicate a *predecessor* uses for control reaching
	// pc: the invariant if pc is a cut point, the computed VC
	// otherwise.
	refVC := func(from, to int) (logic.Pred, error) {
		if inv, ok := invariants[to]; ok {
			return logic.NormPred(inv), nil
		}
		if to <= from {
			return nil, fmt.Errorf(
				"vcgen: pc %d: backward branch to %d without a loop invariant", from, to)
		}
		return vc[to], nil
	}

	for pc := len(prog) - 1; pc >= 0; pc-- {
		p, err := refInstrVC(prog[pc], pc, vc, refVC, post)
		if err != nil {
			return nil, err
		}
		vc[pc] = logic.NormPred(p)
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
			Assume: logic.NormPred(invariants[pc]),
			VC:     vc[pc],
		})
	}

	conjuncts := make([]logic.Pred, len(res.Obligations))
	for i, ob := range res.Obligations {
		conjuncts[i] = logic.Implies(ob.Assume, ob.VC)
	}
	sp := logic.AllOf(RegNames(), logic.Conj(conjuncts...))
	res.SP = logic.NormPred(sp)
	return res, nil
}

func refInstrVC(ins alpha.Instr, pc int, vc []logic.Pred,
	refVC func(from, to int) (logic.Pred, error), post logic.Pred) (logic.Pred, error) {

	next := vc[pc+1]
	regName := func(r alpha.Reg) (string, error) {
		if r == alpha.RegZero {
			return "", fmt.Errorf("vcgen: pc %d: write to r31", pc)
		}
		return fmt.Sprintf("r%d", r), nil
	}

	switch ins.Op {
	case alpha.LDQ:
		addr := logic.Add(RegVar(ins.Rb), logic.CI(int64(ins.Disp)))
		rd, err := regName(ins.Ra)
		if err != nil {
			return nil, err
		}
		return logic.And{
			L: logic.RdP(addr),
			R: logic.Subst(next, rd, logic.SelE(MemVar, addr)),
		}, nil

	case alpha.STQ:
		addr := logic.Add(RegVar(ins.Rb), logic.CI(int64(ins.Disp)))
		return logic.And{
			L: logic.WrP(addr),
			R: logic.Subst(next, "rm", logic.UpdE(MemVar, addr, RegVar(ins.Ra))),
		}, nil

	case alpha.LDA:
		rd, err := regName(ins.Ra)
		if err != nil {
			return nil, err
		}
		val := logic.Add(RegVar(ins.Rb), logic.CI(int64(ins.Disp)))
		return logic.Subst(next, rd, val), nil

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
		return logic.Subst(next, rd, val), nil

	case alpha.BEQ, alpha.BNE, alpha.BGE, alpha.BLT:
		taken, notTaken := branchConds(ins)
		target, err := refVC(pc, ins.Target)
		if err != nil {
			return nil, err
		}
		return logic.And{
			L: logic.Implies(taken, target),
			R: logic.Implies(notTaken, next),
		}, nil

	case alpha.BR:
		return refVC(pc, ins.Target)

	case alpha.RET:
		return logic.NormPred(post), nil
	}
	return nil, fmt.Errorf("vcgen: pc %d: unsupported op %v", pc, ins.Op)
}
