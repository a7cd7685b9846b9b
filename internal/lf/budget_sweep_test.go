package lf_test

import (
	"errors"
	"testing"

	pcc "repro"
	"repro/internal/alpha"
	"repro/internal/filters"
	"repro/internal/lf"
	"repro/internal/pccbin"
	"repro/internal/policy"
	"repro/internal/vcgen"
)

// resourceAccessSrc is the §2 resource-access program.
const resourceAccessSrc = `
        ADDQ  r0, 8, r1
        LDQ   r0, 8(r0)
        LDQ   r2, -8(r1)
        ADDQ  r0, 1, r0
        BEQ   r2, L1
        STQ   r0, 0(r1)
L1:     RET
`

type paperProof struct {
	name        string
	proof, want lf.Term
}

// paperProofs certifies the four paper filters and the §2 program and
// decodes each proof from its binary, so the terms carry the DAG
// sharing a consumer sees.
func paperProofs(t *testing.T) []paperProof {
	t.Helper()
	type src struct {
		name, src string
		pol       *policy.Policy
	}
	var srcs []src
	for _, f := range filters.All {
		srcs = append(srcs, src{f.String(), filters.Source(f), policy.PacketFilter()})
	}
	srcs = append(srcs, src{"resource access", resourceAccessSrc, pcc.ResourceAccessPolicy()})
	var out []paperProof
	for _, s := range srcs {
		cert, err := pcc.Certify(s.src, s.pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		bin, err := pccbin.Unmarshal(cert.Binary)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := alpha.Decode(bin.Code)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := vcgen.Gen(prog, s.pol.Pre, s.pol.Post, nil)
		if err != nil {
			t.Fatal(err)
		}
		spT, err := lf.EncodePred(gen.SP)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, paperProof{s.name, bin.Proof, lf.App{F: lf.Konst{Name: lf.CPf}, X: spT}})
	}
	return out
}

// budgetOutcome is a verdict class with the step count it stopped at.
type budgetOutcome struct {
	class string
	steps int
}

// TestCheckerBudgetSweep: under every step budget from 1 to one past
// the proof's step count, and every depth budget from 1 to one past its
// depth, the memoizing checker stops where the reference checker stops
// — same verdict class, same Steps — and leaves its depth at 0. The
// full sweep covers every boundary at which a reused type would cross
// a budget. The reference outcomes come from one traced reference run
// (see RefStepDepths) and are confirmed against budgeted reference runs
// at a sample of budgets.
func TestCheckerBudgetSweep(t *testing.T) {
	sig := lf.NewSignature()
	for _, p := range paperProofs(t) {
		depths, err := lf.RefStepDepths(sig, p.proof, p.want)
		if err != nil {
			t.Fatalf("%s: reference rejects the proof: %v", p.name, err)
		}
		total, deepest := len(depths), 0
		for _, d := range depths {
			deepest = max(deepest, d)
		}
		// firstDeeper[d] is the first step deeper than d.
		firstDeeper := make([]int, deepest+1)
		for d := range firstDeeper {
			for i, sd := range depths {
				if sd > d {
					firstDeeper[d] = i + 1
					break
				}
			}
		}
		want := func(maxSteps, maxDepth int) budgetOutcome {
			stepStop, depthStop := total+1, total+1
			if maxSteps > 0 && maxSteps < total {
				stepStop = maxSteps + 1
			}
			if maxDepth > 0 && maxDepth < deepest {
				depthStop = firstDeeper[maxDepth]
			}
			switch {
			case stepStop <= total && stepStop <= depthStop:
				return budgetOutcome{"limit:check_steps", stepStop}
			case depthStop <= total:
				return budgetOutcome{"limit:term_depth", depthStop}
			}
			return budgetOutcome{"ok", total}
		}
		check := func(maxSteps, maxDepth int) {
			c := lf.NewChecker(sig)
			c.MaxSteps, c.MaxDepth = maxSteps, maxDepth
			err := c.Check(p.proof, p.want)
			got := budgetOutcome{lf.ErrorClass(err), c.Steps}
			if w := want(maxSteps, maxDepth); got != w {
				t.Fatalf("%s, MaxSteps %d, MaxDepth %d: %v, reference %v", p.name, maxSteps, maxDepth, got, w)
			}
			if d := lf.CheckerDepth(c); d != 0 {
				t.Fatalf("%s, MaxSteps %d, MaxDepth %d: depth %d after the check", p.name, maxSteps, maxDepth, d)
			}
		}
		for m := 1; m <= total+1; m++ {
			check(m, 0)
		}
		for d := 1; d <= deepest+1; d++ {
			check(0, d)
			if d < deepest {
				for _, m := range []int{firstDeeper[d] - 2, firstDeeper[d] - 1, firstDeeper[d]} {
					check(m, d)
				}
			}
		}

		// The closed form agrees with budgeted reference runs.
		for i := 0; i <= 16; i++ {
			m, d := 1+i*total/16, 1+i*deepest/16
			for _, b := range [][2]int{{m, 0}, {0, d}} {
				steps, err := lf.RefCheck(sig, p.proof, p.want, b[0], b[1])
				if got, w := (budgetOutcome{lf.ErrorClass(err), steps}), want(b[0], b[1]); got != w {
					t.Fatalf("%s, MaxSteps %d, MaxDepth %d: reference %v, closed form %v", p.name, b[0], b[1], got, w)
				}
			}
		}
		t.Logf("%s: %d steps, depth %d", p.name, total, deepest)
	}
}

// TestCheckerInterruptPolledAcrossReuse: a proof's reused types cover
// most of its steps, and the interrupt is still polled at least once
// per 1,024 steps crossed — a check cancelled before it starts stops
// at the first stride, not at the end.
func TestCheckerInterruptPolledAcrossReuse(t *testing.T) {
	sig := lf.NewSignature()
	cause := errors.New("cancelled")
	for _, p := range paperProofs(t) {
		polls := 0
		c := lf.NewChecker(sig)
		c.Interrupt = func() error { polls++; return nil }
		if err := c.Check(p.proof, p.want); err != nil {
			t.Fatal(err)
		}
		if polls < 1 || polls > c.Steps/1024 {
			t.Errorf("%s: %d polls over %d steps", p.name, polls, c.Steps)
		}
		c = lf.NewChecker(sig)
		c.Interrupt = func() error { return cause }
		err := c.Check(p.proof, p.want)
		if !errors.Is(err, cause) || c.Steps >= 2048 {
			t.Errorf("%s: cancelled check returned %v after %d steps", p.name, err, c.Steps)
		}
		if d := lf.CheckerDepth(c); d != 0 {
			t.Errorf("%s: depth %d after an interrupted check", p.name, d)
		}
	}
}
