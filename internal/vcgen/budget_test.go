package vcgen_test

import (
	"errors"
	"sort"
	"testing"

	pcc "repro"
	"repro/internal/alpha"
	"repro/internal/filters"
	"repro/internal/lf"
	"repro/internal/logic"
	"repro/internal/policy"
	"repro/internal/sfi"
	"repro/internal/vcgen"
)

// TestBudgetHeadroom: the paper's programs (the four filters, their SFI
// hybrids and the two checksum loops) generate within a sixteenth of
// the consumer's default budget, a quarter of MaxVCNodes, and one unit
// less than a program's least budget fails with an error that reports
// the budget. The least budgets are logged, and so is what the
// checksum loops' invariants cost to decode from their LF encoding
// and to normalize, which a consumer charges to the same budget.
func TestBudgetHeadroom(t *testing.T) {
	budget := pcc.DefaultLimits().MaxVCNodes / 4
	pf, seg := policy.PacketFilter(), policy.SFISegment()
	type input struct {
		name string
		prog []alpha.Instr
		pol  *policy.Policy
		inv  map[int]logic.Pred
	}
	var inputs []input
	for _, f := range filters.All {
		rw, err := sfi.Rewrite(filters.Prog(f))
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs,
			input{f.String(), filters.Prog(f), pf, nil},
			input{f.String() + "/sfi", rw, seg, nil})
	}
	for _, c := range []struct {
		name, src string
		inv       logic.Pred
	}{
		{"checksum", filters.SrcChecksum, filters.ChecksumInvariant()},
		{"checksum32", filters.SrcChecksumWord32, filters.ChecksumWord32Invariant()},
	} {
		a := mustAssemble(t, c.src)
		inputs = append(inputs, input{c.name, a.Prog, pf, map[int]logic.Pred{a.Labels["loop"]: c.inv}})
		enc, err := lf.EncodeStatePred(c.inv)
		if err != nil {
			t.Fatal(err)
		}
		fuel := budget
		dec, err := lf.DecodePredFuel(enc, &fuel)
		if err != nil {
			t.Fatalf("%s invariant: %v", c.name, err)
		}
		decoded := budget - fuel
		logic.NormPredFuel(dec, &fuel)
		t.Logf("%-12s invariant: %d units to decode, %d to normalize", c.name, decoded, budget-fuel-decoded)
	}
	for _, in := range inputs {
		gen := func(b int) error {
			_, err := vcgen.Gen(in.prog, in.pol.Pre, in.pol.Post, in.inv, b)
			return err
		}
		if err := gen(budget / 16); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		least := 1 + sort.Search(budget/16, func(i int) bool { return gen(i+1) == nil })
		var spent interface{ VCBudget() int }
		if err := gen(least - 1); least > 1 && (!errors.As(err, &spent) || spent.VCBudget() != least-1) {
			t.Fatalf("%s: budget %d of least %d: %v", in.name, least-1, least, err)
		}
		t.Logf("%-12s least budget %6d of %d", in.name, least, budget)
	}
}
