package vcgen_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	pcc "repro"
	"repro/internal/alpha"
	"repro/internal/chaos"
	"repro/internal/filters"
	"repro/internal/lf"
	"repro/internal/logic"
	"repro/internal/pccbin"
	"repro/internal/policy"
	"repro/internal/vcgen"
)

// The differential tests hold Gen, which substitutes and normalizes in
// one pass and keeps what a substitution leaves alone, to the
// reference generator of ref_test.go, which normalizes whole trees:
// both must produce PredEqual safety predicates, obligations and
// per-instruction VCs, or fail with the same error. Producer and
// consumer share Gen, so any drift here would strand every certified
// binary.

// compareGen runs both generators on one input and fails the test on
// any difference. It reports whether the generators accepted.
func compareGen(t testing.TB, name string, prog []alpha.Instr, pre, post logic.Pred, inv map[int]logic.Pred) bool {
	t.Helper()
	got, err := vcgen.Gen(prog, pre, post, inv)
	want, refErr := vcgen.RefGen(prog, pre, post, inv)
	if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
		t.Fatalf("%s: error %v, reference %v", name, err, refErr)
	}
	if err != nil {
		return false
	}
	if !logic.PredEqual(got.SP, want.SP) {
		t.Fatalf("%s: SP\n  %s\nreference\n  %s", name, got.SP, want.SP)
	}
	if len(got.Obligations) != len(want.Obligations) {
		t.Fatalf("%s: %d obligations, reference %d", name, len(got.Obligations), len(want.Obligations))
	}
	for i, ob := range got.Obligations {
		ref := want.Obligations[i]
		if ob.PC != ref.PC || !logic.PredEqual(ob.Assume, ref.Assume) || !logic.PredEqual(ob.VC, ref.VC) {
			t.Fatalf("%s: obligation %d differs: pc %d %s ⇒ %s\nreference pc %d %s ⇒ %s",
				name, i, ob.PC, ob.Assume, ob.VC, ref.PC, ref.Assume, ref.VC)
		}
	}
	if len(got.VCs) != len(want.VCs) {
		t.Fatalf("%s: %d VCs, reference %d", name, len(got.VCs), len(want.VCs))
	}
	for pc := range got.VCs {
		if !logic.PredEqual(got.VCs[pc], want.VCs[pc]) {
			t.Fatalf("%s: vc[%d]\n  %s\nreference\n  %s", name, pc, got.VCs[pc], want.VCs[pc])
		}
	}
	return true
}

func mustAssemble(t testing.TB, src string) *alpha.Assembled {
	t.Helper()
	a, err := alpha.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

const resourceSrc = `
        ADDQ  r0, 8, r1
        LDQ   r0, 8(r0)
        LDQ   r2, -8(r1)
        ADDQ  r0, 1, r0
        BEQ   r2, L1
        STQ   r0, 0(r1)
L1:     RET
`

// TestGenMatchesReferenceOnPaperPrograms: the four paper filters, the
// §2 resource-access program, and both checksum loops with their
// invariants.
func TestGenMatchesReferenceOnPaperPrograms(t *testing.T) {
	pf := policy.PacketFilter()
	for _, f := range filters.All {
		a := mustAssemble(t, filters.Source(f))
		if !compareGen(t, f.String(), a.Prog, pf.Pre, pf.Post, nil) {
			t.Fatalf("%v rejected", f)
		}
	}
	ra := policy.ResourceAccess()
	if !compareGen(t, "resource access", mustAssemble(t, resourceSrc).Prog, ra.Pre, ra.Post, nil) {
		t.Fatal("resource access rejected")
	}
	for _, c := range []struct {
		name string
		src  string
		inv  logic.Pred
	}{
		{"checksum", filters.SrcChecksum, filters.ChecksumInvariant()},
		{"checksum32", filters.SrcChecksumWord32, filters.ChecksumWord32Invariant()},
	} {
		a := mustAssemble(t, c.src)
		inv := map[int]logic.Pred{a.Labels["loop"]: c.inv}
		if !compareGen(t, c.name, a.Prog, pf.Pre, pf.Post, inv) {
			t.Fatalf("%s rejected", c.name)
		}
	}
}

// TestGenMatchesReferenceCapture: invariants and postconditions that
// bind a register name force SubstNorm's capture fallback (the
// substituted value mentions the bound name, so Subst renames it) and
// its shadowing case (the bound name is the substituted register).
func TestGenMatchesReferenceCapture(t *testing.T) {
	a := mustAssemble(t, `
        ADDQ   r4, 8, r5
        LDA    r6, 16(r5)
loop:   LDQ    r7, 0(r1)
        SUBQ   r5, 1, r5
        BNE    r5, loop
        ADDQ   r5, r4, r3
        RET
`)
	inv := logic.MustParsePred("(ALL r4. (r4 < r5 => rd(r1 + (r4 & 7)))) /\\ (ALL r5. r5 <= r6 + r5) /\\ r5 <> 0")
	post := logic.MustParsePred("ALL r4. (r4 < r3 => r4 < r5 + r6)")
	pre := policy.PacketFilter().Pre
	if !compareGen(t, "capture", a.Prog, pre, post, map[int]logic.Pred{a.Labels["loop"]: inv}) {
		t.Fatal("capture program rejected")
	}
	// The fallback really ran: the entry VC quantifies a renamed r4.
	res, err := vcgen.Gen(a.Prog, pre, post, map[int]logic.Pred{a.Labels["loop"]: inv})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.VCs[0].String(); !strings.Contains(s, "ALL r4'1.") {
		t.Fatalf("entry VC has no renamed binder: %s", s)
	}
}

// TestGenMatchesReferenceOnChaos: the programs and invariant tables of
// 300 chaos mutants of the certified paper binaries (60 under -short).
// Mutants whose code or invariants do not decode never reach a VC
// generator and are skipped.
func TestGenMatchesReferenceOnChaos(t *testing.T) {
	bases, err := chaos.PaperBases()
	if err != nil {
		t.Fatal(err)
	}
	trials := 300
	if testing.Short() {
		trials = 60
	}
	rng := rand.New(rand.NewSource(0x7C6E))
	muts := chaos.Mutators()
	verdicts := map[string]int{}
	for trial := 0; trial < trials; trial++ {
		base := bases[rng.Intn(len(bases))]
		m := muts[rng.Intn(len(muts))]
		verdicts[genMutant(t, fmt.Sprintf("%s/%s/%d", base.Name, m.Name, trial), m.Fn(rng, base), base.Policy)]++
	}
	t.Logf("verdicts over %d mutants: %v", trials, verdicts)
	if verdicts["generated"] == 0 {
		t.Fatalf("no mutant reached the VC generators: %v", verdicts)
	}
}

func genMutant(t *testing.T, name string, binary []byte, pol *policy.Policy) string {
	lim := pcc.DefaultLimits()
	bin, err := pccbin.UnmarshalWithLimits(binary, pccbin.Limits{
		MaxTermNodes: lim.MaxTermNodes, MaxTermDepth: lim.MaxTermDepth})
	if err != nil {
		return "skipped"
	}
	prog, err := alpha.Decode(bin.Code)
	if err != nil {
		return "skipped"
	}
	inv, err := bin.DecodeInvariants()
	if err != nil {
		return "skipped"
	}
	if !compareGen(t, name, prog, pol.Pre, pol.Post, inv) {
		return "rejected"
	}
	return "generated"
}

// randProgram returns a random program of straight-line code and
// forward branches ending in RET: every register read or written is
// one of r0..r10 or (for reads) r31.
func randProgram(rng *rand.Rand, n int) []alpha.Instr {
	reg := func() alpha.Reg {
		if rng.Intn(12) == 0 {
			return alpha.RegZero
		}
		return alpha.Reg(rng.Intn(alpha.NumRegs))
	}
	dst := func() alpha.Reg { return alpha.Reg(rng.Intn(alpha.NumRegs)) }
	ops := []alpha.Op{alpha.LDQ, alpha.STQ, alpha.LDA, alpha.ADDQ, alpha.SUBQ, alpha.MULQ,
		alpha.AND, alpha.BIS, alpha.XOR, alpha.SLL, alpha.SRL, alpha.CMPEQ, alpha.CMPULT,
		alpha.CMPULE, alpha.BEQ, alpha.BNE, alpha.BGE, alpha.BLT, alpha.BR, alpha.RET}
	prog := make([]alpha.Instr, n)
	for pc := range prog {
		op := ops[rng.Intn(len(ops))]
		if pc == n-1 {
			op = alpha.RET
		}
		ins := alpha.Instr{Op: op}
		switch op.Class() {
		case alpha.ClassMem:
			ins.Ra, ins.Rb = reg(), reg()
			if op != alpha.STQ {
				ins.Ra = dst()
			}
			ins.Disp = int16(8 * (rng.Intn(9) - 4))
		case alpha.ClassOperate:
			ins.Ra, ins.Rc = reg(), dst()
			if rng.Intn(2) == 0 {
				ins.HasLit, ins.Lit = true, uint8(rng.Intn(256))
			} else {
				ins.Rb = reg()
			}
		case alpha.ClassBranch:
			ins.Ra = reg()
			ins.Target = pc + 1 + rng.Intn(n-pc-1)
		}
		prog[pc] = ins
	}
	return prog
}

// TestGenMatchesReferenceRandom: seeded random straight-line and
// forward-branch programs under the paper's policies and under
// postconditions whose quantifiers bind register names.
func TestGenMatchesReferenceRandom(t *testing.T) {
	pf, ra := policy.PacketFilter(), policy.ResourceAccess()
	posts := []logic.Pred{
		logic.True,
		logic.MustParsePred("rd(r1 + 8) /\\ r0 <= r2"),
		logic.MustParsePred("ALL r3. (r3 < r2 => rd(r1 + r3) /\\ sel(rm, r1 + r3) <> r0)"),
		logic.MustParsePred("ALL r0. ALL i. (i < r0 + r4 => wr(r3 + (i & 8)))"),
		logic.MustParsePred("r5 = 0 \\/ (ALL rm. sel(rm, r6) = r7)"),
	}
	pres := []logic.Pred{pf.Pre, ra.Pre}
	n := 400
	if testing.Short() {
		n = 80
	}
	rng := rand.New(rand.NewSource(0xC0DE))
	for i := 0; i < n; i++ {
		prog := randProgram(rng, 1+rng.Intn(24))
		compareGen(t, fmt.Sprintf("random %d", i), prog,
			pres[rng.Intn(len(pres))], posts[rng.Intn(len(posts))], nil)
	}
}

// FuzzVCGenDifferential: program bytes the decoder accepts go through
// both generators, which must agree on the result or both reject.
// Every backward-branch target gets the packet-filter precondition as
// its invariant, so loops reach the generators too.
func FuzzVCGenDifferential(f *testing.F) {
	for _, src := range []string{filters.Source(filters.Filter1), filters.Source(filters.Filter4),
		resourceSrc, filters.SrcChecksum} {
		a, err := alpha.Assemble(src)
		if err != nil {
			f.Fatal(err)
		}
		code, err := alpha.Encode(a.Prog)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(code)
	}
	pf := policy.PacketFilter()
	f.Fuzz(func(t *testing.T, code []byte) {
		if len(code) > 4*256 {
			return
		}
		prog, err := alpha.Decode(code)
		if err != nil {
			return
		}
		inv := map[int]logic.Pred{}
		for pc, ins := range prog {
			if ins.Op.Class() == alpha.ClassBranch && ins.Target <= pc && ins.Target >= 0 {
				inv[ins.Target] = pf.Pre
			}
		}
		compareGen(t, "fuzz", prog, pf.Pre, pf.Post, inv)
	})
}

// TestVCGenAllocsBound: the VC stage of validating Filter 4 (Gen and
// the LF encoding of its safety predicate) stays under 1,300
// allocations. Renormalizing whole trees made ~1,830; keeping what a
// substitution leaves alone makes ~800.
func TestVCGenAllocsBound(t *testing.T) {
	pf := policy.PacketFilter()
	prog := mustAssemble(t, filters.Source(filters.Filter4)).Prog
	allocs := testing.AllocsPerRun(20, func() {
		res, err := vcgen.Gen(prog, pf.Pre, pf.Post, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lf.EncodePred(res.SP); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1300 {
		t.Fatalf("Gen + EncodePred(Filter 4) made %.0f allocations, bound 1300", allocs)
	}
}
