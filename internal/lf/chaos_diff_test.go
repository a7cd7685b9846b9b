package lf_test

import (
	"math/rand"
	"testing"

	pcc "repro"
	"repro/internal/alpha"
	"repro/internal/chaos"
	"repro/internal/lf"
	"repro/internal/pccbin"
	"repro/internal/vcgen"
)

// TestCheckerMatchesReferenceOnChaos: on the paper's certified filters,
// on code-only variants of them (chaos.CodeVariants, accepted by
// construction) and on chaos mutants of them (bit flips, truncations,
// section swaps, proof grafts, depth and DAG bombs), the production
// checker and the reference checker (ref_test.go) agree on verdict
// class and on Steps, and the checker's depth is back at 0. Every
// variant must check ok; the unmutated bases are not counted.
// Mutants the decoder or the VC generator already rejects never reach
// a checker and are skipped. The signature fingerprint and policy name
// are not compared first, so mutants that would die on those checks in
// pcc.Validate still exercise the checkers.
func TestCheckerMatchesReferenceOnChaos(t *testing.T) {
	bases, err := chaos.PaperBases()
	if err != nil {
		t.Fatal(err)
	}
	sig := lf.NewSignature()
	lim := pcc.DefaultLimits()
	// Smaller fuel than DefaultLimits keeps the DAG bombs cheap for the
	// reference; both checkers run under the same budget.
	const maxSteps = 1 << 17
	check := func(name string, binary []byte, base chaos.Base) string {
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
		gen, err := vcgen.Gen(prog, base.Policy.Pre, base.Policy.Post, inv)
		if err != nil {
			return "skipped"
		}
		spT, err := lf.EncodePred(gen.SP)
		if err != nil {
			return "skipped"
		}
		want := lf.App{F: lf.Konst{Name: lf.CPf}, X: spT}
		c := lf.NewChecker(sig)
		c.MaxSteps, c.MaxDepth = maxSteps, lim.MaxTermDepth
		err = c.Check(bin.Proof, want)
		refSteps, refErr := lf.RefCheck(sig, bin.Proof, want, maxSteps, lim.MaxTermDepth)
		if got, want := lf.ErrorClass(err), lf.ErrorClass(refErr); got != want {
			t.Fatalf("%s: verdict %s, reference %s\n  err: %v\n  ref: %v", name, got, want, err, refErr)
		}
		if c.Steps != refSteps {
			t.Fatalf("%s: steps %d, reference %d", name, c.Steps, refSteps)
		}
		if d := lf.CheckerDepth(c); d != 0 {
			t.Fatalf("%s: depth %d after the check", name, d)
		}
		return lf.ErrorClass(err)
	}
	for _, b := range bases {
		if got := check(b.Name, b.Binary, b); got != "ok" {
			t.Fatalf("%s: certified base checks as %s", b.Name, got)
		}
	}
	variants, err := chaos.CodeVariants(2)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := map[string]int{}
	for _, v := range variants {
		got := check(v.Name, v.Binary, v)
		if got != "ok" {
			t.Fatalf("%s: code-only variant checks as %s", v.Name, got)
		}
		verdicts[got]++
	}
	trials := 300
	if testing.Short() {
		trials = 60
	}
	rng := rand.New(rand.NewSource(0xD1FF))
	muts := chaos.Mutators()
	for trial := 0; trial < trials; trial++ {
		base := bases[rng.Intn(len(bases))]
		m := muts[rng.Intn(len(muts))]
		verdicts[check(base.Name+"/"+m.Name, m.Fn(rng, base), base)]++
	}
	t.Logf("verdicts over %d variants and %d mutants: %v", len(variants), trials, verdicts)
	if verdicts["type"] == 0 || verdicts["ok"] == 0 {
		t.Fatalf("mutant corpus never reached both verdicts: %v", verdicts)
	}
}
