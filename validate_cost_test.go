package pcc

// Regression guards on the cost of validation: the LF checker's step
// counts are pinned (a change to the inference structure shows up
// here), allocation per validation is bounded (a change that loses the
// checker's term sharing shows up here), and the per-policy signature
// memo is keyed on policy content.

import (
	"runtime"
	"testing"

	"repro/internal/filters"
	"repro/internal/lf"
	"repro/internal/logic"
	"repro/internal/policy"
)

// TestCheckStepsGolden pins Checker.Steps for the four paper filters
// and the §2 resource-access proof.
func TestCheckStepsGolden(t *testing.T) {
	golden := map[filters.Filter]int{
		filters.Filter1: 3183,
		filters.Filter2: 4737,
		filters.Filter3: 10025,
		filters.Filter4: 7853,
	}
	pol := policy.PacketFilter()
	for _, f := range filters.All {
		cert, err := Certify(filters.Source(f), pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := Validate(cert.Binary, pol)
		if err != nil {
			t.Fatal(err)
		}
		if stats.CheckSteps != golden[f] {
			t.Errorf("%v: %d check steps, golden %d", f, stats.CheckSteps, golden[f])
		}
	}
	rp := ResourceAccessPolicy()
	cert, err := Certify(resourceSrc, rp, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := Validate(cert.Binary, rp)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1837; stats.CheckSteps != want {
		t.Errorf("resource access: %d check steps, golden %d", stats.CheckSteps, want)
	}
}

// TestValidateAllocsBound: validating Filter 1 stays under 1,200
// allocations. The tree-rebuilding checker made ~22,000, the sharing
// one ~4,000; checking each (subterm, binder context) once, with
// spine-form application, makes ~1,000, and ~1,300 without the memo.
func TestValidateAllocsBound(t *testing.T) {
	pol := policy.PacketFilter()
	cert, err := Certify(filters.Source(filters.Filter1), pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := Validate(cert.Binary, pol); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1200 {
		t.Fatalf("Validate(Filter 1) made %.0f allocations, bound 1200", allocs)
	}
}

// TestHeapBytesTracksAllocations: summed over many validations on one
// goroutine, ValidationStats.HeapBytes accounts for the bytes the
// runtime's own stop-the-world statistics see allocated.
func TestHeapBytesTracksAllocations(t *testing.T) {
	pol := policy.PacketFilter()
	cert, err := Certify(filters.Source(filters.Filter2), pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 200; i++ {
		_, stats, err := Validate(cert.Binary, pol)
		if err != nil {
			t.Fatal(err)
		}
		sum += stats.HeapBytes
	}
	runtime.ReadMemStats(&after)
	total := after.TotalAlloc - before.TotalAlloc
	if ratio := float64(sum) / float64(total); ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("HeapBytes sums to %d over 200 validations, runtime counted %d (ratio %.3f)", sum, total, ratio)
	}
}

// TestSignatureMemoKeyedOnContent: a policy with extra axioms gets one
// signature per distinct content — equal-content policies share it,
// and a policy differing in one schema gets its own, equal to a
// freshly built one.
func TestSignatureMemoKeyedOnContent(t *testing.T) {
	a, b := borPolicy(), borPolicy()
	if signatureFor(a) != signatureFor(b) {
		t.Fatal("equal-content policies got different signatures")
	}
	fresh := lf.NewSignatureWith(a.ExtraAxioms())
	if signatureFor(a).Digest() != fresh.Digest() {
		t.Fatal("memoized signature differs from a fresh build")
	}

	c := borPolicy()
	c.Axioms = []*logic.Schema{borAlign(), {
		Name:   "bor_align_2",
		Params: []string{"$a"},
		Concl:  logic.Eq(logic.V("$a"), logic.V("$a")),
	}}
	sc := signatureFor(c)
	if sc == signatureFor(a) || sc.Digest() == fresh.Digest() {
		t.Fatal("policies with different axioms share a signature")
	}
	if sc.Digest() != lf.NewSignatureWith(c.ExtraAxioms()).Digest() {
		t.Fatal("memoized signature differs from a fresh build")
	}
	if signatureFor(policy.PacketFilter()) != consumerSignature() {
		t.Fatal("a policy without extra axioms must use the base signature")
	}
}
