package pcc

// Regression guards on the cost of validation: the LF checker's step
// counts are pinned (a change to the inference structure shows up
// here), allocation per validation is bounded (a change that loses the
// checker's term sharing shows up here), and the per-policy signature
// memo is keyed on policy content.

import (
	"context"
	"crypto/sha256"
	"fmt"
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

// TestCertifiedBinariesGolden pins the SHA-256 of the binaries
// Certify emits for the four paper filters and the §2 resource-access
// program. Producer and consumer share the VC generator and its
// normalizer, so a change there that moves any normal form changes
// these bytes and strands every journaled binary.
func TestCertifiedBinariesGolden(t *testing.T) {
	golden := map[filters.Filter]string{
		filters.Filter1: "b6afdc0410f08724908ff06f5dce5dc10c5fb13b02879409f88411b889915eb6",
		filters.Filter2: "54cca7a6bfb3822f142e6ea126333112fdeaea682c3bfc9d9c6180c994c1b2e5",
		filters.Filter3: "26099451bc9d1e8228e680ab5fe9b6845b44b1219f0723c5725dce248f021666",
		filters.Filter4: "017a89fc68ed06027312cc8ba10de0b38afd28cfadacae84ec2d7dad76b80486",
	}
	pol := policy.PacketFilter()
	for _, f := range filters.All {
		cert, err := Certify(filters.Source(f), pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(cert.Binary)); got != golden[f] {
			t.Errorf("%v: binary SHA-256 %s, golden %s", f, got, golden[f])
		}
	}
	cert, err := Certify(resourceSrc, ResourceAccessPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x", sha256.Sum256(cert.Binary)), "bf6acb84aca645fd6371e342e7cd71bca81811baf0ed1a25791e712aa87343fc"; got != want {
		t.Errorf("resource access: binary SHA-256 %s, golden %s", got, want)
	}
}

// TestKeyerValidateAllocs: validating through a Keyer reuses the
// signature the keyer resolved, so a policy with axiom schemas pays no
// per-validation policy digest. On borPolicy the keyer path makes
// ~1,355 allocations and ValidateCtx, which looks the signature up by
// the policy's digest, ~1,440; the bound sits between them.
func TestKeyerValidateAllocs(t *testing.T) {
	pol := borPolicy()
	cert, err := Certify(orOffsetSrc, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	ky := NewKeyer(pol)
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := ky.ValidateCtx(context.Background(), cert.Binary, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1400 {
		t.Fatalf("Keyer.ValidateCtx(borPolicy) made %.0f allocations, bound 1400", allocs)
	}
}
