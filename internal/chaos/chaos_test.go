package chaos

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	pcc "repro"
	"repro/internal/kernel"
	"repro/internal/pccbin"
)

// testLimits are the budgets the invariant tests validate under:
// defaults except for much tighter step fuel — every legitimate base
// checks in ≤ ~10k steps, while a dag bomb would otherwise burn the
// default 16M steps per trial and slow the suite to a crawl.
func testLimits() *pcc.Limits {
	lim := pcc.DefaultLimits()
	lim.MaxCheckSteps = 12_000
	return &lim
}

// sharedBases certifies the corpus once per test binary.
var sharedBases = sync.OnceValues(PaperBases)

// TestChaosInvariant is the acceptance-criteria test: 10,000 mutated
// binaries across every mutator class, fixed seed, against both the
// pcc validation path and a live kernel — zero escaped panics, zero
// accepts of non-byte-identical blobs. Sharded into parallel subtests
// so the run also exercises the validation path concurrently (the
// -race configuration of scripts/verify.sh runs this).
func TestChaosInvariant(t *testing.T) {
	bases, err := sharedBases()
	if err != nil {
		t.Fatal(err)
	}
	const shards, trialsPerShard = 8, 1250 // 10,000 total
	lim := testLimits()
	for shard := 0; shard < shards; shard++ {
		shard := shard
		target := ValidateTarget(lim)
		name := "pcc"
		if shard >= shards/2 {
			// Kernel-level shards: mutants go through the full install
			// pipeline (cache probe, audit-less commit, accounting).
			k := kernel.New()
			k.SetLimits(*lim)
			target = func(mutant []byte, base Base) (bool, error) {
				err := k.InstallFilterCtx(context.Background(), "chaos", mutant)
				return err == nil, err
			}
			name = "kernel"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rep := Run(bases, target, Config{Seed: 0xC0FFEE + int64(shard), Trials: trialsPerShard})
			if !rep.Ok() {
				t.Fatalf("invariants violated:\n%s", rep)
			}
			for _, m := range allMutators() {
				if rep.ByMutator[m.Name] == 0 {
					t.Fatalf("mutator %q never ran:\n%s", m.Name, rep)
				}
			}
			if rep.Rejects["limit"] == 0 {
				t.Fatalf("no limit-classed rejections — bombs not reaching their budgets:\n%s", rep)
			}
			if rep.Rejects["proof"] == 0 {
				t.Fatalf("no proof-classed rejections — corruption not reaching the checker:\n%s", rep)
			}
			if n := len(rep.Violations); n != 0 {
				t.Fatalf("%d violations:\n%s", n, rep)
			}
			// Safe variants (different-but-provably-safe programs hit
			// by random corruption) exist but are rare — a flood here
			// would mean the vetting oracle is too permissive.
			if rep.SafeVariantAccepts > 5 {
				t.Fatalf("%d safe-variant accepts — oracle too lax:\n%s", rep.SafeVariantAccepts, rep)
			}
		})
	}
}

// TestChaosDeterministic: identical configs replay identically, so a
// violating seed can be handed around as a reproducer.
func TestChaosDeterministic(t *testing.T) {
	bases, err := sharedBases()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 42, Trials: 200}
	a := Run(bases, ValidateTarget(testLimits()), cfg)
	b := Run(bases, ValidateTarget(testLimits()), cfg)
	if a.IdenticalAccepts != b.IdenticalAccepts ||
		a.SafeVariantAccepts != b.SafeVariantAccepts ||
		len(a.Violations) != len(b.Violations) {
		t.Fatalf("non-deterministic runs:\n%s\nvs\n%s", a, b)
	}
	for name, n := range a.ByMutator {
		if b.ByMutator[name] != n {
			t.Fatalf("mutator schedule diverged at %q: %d vs %d", name, n, b.ByMutator[name])
		}
	}
	for reason, n := range a.Rejects {
		if b.Rejects[reason] != n {
			t.Fatalf("reject classes diverged at %q: %d vs %d", reason, n, b.Rejects[reason])
		}
	}
}

// TestBombEncoding cross-checks the hand-written wire-format constants
// against the real decoder: the depth bomb must be rejected
// specifically as a term_depth budget violation (proving the bytes
// really nest), and the dag bomb must decode cleanly (proving it is a
// well-formed DAG) yet die in the checker on step fuel (proving the
// sharing expands). Under the default limits, the mismatch bomb must
// die as a type mismatch with a short error, and the VC bomb on the
// vc_nodes axis.
func TestBombEncoding(t *testing.T) {
	bases, err := sharedBases()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	base := bases[0]

	bomb := depthBomb(rng, base)
	_, err = pccbin.Unmarshal(bomb)
	var le *pccbin.LimitError
	if !errors.As(err, &le) || le.Axis != "term_depth" {
		t.Fatalf("depth bomb not rejected on depth: %v", err)
	}

	dag := dagBomb(rng, base)
	if _, err := pccbin.Unmarshal(dag); err != nil {
		t.Fatalf("dag bomb does not decode: %v", err)
	}
	_, _, err = pcc.ValidateCtx(context.Background(), dag, base.Policy, testLimits())
	var rle *pcc.ResourceLimitError
	if !errors.As(err, &rle) || rle.Axis != "check_steps" {
		t.Fatalf("dag bomb not killed by step fuel: %v", err)
	}
	// Sanity: the bomb is small on the wire — the whole point is that
	// byte-size budgets cannot catch it.
	if len(dag) > 4096 {
		t.Fatalf("dag bomb unexpectedly large: %d bytes", len(dag))
	}

	// The tallest mismatch bomb fits under the default step fuel, so
	// the checker reaches the mismatch and renders it within its cap.
	mismatch := conjunctionTower(rng, base, 17)
	_, _, err = pcc.ValidateCtx(context.Background(), mismatch, base.Policy, nil)
	if pcc.RejectReason(err) != "proof" || !strings.Contains(err.Error(), "type mismatch") {
		t.Fatalf("mismatch bomb not rejected as a type mismatch: %.300v", err)
	}
	if n := len(err.Error()); n >= 4096 {
		t.Fatalf("mismatch bomb's error is %d bytes", n)
	}

	for i := 0; i < 9; i++ {
		_, _, err = pcc.ValidateCtx(context.Background(), vcBomb(rng, base), base.Policy, nil)
		if !errors.As(err, &rle) || rle.Axis != "vc_nodes" {
			t.Fatalf("vc bomb not rejected on vc_nodes: %v", err)
		}
	}
}

// TestPaperBasesValidate: the corpus itself is sound — every base
// validates under the test budgets (so a rejected mutant is rejected
// for its mutation, not its base).
func TestPaperBasesValidate(t *testing.T) {
	bases, err := sharedBases()
	if err != nil {
		t.Fatal(err)
	}
	if len(bases) != 5 {
		t.Fatalf("want 5 bases, got %d", len(bases))
	}
	for _, b := range bases {
		if _, _, err := pcc.ValidateCtx(context.Background(), b.Binary, b.Policy, testLimits()); err != nil {
			t.Fatalf("base %s does not validate: %v", b.Name, err)
		}
	}
}
