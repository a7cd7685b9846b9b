package pcc_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	pcc "repro"
	"repro/internal/chaos"
	"repro/internal/filters"
	"repro/internal/pccbin"
)

// Tests of the Keyer's memo of checked proofs: whatever the memo
// serves, a validation without it must decide the same way.

// memoCorpus is the paper bases and two code-only variants of each
// paper filter, certified once per test binary.
var memoCorpus = sync.OnceValues(func() (c struct{ bases, variants []chaos.Base }, err error) {
	if c.bases, err = chaos.PaperBases(); err == nil {
		c.variants, err = chaos.CodeVariants(2)
	}
	return c, err
})

// corpus returns memoCorpus or fails the test.
func corpus(t *testing.T) (bases, variants []chaos.Base) {
	t.Helper()
	c, err := memoCorpus()
	if err != nil {
		t.Fatal(err)
	}
	return c.bases, c.variants
}

// warmKeyer returns a packet-filter keyer that has validated the four
// paper filters under lim, and their CheckSteps by base name.
func warmKeyer(t *testing.T, bases []chaos.Base, lim *pcc.Limits) (*pcc.Keyer, map[string]int) {
	t.Helper()
	ky := pcc.NewKeyer(pcc.PacketFilterPolicy())
	steps := map[string]int{}
	for _, b := range bases[:len(filters.All)] {
		_, st, err := ky.ValidateCtx(context.Background(), b.Binary, lim)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if st.ProofReused {
			t.Fatalf("%s: the first validation reused a proof", b.Name)
		}
		steps[b.Name] = st.CheckSteps
	}
	return ky, steps
}

// sameVerdict validates bin through ky and through pcc.ValidateCtx
// with no keyer, and reports any difference in verdict, rejection
// (reason and message) or CheckSteps and ProofNodes. It returns the
// keyer's result.
func sameVerdict(t *testing.T, ky *pcc.Keyer, name string, bin []byte, lim *pcc.Limits) (*pcc.ValidationStats, error) {
	t.Helper()
	_, want, werr := pcc.ValidateCtx(context.Background(), bin, pcc.PacketFilterPolicy(), lim)
	_, got, gerr := ky.ValidateCtx(context.Background(), bin, lim)
	switch {
	case (werr == nil) != (gerr == nil):
		t.Errorf("%s: keyer says %v, no keyer says %v", name, gerr, werr)
	case werr != nil:
		var pe *pcc.PanicError
		if pcc.RejectReason(gerr) != pcc.RejectReason(werr) ||
			!errors.As(werr, &pe) && gerr.Error() != werr.Error() {
			t.Errorf("%s: keyer rejects with %v, no keyer with %v", name, gerr, werr)
		}
	case got.CheckSteps != want.CheckSteps || got.ProofNodes != want.ProofNodes:
		t.Errorf("%s: keyer reports %d steps, %d proof nodes; no keyer %d, %d",
			name, got.CheckSteps, got.ProofNodes, want.CheckSteps, want.ProofNodes)
	}
	return got, gerr
}

// TestKeyerMemoMatchesValidate: through a keyer warmed with the four
// paper filters, every chaos mutant, tampered code word, truncated
// proof and tampered proof gets the verdict, rejection and CheckSteps it gets from
// pcc.ValidateCtx with no keyer. The step fuel is cut to 12,000 (Filter
// 3 takes 10,025) so the DAG bombs die fast.
func TestKeyerMemoMatchesValidate(t *testing.T) {
	bases, _ := corpus(t)
	lim := pcc.DefaultLimits()
	lim.MaxCheckSteps = 12_000
	ky, _ := warmKeyer(t, bases, &lim)
	for i, b := range bases {
		st, err := sameVerdict(t, ky, b.Name, b.Binary, &lim)
		if err != nil || st.ProofReused != (i < len(filters.All)) {
			t.Fatalf("%s: %v, reused %v", b.Name, err, st != nil && st.ProofReused)
		}
		bin, err := pccbin.Unmarshal(b.Binary)
		if err != nil {
			t.Fatal(err)
		}
		// Code tampered under an intact proof: the proof bytes hit the
		// memo, the VC mostly differs. A flip of bit 3 moves a memory
		// instruction's displacement by 8.
		codeOff := bin.RelocOff - len(bin.Code)
		for at := codeOff; at < bin.RelocOff; at += 4 {
			tampered := bytes.Clone(b.Binary)
			tampered[at] ^= 8
			sameVerdict(t, ky, b.Name+"/code", tampered, &lim)
		}
		proofOff := len(b.Binary) - bin.ProofBytes
		for _, at := range []int{bin.RelocOff, bin.RelocOff + 2, proofOff, proofOff + 1, proofOff + bin.ProofBytes/2, len(b.Binary) - 1} {
			sameVerdict(t, ky, b.Name+"/truncated", b.Binary[:at], &lim)
			tampered := bytes.Clone(b.Binary)
			tampered[at] ^= 0x5a
			sameVerdict(t, ky, b.Name+"/tampered", tampered, &lim)
		}
	}
	trials := 200
	if testing.Short() {
		trials = 50
	}
	rep := chaos.Run(bases, func(mutant []byte, base chaos.Base) (bool, error) {
		_, err := sameVerdict(t, ky, base.Name+"/mutant", mutant, &lim)
		return err == nil, err
	}, chaos.Config{Seed: 0x5EED, Trials: trials})
	if !rep.Ok() {
		t.Fatal(rep)
	}
}

// TestKeyerMemoReusesCodeVariants: a code-only variant carries its
// filter's proof bytes under new code with the same VC, so a warm
// keyer reuses the filter's check and reports its steps. A graft —
// one variant's code under another filter's proof — is checked in full
// and rejected.
func TestKeyerMemoReusesCodeVariants(t *testing.T) {
	bases, variants := corpus(t)
	ky, steps := warmKeyer(t, bases, nil)
	for i, v := range variants {
		st, err := sameVerdict(t, ky, v.Name, v.Binary, nil)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		base := bases[i/2].Name
		if !st.ProofReused || st.CheckSteps != steps[base] || st.Check != 0 {
			t.Errorf("%s: reused %v, %d steps, check %v; want the reuse of %s's %d steps",
				v.Name, st.ProofReused, st.CheckSteps, st.Check, base, steps[base])
		}
	}

	graft, err := pccbin.Unmarshal(variants[0].Binary) // Filter 1 code
	if err != nil {
		t.Fatal(err)
	}
	donor, err := pccbin.Unmarshal(variants[4].Binary) // Filter 3 proof
	if err != nil {
		t.Fatal(err)
	}
	graft.Proof = donor.Proof
	forged, _, err := graft.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sameVerdict(t, ky, "graft", forged, nil); pcc.RejectReason(err) != "proof" {
		t.Fatalf("graft of Filter 3's proof onto Filter 1 code: %v, want a proof rejection", err)
	}
}

// TestKeyerMemoServesEqualLimitsOnly: a check recorded under
// DefaultLimits does not serve a validation whose step fuel is below
// the steps it took; that validation runs the check and runs out.
func TestKeyerMemoServesEqualLimitsOnly(t *testing.T) {
	bases, variants := corpus(t)
	ky, steps := warmKeyer(t, bases, nil)
	v := variants[4] // Filter 3
	lim := pcc.DefaultLimits()
	lim.MaxCheckSteps = steps[bases[2].Name] - 1
	_, err := sameVerdict(t, ky, v.Name, v.Binary, &lim)
	var rle *pcc.ResourceLimitError
	if !errors.As(err, &rle) || rle.Axis != "check_steps" {
		t.Fatalf("%s under %d steps of fuel: %v, want a check_steps rejection", v.Name, lim.MaxCheckSteps, err)
	}
	if _, st, err := ky.ValidateCtx(context.Background(), v.Binary, nil); err != nil || !st.ProofReused {
		t.Fatalf("%s under DefaultLimits after the rejection: %v, reused %v", v.Name, err, st != nil && st.ProofReused)
	}
}

// TestKeyerMemoHitAllocs pins the allocations of a validation that
// reuses a checked proof: a Filter 3 variant makes ~600, nine in ten
// of them generating and encoding its VC; the proof term is never
// decoded. A full validation of it makes ~2,400.
func TestKeyerMemoHitAllocs(t *testing.T) {
	bases, variants := corpus(t)
	ky, _ := warmKeyer(t, bases, nil)
	v := variants[4] // Filter 3
	allocs := testing.AllocsPerRun(20, func() {
		_, st, err := ky.ValidateCtx(context.Background(), v.Binary, nil)
		if err != nil || !st.ProofReused {
			t.Fatalf("%s: %v, reused %v", v.Name, err, st != nil && st.ProofReused)
		}
	})
	if allocs > 660 {
		t.Fatalf("a reused validation of %s made %.0f allocations, bound 660", v.Name, allocs)
	}
}

// TestKeyerMemoConcurrent: validations of same-shape variants racing
// on one keyer all succeed with the shape's steps.
func TestKeyerMemoConcurrent(t *testing.T) {
	_, variants := corpus(t)
	ky := pcc.NewKeyer(pcc.PacketFilterPolicy())
	want, errs := make([]int, len(variants)), make(chan error, len(variants))
	for i, v := range variants {
		_, st, err := pcc.Validate(v.Binary, v.Policy)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = st.CheckSteps
	}
	rng := rand.New(rand.NewSource(1))
	for _, i := range rng.Perm(len(variants)) {
		go func() {
			_, st, err := ky.ValidateCtx(context.Background(), variants[i].Binary, nil)
			if err == nil && st.CheckSteps != want[i] {
				err = errors.New(variants[i].Name + ": steps differ")
			}
			errs <- err
		}()
	}
	for range variants {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
