package pcc_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	pcc "repro"
	"repro/internal/alpha"
	"repro/internal/filters"
	"repro/internal/lf"
	"repro/internal/logic"
	"repro/internal/pccbin"
	"repro/internal/policy"
)

// certifiedFilter certifies one paper filter for the hardening tests.
func certifiedFilter(t *testing.T) ([]byte, *policy.Policy) {
	t.Helper()
	pol := pcc.PacketFilterPolicy()
	cert, err := pcc.Certify(filters.SrcFilter2, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cert.Binary, pol
}

// TestValidateCtxExpiredContext: an already-expired context must
// reject before the proof checker runs — no stats, a deadline-classed
// error, and (crucially) no time spent checking.
func TestValidateCtxExpiredContext(t *testing.T) {
	bin, pol := certifiedFilter(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	ext, stats, err := pcc.ValidateCtx(ctx, bin, pol, nil)
	if err == nil {
		t.Fatal("expired context validated")
	}
	if ext != nil || stats != nil {
		t.Fatal("expired context returned a result")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded in chain, got %v", err)
	}
	if got := pcc.RejectReason(err); got != "deadline" {
		t.Fatalf("RejectReason = %q, want deadline", got)
	}
}

// TestValidateCtxCanceledContext: cancellation is honored the same
// way.
func TestValidateCtxCanceledContext(t *testing.T) {
	bin, pol := certifiedFilter(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := pcc.ValidateCtx(ctx, bin, pol, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
}

// TestValidateCtxBinaryBytesLimit: the very first budget checked is
// the whole-binary size.
func TestValidateCtxBinaryBytesLimit(t *testing.T) {
	bin, pol := certifiedFilter(t)
	lim := pcc.DefaultLimits()
	lim.MaxBinaryBytes = 16
	_, _, err := pcc.ValidateCtx(context.Background(), bin, pol, &lim)
	if !errors.Is(err, pcc.ErrResourceLimit) {
		t.Fatalf("want ErrResourceLimit, got %v", err)
	}
	var rle *pcc.ResourceLimitError
	if !errors.As(err, &rle) || rle.Axis != "binary_bytes" {
		t.Fatalf("want binary_bytes axis, got %v", err)
	}
	if got := pcc.RejectReason(err); got != "limit" {
		t.Fatalf("RejectReason = %q, want limit", got)
	}
}

// TestValidateCtxProofBytesLimit: a certificate-size budget smaller
// than the real proof rejects with a typed limit error.
func TestValidateCtxProofBytesLimit(t *testing.T) {
	bin, pol := certifiedFilter(t)
	lim := pcc.DefaultLimits()
	lim.MaxProofBytes = 8
	_, _, err := pcc.ValidateCtx(context.Background(), bin, pol, &lim)
	var rle *pcc.ResourceLimitError
	if !errors.As(err, &rle) || rle.Axis != "proof_bytes" {
		t.Fatalf("want proof_bytes limit, got %v", err)
	}
}

// TestValidateCtxCheckStepsLimit: starving the checker's step fuel
// turns a valid binary into a limit rejection — and the error says
// limit, not invalid proof.
func TestValidateCtxCheckStepsLimit(t *testing.T) {
	bin, pol := certifiedFilter(t)
	lim := pcc.DefaultLimits()
	lim.MaxCheckSteps = 10
	_, _, err := pcc.ValidateCtx(context.Background(), bin, pol, &lim)
	if !errors.Is(err, pcc.ErrResourceLimit) {
		t.Fatalf("want ErrResourceLimit, got %v", err)
	}
	if got := pcc.RejectReason(err); got != "limit" {
		t.Fatalf("RejectReason = %q, want limit", got)
	}
}

// TestValidateCtxTermDepthLimit: a depth budget below the proof's real
// nesting rejects at decode time as a typed limit.
func TestValidateCtxTermDepthLimit(t *testing.T) {
	bin, pol := certifiedFilter(t)
	lim := pcc.DefaultLimits()
	lim.MaxTermDepth = 2
	_, _, err := pcc.ValidateCtx(context.Background(), bin, pol, &lim)
	var rle *pcc.ResourceLimitError
	if !errors.As(err, &rle) || rle.Axis != "term_depth" {
		t.Fatalf("want term_depth limit, got %v", err)
	}
}

// TestDefaultLimitsAcceptPaperWorkloads: the default budgets must be
// invisible to every legitimate workload — the four paper filters and
// the looping IP checksum validate with unchanged verdicts, and
// Validate (which uses DefaultLimits) agrees with an unlimited
// ValidateCtx.
func TestDefaultLimitsAcceptPaperWorkloads(t *testing.T) {
	pol := pcc.PacketFilterPolicy()
	check := func(name string, bin []byte, p *policy.Policy) {
		t.Helper()
		if _, _, err := pcc.Validate(bin, p); err != nil {
			t.Fatalf("%s: default limits rejected a legitimate binary: %v", name, err)
		}
		none := pcc.Limits{} // all axes unlimited
		if _, _, err := pcc.ValidateCtx(context.Background(), bin, p, &none); err != nil {
			t.Fatalf("%s: unlimited validation rejected: %v", name, err)
		}
	}
	for _, f := range filters.All {
		cert, err := pcc.Certify(filters.Source(f), pol, nil)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		check(f.String(), cert.Binary, pol)
	}
	ckCert, err := pcc.Certify(filters.SrcChecksum, pol,
		map[string]logic.Pred{"loop": filters.ChecksumInvariant()})
	if err != nil {
		t.Fatalf("checksum: %v", err)
	}
	check("checksum", ckCert.Binary, pol)
}

// TestPanicErrorRendering: the structured panic rejection carries the
// stage and value.
func TestPanicErrorRendering(t *testing.T) {
	e := &pcc.PanicError{Stage: "decode", Value: "boom"}
	if !strings.Contains(e.Error(), "decode") || !strings.Contains(e.Error(), "boom") {
		t.Fatalf("unhelpful panic error: %v", e)
	}
	if got := pcc.RejectReason(e); got != "panic" {
		t.Fatalf("RejectReason = %q, want panic", got)
	}
}

// filter1With certifies Filter 1 and re-marshals its binary after edit
// has changed it, for the resource-bomb tests.
func filter1With(t *testing.T, edit func(*pccbin.Binary)) ([]byte, *policy.Policy) {
	t.Helper()
	pol := pcc.PacketFilterPolicy()
	cert, err := pcc.Certify(filters.SrcFilter1, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := pccbin.Unmarshal(cert.Binary)
	if err != nil {
		t.Fatal(err)
	}
	edit(bin)
	out, _, err := bin.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return out, pol
}

// TestMismatchErrorRenderingBounded: a proof whose type does not match
// the safety predicate is rejected with an error of bounded size, at a
// bounded cost, even when its inferred type is a DAG whose tree is
// exponentially large. The proof is pₖ, where pᵢ₊₁ = andi Pᵢ Pᵢ pᵢ pᵢ,
// Pᵢ₊₁ = and Pᵢ Pᵢ, p₀ = truei and P₀ = tt: well typed, a few hundred
// bytes on the wire, of type pf Pₖ, whose tree has 2ᵏ leaves. Rendering
// the mismatch in full cost 450 MB of allocation at k = 16.
func TestMismatchErrorRenderingBounded(t *testing.T) {
	bomb, pol := filter1With(t, func(b *pccbin.Binary) {
		var P, p lf.Term = lf.Konst{Name: lf.CTT}, lf.Konst{Name: lf.CTrueI}
		for i := 0; i < 16; i++ {
			P, p = lf.Apply(lf.Konst{Name: lf.CAnd}, P, P), lf.Apply(lf.Konst{Name: lf.CAndI}, P, P, p, p)
		}
		b.Proof = p
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := pcc.ValidateCtx(context.Background(), bomb, pol, nil)
	runtime.ReadMemStats(&after)
	if got := pcc.RejectReason(err); got != "proof" || !strings.Contains(err.Error(), "type mismatch") {
		t.Fatalf("want a type mismatch, got %q: %.300v", got, err)
	}
	if n := len(err.Error()); n >= 4096 {
		t.Fatalf("error is %d bytes, want < 4096", n)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("rejecting the mismatch allocated %d bytes, want < 1 MB", alloc)
	}
}

// TestVCBombRejectedFast: code whose verification condition is costly
// to generate is rejected on the vc_nodes axis within a bounded amount
// of generation work, not after building the whole VC. MULQ r1, r1, r1
// squares r1, so each of n of them doubles the VC's tree; ADDQ r1, r1,
// r1 doubles a sum that is renormalized whole. The chains of 64 would
// not finish generating their VCs. The VC of 400 pairs of
// ADDQ r1, r2, r1 and MULQ r1, r3, r1 is only 800 levels deep, but
// each instruction renormalizes every sum on the path to r1, rendering
// subterms as deep as the path: work cubic in the length, seconds for
// this chain unless the rendering is charged too.
func TestVCBombRejectedFast(t *testing.T) {
	for _, c := range []struct {
		name, body string
		n          int
	}{
		{"MULQ r1, r1, r1 ×64", "MULQ r1, r1, r1\n", 64},
		{"ADDQ r1, r1, r1 ×64", "ADDQ r1, r1, r1\n", 64},
		{"(ADDQ r1, r2, r1; MULQ r1, r3, r1) ×400", "ADDQ r1, r2, r1\nMULQ r1, r3, r1\n", 400},
	} {
		a, err := alpha.Assemble(strings.Repeat(c.body, c.n) + "LDQ r0, 0(r1)\nRET\n")
		if err != nil {
			t.Fatal(err)
		}
		code, err := alpha.Encode(a.Prog)
		if err != nil {
			t.Fatal(err)
		}
		bomb, pol := filter1With(t, func(b *pccbin.Binary) { b.Code = code })
		done := make(chan error, 1)
		start := time.Now()
		go func() {
			_, _, err := pcc.ValidateCtx(context.Background(), bomb, pol, nil)
			done <- err
		}()
		select {
		case err := <-done:
			var rle *pcc.ResourceLimitError
			if !errors.As(err, &rle) || rle.Axis != "vc_nodes" {
				t.Fatalf("%s: want a vc_nodes limit, got %v", c.name, err)
			}
			d := time.Since(start)
			t.Logf("%s: rejected after %v", c.name, d)
			if d >= 100*time.Millisecond {
				t.Fatalf("%s: rejected after %v, want < 100ms", c.name, d)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: not rejected after 5s", c.name)
		}
	}
}
