package kernel

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"testing"
	"time"

	pcc "repro"
	"repro/internal/filters"
	"repro/internal/pktgen"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// certAll certifies the four paper filters once per test binary run
// (certification is producer-side and pure; sharing it keeps the test
// suite fast without coupling test cases).
func certAll(t testing.TB) map[filters.Filter][]byte {
	t.Helper()
	pol := policy.PacketFilter()
	out := map[filters.Filter][]byte{}
	for _, f := range filters.All {
		cert, err := pcc.Certify(filters.Source(f), pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[f] = cert.Binary
	}
	return out
}

// TestBatchInstallSpeedup: given at least 4 cores, installing the four
// paper filters all-cold as one concurrent batch is at least 2x faster
// than installing them one at a time. Each side is the best of three
// rounds on fresh cache-disabled kernels, as for the paper's one-time
// costs on a multiprogrammed host. Cores means schedulable CPUs, not
// GOMAXPROCS alone: verify.sh runs this package with -cpu 4, which on a
// 2-CPU host gives 4 Ps but no more parallelism.
func TestBatchInstallSpeedup(t *testing.T) {
	bins := certAll(t)
	var reqs []InstallRequest
	for _, f := range filters.All {
		reqs = append(reqs, InstallRequest{Owner: f.String(), Binary: bins[f]})
	}
	serial := func() time.Duration {
		k := NewWithCacheSize(0)
		start := time.Now()
		for _, r := range reqs {
			if err := k.InstallFilter(r.Owner, r.Binary); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	batch := func() time.Duration {
		k := NewWithCacheSize(0)
		start := time.Now()
		for _, err := range k.InstallFilterBatch(reqs) {
			if err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	s := min(serial(), serial(), serial())
	p := min(batch(), batch(), batch())
	if n := min(runtime.GOMAXPROCS(0), runtime.NumCPU()); n < 4 {
		t.Logf("only %d core(s): the >= 2x bar needs >= 4; measured %.2fx", n, float64(s)/float64(p))
	} else if s < 2*p {
		t.Errorf("concurrent batch install %v vs serial %v on %d cores: %.2fx, want >= 2x", p, s, n, float64(s)/float64(p))
	}
}

// TestSerialVsBatchDifferential is the differential harness: each
// request sent alone (InstallFilterCtx) and in a batch
// (InstallFilterBatchCtx) must get the same verdict, and the two
// kernels must agree on Stats, pcc_rejects_total{reason}, and every
// audit install record up to its EventID and timings. The rounds cover
// the paper filters, a garbage blob, a cross-policy binary, a canceled
// context, and an owner quarantined by an earlier round; then the two
// kernels must dispatch identically, and a second install of the same
// binaries must be pure cache hits with unchanged behavior.
func TestSerialVsBatchDifferential(t *testing.T) {
	bins := certAll(t)
	crossPolicy, err := pcc.Certify(`
        ADDQ  r0, 8, r1
        LDQ   r0, 8(r0)
L1:     RET
	`, pcc.ResourceAccessPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var first []InstallRequest
	for _, f := range filters.All {
		first = append(first, InstallRequest{fmt.Sprintf("proc-%d", f), bins[f]})
	}
	first = append(first,
		InstallRequest{"garbage", []byte("not a pcc binary")},
		InstallRequest{"cross", crossPolicy.Binary},
	)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	rounds := []struct {
		ctx  context.Context
		reqs []InstallRequest
	}{
		{context.Background(), first},
		{canceled, []InstallRequest{{"late-1", bins[filters.Filter1]}, {"late-2", bins[filters.Filter2]}}},
		// The first round's rejection embargoed "garbage" (Threshold 1).
		{context.Background(), []InstallRequest{{"garbage", bins[filters.Filter3]}, {"proc-9", bins[filters.Filter3]}}},
	}

	type observed struct {
		k     *Kernel
		audit bytes.Buffer
	}
	newObserved := func() *observed {
		o := &observed{k: New()}
		o.k.SetRecorder(telemetry.New())
		o.k.SetAuditLog(slog.New(slog.NewJSONHandler(&o.audit, nil)))
		o.k.SetQuarantine(QuarantineConfig{Threshold: 1, Base: time.Minute})
		return o
	}
	serial, batch := newObserved(), newObserved()
	for ri, r := range rounds {
		var serialErrs []error
		for _, req := range r.reqs {
			serialErrs = append(serialErrs, serial.k.InstallFilterCtx(r.ctx, req.Owner, req.Binary))
		}
		batchErrs := batch.k.InstallFilterBatchCtx(r.ctx, r.reqs)
		for i, req := range r.reqs {
			if sr, br := installRejectReason(serialErrs[i]), installRejectReason(batchErrs[i]); sr != br {
				t.Fatalf("round %d, %q: serial err=%v, batch err=%v", ri, req.Owner, serialErrs[i], batchErrs[i])
			}
		}
	}
	for _, want := range []string{"deadline", "quarantine"} {
		if rejectCount(serial.k, want) == 0 {
			t.Fatalf("no %s rejection exercised", want)
		}
	}
	counts := func(st Stats) [5]int {
		return [5]int{st.Validations, st.Rejections, st.CacheHits, st.CacheMisses, st.CacheEvictions}
	}
	if ss, bs := counts(serial.k.Stats()), counts(batch.k.Stats()); ss != bs {
		t.Fatalf("accounting diverged: serial %v, batch %v", ss, bs)
	}
	for _, reason := range []string{"deadline", "limit", "panic", "proof", "quarantine", "queue_full", "recovery", "store"} {
		if sr, br := rejectCount(serial.k, reason), rejectCount(batch.k, reason); sr != br {
			t.Fatalf("pcc_rejects_total{reason=%s}: serial %d, batch %d", reason, sr, br)
		}
	}
	// Install records up to EventID, timings, and error text (which
	// carries the embargo deadline).
	installs := func(o *observed) []string {
		var out []string
		for _, r := range auditRecords(t, &o.audit) {
			if r["event"] != "install" {
				continue
			}
			for _, volatile := range []string{"time", "event_id", "decision_time", "error",
				"parse_us", "lfsig_us", "vcgen_us", "lfcheck_us"} {
				delete(r, volatile)
			}
			out = append(out, fmt.Sprint(r))
		}
		return out
	}
	si, bi := installs(serial), installs(batch)
	if len(si) != len(first)+4 || len(si) != len(bi) {
		t.Fatalf("install records: serial %d, batch %d, want %d", len(si), len(bi), len(first)+4)
	}
	for i := range si {
		if si[i] != bi[i] {
			t.Fatalf("install record %d diverged:\nserial %s\nbatch  %s", i, si[i], bi[i])
		}
	}
	if got, want := fmt.Sprint(batch.k.Owners()), fmt.Sprint(serial.k.Owners()); got != want {
		t.Fatalf("owners diverged: %s vs %s", got, want)
	}

	pkts := pktgen.Generate(500, pktgen.Config{Seed: 7})
	for _, p := range pkts {
		a1, err1 := serial.k.DeliverPacket(p)
		a2, err2 := batch.k.DeliverPacket(p)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if fmt.Sprint(a1) != fmt.Sprint(a2) {
			t.Fatalf("dispatch diverged: %v vs %v", a1, a2)
		}
		for _, f := range filters.All {
			want := filters.Reference(f, p.Data)
			got := false
			for _, o := range a2 {
				if o == fmt.Sprintf("proc-%d", f) {
					got = true
				}
			}
			if got != want {
				t.Fatalf("%v: accept=%v, reference=%v", f, got, want)
			}
		}
	}
	if got, want := fmt.Sprint(batch.k.Accepts()), fmt.Sprint(serial.k.Accepts()); got != want {
		t.Fatalf("accepts diverged: %s vs %s", got, want)
	}

	// Re-installing the same binaries must be pure cache hits...
	preHits := batch.k.Stats().CacheHits
	for i, err := range batch.k.InstallFilterBatch(first[:4]) {
		if err != nil {
			t.Fatalf("warm re-install %d failed: %v", i, err)
		}
	}
	if got := batch.k.Stats().CacheHits - preHits; got != 4 {
		t.Fatalf("warm batch produced %d cache hits, want 4", got)
	}
	// ...with identical extension behavior.
	for _, p := range pkts[:100] {
		a1, _ := serial.k.DeliverPacket(p)
		a2, err := batch.k.DeliverPacket(p)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(a1) != fmt.Sprint(a2) {
			t.Fatalf("post-warm dispatch diverged: %v vs %v", a1, a2)
		}
	}
}

// TestCacheNotPoisoned: tampered proofs, truncated blobs, and
// rejected binaries must never enter the cache — each re-presentation
// re-validates and re-fails — and a cached entry must never be
// returned for a different policy.
func TestCacheNotPoisoned(t *testing.T) {
	pol := policy.PacketFilter()
	cert, err := pcc.Certify(filters.SrcFilter1, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := New()

	tampered := bytes.Clone(cert.Binary)
	tampered[cert.Layout.ProofOff+2] ^= 0x55
	truncated := bytes.Clone(cert.Binary[:len(cert.Binary)/2])

	for round := 0; round < 2; round++ {
		if err := k.InstallFilter("evil", tampered); err == nil {
			t.Fatalf("round %d: tampered proof installed", round)
		}
		if err := k.InstallFilter("evil", truncated); err == nil {
			t.Fatalf("round %d: truncated binary installed", round)
		}
	}
	st := k.Stats()
	if st.CacheHits != 0 {
		t.Fatalf("rejected binaries produced %d cache hits — cache poisoned", st.CacheHits)
	}
	if st.Rejections != 4 || k.cache.len() != 0 {
		t.Fatalf("rejections=%d cacheEntries=%d, want 4 and 0", st.Rejections, k.cache.len())
	}

	// The genuine binary validates (miss) then hits.
	if err := k.InstallFilter("good", cert.Binary); err != nil {
		t.Fatal(err)
	}
	if err := k.InstallFilter("good", cert.Binary); err != nil {
		t.Fatal(err)
	}
	if st := k.Stats(); st.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", st.CacheHits)
	}

	// A cached packet-filter entry is invisible under another policy:
	// the same bytes presented as a resource handler must be rejected,
	// without touching the cached entry.
	if err := k.InstallHandler(9, cert.Binary); err == nil {
		t.Fatal("filter binary accepted as a resource handler")
	}
	if st := k.Stats(); st.CacheHits != 1 {
		t.Fatalf("cross-policy lookup hit the cache: %d hits", st.CacheHits)
	}
}

// TestValidationKeySeparation pins the cache-key contract: any change
// to the binary or to the policy's semantic content (even under the
// same name) changes the key.
func TestValidationKeySeparation(t *testing.T) {
	pol := policy.PacketFilter()
	cert, err := pcc.Certify(filters.SrcFilter1, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := pcc.ValidationKey(cert.Binary, pol)

	tampered := bytes.Clone(cert.Binary)
	tampered[len(tampered)-1] ^= 1
	if pcc.ValidationKey(tampered, pol) == base {
		t.Fatal("tampered binary has the same validation key")
	}

	weaker := policy.PacketFilter()
	weaker.Post = pol.Pre // same name, different contract
	if pcc.ValidationKey(cert.Binary, weaker) == base {
		t.Fatal("semantically different policy has the same validation key")
	}
	if pcc.ValidationKey(cert.Binary, policy.PacketFilter()) != base {
		t.Fatal("validation key is not deterministic")
	}
	if pcc.ValidationKey(cert.Binary, policy.ResourceAccess()) == base {
		t.Fatal("distinct policies share a validation key")
	}
}

// TestCacheEviction: the LRU bound holds and evicted entries simply
// re-validate.
func TestCacheEviction(t *testing.T) {
	bins := certAll(t)
	k := NewWithCacheSize(2)
	for _, f := range filters.All {
		if err := k.InstallFilter(f.String(), bins[f]); err != nil {
			t.Fatal(err)
		}
	}
	if n := k.cache.len(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
	st := k.Stats()
	if st.CacheEvictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.CacheEvictions)
	}
	// The most recent two hit; an evicted one re-validates as a miss.
	preMisses := st.CacheMisses
	if err := k.InstallFilter("again", bins[filters.Filter4]); err != nil {
		t.Fatal(err)
	}
	if st := k.Stats(); st.CacheHits == 0 {
		t.Fatal("recently used entry missed")
	}
	if err := k.InstallFilter("cold", bins[filters.Filter1]); err != nil {
		t.Fatal(err)
	}
	if st := k.Stats(); st.CacheMisses != preMisses+1 {
		t.Fatalf("evicted entry did not re-validate: misses %d -> %d",
			preMisses, st.CacheMisses)
	}
}

// TestWarmInstallSpeedup is the acceptance gate: for every paper
// filter, a warm-cache re-install of an already-verified binary must
// be at least 10x faster than its cold validation, with every re-install
// a cache hit and nothing rejected. (In practice the gap is two to
// three orders of magnitude — a SHA-256 and a map lookup versus VC
// generation plus LF proof checking.)
func TestWarmInstallSpeedup(t *testing.T) {
	bins := certAll(t)
	for _, f := range filters.All {
		k := New()
		start := time.Now()
		if err := k.InstallFilter("cold", bins[f]); err != nil {
			t.Fatal(err)
		}
		cold := time.Since(start)

		warm := time.Duration(1 << 62)
		for i := 0; i < 5; i++ {
			start = time.Now()
			if err := k.InstallFilter("warm", bins[f]); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < warm {
				warm = d
			}
		}
		if st := k.Stats(); st.CacheHits != 5 || st.Rejections != 0 {
			t.Fatalf("%v: cache hits = %d, rejections = %d, want 5 and 0", f, st.CacheHits, st.Rejections)
		}
		if cold < 10*warm {
			t.Fatalf("%v: warm install is only %.1fx faster than cold (%v vs %v), want >= 10x",
				f, float64(cold)/float64(warm), cold, warm)
		}
		t.Logf("%v: cold %v, warm %v (%.0fx)", f, cold, warm, float64(cold)/float64(warm))
	}
}

// TestBatchDuplicateOwners: later requests for the same owner win,
// matching serial semantics.
func TestBatchDuplicateOwners(t *testing.T) {
	bins := certAll(t)
	k := New()
	errs := k.InstallFilterBatch([]InstallRequest{
		{"dup", bins[filters.Filter1]},
		{"dup", bins[filters.Filter2]},
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Filter 2 rejects a non-128.2.42 IP packet that Filter 1 accepts.
	pkt := pktgen.Packet{Data: make([]byte, 64)}
	pkt.Data[12], pkt.Data[13] = 0x08, 0x00
	accepted, err := k.DeliverPacket(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(accepted) != 0 {
		t.Fatalf("accepted=%v: first request won, want last", accepted)
	}
}

// TestNegotiatedCacheAccounting covers the install path with a
// negotiated policy present: exactly one cache miss is recorded per
// install attempt (not one per candidate policy probed), a warm
// re-install that hits on the negotiated candidate records one hit and
// no extra misses, and the cached negotiated-policy entry is invisible
// to the resource-handler path — a producer cannot launder a filter
// binary into a handler through the shared cache.
func TestNegotiatedCacheAccounting(t *testing.T) {
	k := New()
	weak := policy.PacketFilter()
	weak.Name = "producer/v1"
	if err := k.NegotiateFilterPolicy(weak); err != nil {
		t.Fatal(err)
	}
	cert, err := pcc.Certify(filters.SrcFilter1, weak, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.InstallFilter("p", cert.Binary); err != nil {
		t.Fatal(err)
	}
	st := k.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 0 {
		t.Fatalf("cold install with 2 candidate policies: hits=%d misses=%d, want 0/1",
			st.CacheHits, st.CacheMisses)
	}
	if err := k.InstallFilter("q", cert.Binary); err != nil {
		t.Fatal(err)
	}
	st = k.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("warm install on negotiated candidate: hits=%d misses=%d, want 1/1",
			st.CacheHits, st.CacheMisses)
	}
	// The same bytes presented as a resource handler must re-validate
	// (its own single miss) and be rejected without touching the cache.
	if err := k.InstallHandler(7, cert.Binary); err == nil {
		t.Fatal("negotiated filter binary accepted as a resource handler")
	}
	st = k.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 2 {
		t.Fatalf("cross-policy handler attempt: hits=%d misses=%d, want 1/2",
			st.CacheHits, st.CacheMisses)
	}
}

// TestWCETComputedAtValidation: the static cost bound is derived in
// the lock-free validation stage and memoized on the slot, so the
// commit section under the write lock only compares it to the budget —
// WCET analysis never stalls dispatch.
func TestWCETComputedAtValidation(t *testing.T) {
	pol := policy.PacketFilter()
	cert, err := pcc.Certify(filters.SrcFilter1, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := New() // no budget configured, yet the bound is precomputed
	slot, _, verr := k.validate(context.Background(), "filter", "fits", cert.Binary, 0, nil)
	if verr != nil {
		t.Fatal(verr)
	}
	if slot.wcetErr != nil || slot.wcet <= 0 {
		t.Fatalf("wcet not precomputed at validation: wcet=%d err=%v", slot.wcet, slot.wcetErr)
	}
	k.SetCycleBudget(CycleBudget(slot.wcet))
	if err := k.commitFilter("fits", cert.Binary, slot, nil, nil, 0, true); err != nil {
		t.Fatalf("filter at exactly the budget rejected: %v", err)
	}
	k.SetCycleBudget(CycleBudget(slot.wcet - 1))
	if err := k.commitFilter("over", cert.Binary, slot, nil, nil, 0, true); err == nil {
		t.Fatal("over-budget filter committed")
	}
}
