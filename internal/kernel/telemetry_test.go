package kernel

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/filters"
	"repro/internal/pktgen"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// TestKernelTelemetryPipeline drives a full install/dispatch lifecycle
// with a recorder attached and checks that every layer of the
// telemetry story lines up: outcome counters, cache counters, the
// span tree (validate with cacheprobe/parse/lfsig/vcgen/lfcheck/wcet
// children), stage histograms, and the exposition page.
func TestKernelTelemetryPipeline(t *testing.T) {
	bins := certAll(t)
	k := New()
	rec := telemetry.New()
	k.SetRecorder(rec)
	if k.Recorder() != rec {
		t.Fatal("Recorder() did not return the attached recorder")
	}

	// Two cold installs, one warm re-install, one rejection.
	if err := k.InstallFilter("alice", bins[filters.Filter1]); err != nil {
		t.Fatal(err)
	}
	if err := k.InstallFilter("bob", bins[filters.Filter2]); err != nil {
		t.Fatal(err)
	}
	if err := k.InstallFilter("alice", bins[filters.Filter1]); err != nil {
		t.Fatal(err)
	}
	if err := k.InstallFilter("mallory", []byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
	for _, p := range pktgen.Generate(10, pktgen.Config{Seed: 7}) {
		if _, err := k.DeliverPacket(p); err != nil {
			t.Fatal(err)
		}
	}
	k.UninstallFilter("bob")

	get := func(name string) int64 { return rec.Counter(name).Value() }
	if got := get(MetricInstalled); got != 3 {
		t.Errorf("installed counter = %d, want 3", got)
	}
	if got := get(MetricRejected); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
	if got := get(MetricCacheHits); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
	if got := get(MetricCacheMisses); got != 3 {
		t.Errorf("cache misses = %d, want 3 (2 cold + 1 rejected)", got)
	}
	if got := get(MetricPackets); got != 10 {
		t.Errorf("packets counter = %d, want 10", got)
	}
	if got := rec.Gauge(MetricFiltersGauge).Value(); got != 1 {
		t.Errorf("filters gauge = %d, want 1 after uninstall", got)
	}

	// Telemetry agrees with the kernel's own accounting.
	st := k.Stats()
	if int64(st.CacheHits) != get(MetricCacheHits) || int64(st.CacheMisses) != get(MetricCacheMisses) {
		t.Errorf("cache counters diverge: stats=%+v", st)
	}
	if int64(st.Packets) != get(MetricPackets) {
		t.Errorf("packet counters diverge: %d vs %d", st.Packets, get(MetricPackets))
	}

	// Span tree: each cold validate span has the full child set.
	events := rec.Log().Events(telemetry.Query{Class: telemetry.ClassSpan})
	children := map[uint64][]string{}
	validates := map[uint64]string{}
	for _, e := range events {
		if e.Stage == telemetry.StageValidate {
			validates[e.ID] = e.Owner
		}
		if e.Parent != 0 {
			children[e.Parent] = append(children[e.Parent], e.Stage)
		}
	}
	if len(validates) != 4 {
		t.Fatalf("validate spans = %d, want 4", len(validates))
	}
	coldChildren := 0
	for id, owner := range validates {
		kids := strings.Join(children[id], ",")
		switch {
		case strings.Contains(kids, telemetry.StageVCGen):
			coldChildren++
			for _, want := range []string{
				telemetry.StageCacheProbe, telemetry.StageParse, telemetry.StageLFSig,
				telemetry.StageVCGen, telemetry.StageLFCheck, telemetry.StageWCET,
			} {
				if !strings.Contains(kids, want) {
					t.Errorf("cold validate %q missing child %s (has %s)", owner, want, kids)
				}
			}
		case !strings.Contains(kids, telemetry.StageCacheProbe):
			t.Errorf("validate %q has no cacheprobe child (has %s)", owner, kids)
		}
	}
	if coldChildren != 2 {
		t.Errorf("cold validations with stage children = %d, want 2", coldChildren)
	}

	// Stage histograms: dispatch observed once per delivery, commit
	// once per committed install, validate once per attempt.
	if got := rec.StageHistogram(telemetry.StageDispatch).Count(); got != 10 {
		t.Errorf("dispatch histogram = %d, want 10", got)
	}
	if got := rec.StageHistogram(telemetry.StageCommit).Count(); got != 3 {
		t.Errorf("commit histogram = %d, want 3", got)
	}
	if got := rec.StageHistogram(telemetry.StageValidate).Count(); got != 4 {
		t.Errorf("validate histogram = %d, want 4", got)
	}

	// The exposition page carries the whole contract.
	var buf bytes.Buffer
	if err := rec.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	for _, want := range []string{
		MetricInstalled, MetricRejected, MetricCacheHits, MetricCacheMisses,
		MetricCacheEvictions, MetricPackets, MetricFiltersGauge,
		"pcc_stage_vcgen_seconds_count", "pcc_stage_lfcheck_seconds_count",
		"pcc_stage_wcet_seconds_count", "pcc_stage_commit_seconds_count",
		"pcc_stage_dispatch_seconds_count",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestTelemetryEvictionCounter fills a tiny cache past capacity and
// checks evictions reach both Stats and the telemetry counter.
func TestTelemetryEvictionCounter(t *testing.T) {
	bins := certAll(t)
	k := NewWithCacheSize(1)
	rec := telemetry.New()
	k.SetRecorder(rec)
	for _, f := range filters.All {
		if err := k.InstallFilter(f.String(), bins[f]); err != nil {
			t.Fatal(err)
		}
	}
	st := k.Stats()
	if st.CacheEvictions == 0 {
		t.Fatal("expected evictions with cache size 1")
	}
	if got := rec.Counter(MetricCacheEvictions).Value(); got != int64(st.CacheEvictions) {
		t.Errorf("telemetry evictions = %d, stats = %d", got, st.CacheEvictions)
	}
}

// TestTelemetryNegotiateSpan checks policy negotiation is traced.
func TestTelemetryNegotiateSpan(t *testing.T) {
	k := New()
	rec := telemetry.New()
	k.SetRecorder(rec)
	weaker := policy.PacketFilter()
	weaker.Name = "negotiated/v1"
	if err := k.NegotiateFilterPolicy(weaker); err != nil {
		t.Fatal(err)
	}
	events := rec.Log().Events(telemetry.Query{})
	if len(events) != 1 || events[0].Stage != telemetry.StageNegotiate || events[0].Detail != "negotiated/v1" {
		t.Fatalf("negotiate trace = %+v", events)
	}
	if rec.StageHistogram(telemetry.StageNegotiate).Count() != 1 {
		t.Error("negotiate histogram not observed")
	}
}

// TestNilRecorderZeroAllocDispatch is the nil-path gate: with no
// recorder attached, DeliverPacket must not allocate at all — the
// pooled delivery state plus the disabled telemetry hooks leave
// nothing on the heap per packet.
func TestNilRecorderZeroAllocDispatch(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop Puts, distorting allocation counts")
	}
	bins := certAll(t)
	k := New()
	if err := k.InstallFilter("hot", bins[filters.Filter4]); err != nil {
		t.Fatal(err)
	}
	// Find a packet Filter4 rejects, so the accepted slice stays nil
	// and the measurement isolates the delivery machinery itself.
	var pkt pktgen.Packet
	found := false
	for _, p := range pktgen.Generate(200, pktgen.Config{Seed: 11}) {
		owners, err := k.DeliverPacket(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(owners) == 0 {
			pkt, found = p, true
			break
		}
	}
	if !found {
		t.Skip("no rejected packet in trace")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := k.DeliverPacket(pkt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("nil-recorder DeliverPacket allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPooledStateMatchesFresh cross-checks the pooled delivery path
// against freshly allocated states: same verdicts for every filter
// over a mixed trace, including scratch-using filters back to back
// (the pool must not leak scratch contents between filters).
func TestPooledStateMatchesFresh(t *testing.T) {
	bins := certAll(t)
	k := New()
	for _, f := range filters.All {
		if err := k.InstallFilter(f.String(), bins[f]); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range pktgen.Generate(500, pktgen.Config{Seed: 3}) {
		got, err := k.DeliverPacket(p)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: run each filter on a fresh state.
		var want []string
		tb := k.table.Load()
		for i := range tb.slots {
			owner, f := tb.slots[i].owner, tb.slots[i].f
			res, err := f.ext.Run(k.packetState(p), 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ret != 0 {
				want = append(want, owner)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("packet %d: pooled verdicts %v, fresh %v", i, got, want)
		}
		seen := map[string]bool{}
		for _, o := range got {
			seen[o] = true
		}
		for _, o := range want {
			if !seen[o] {
				t.Fatalf("packet %d: pooled verdicts %v, fresh %v", i, got, want)
			}
		}
	}
}

// BenchmarkDeliverPacketState is the before/after evidence for the
// delivery-state pool: "fresh" builds a new memory image per filter
// per packet (the pre-pool behaviour), "pooled" is the shipping
// DeliverPacket path.
func BenchmarkDeliverPacketState(b *testing.B) {
	bins := certAll(b)
	pkt := pktgen.Generate(1, pktgen.Config{Seed: 5})[0]

	b.Run("fresh", func(b *testing.B) {
		k := New()
		if err := k.InstallFilter("hot", bins[filters.Filter4]); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tb := k.table.Load()
			for si := range tb.slots {
				res, err := tb.slots[si].f.ext.Run(k.packetState(pkt), 1<<20)
				if err != nil {
					b.Fatalf("%s: %v", tb.slots[si].owner, err)
				}
				_ = res
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		k := New()
		if err := k.InstallFilter("hot", bins[filters.Filter4]); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := k.DeliverPacket(pkt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDeliverWithRecorder quantifies the live-recorder dispatch
// overhead against the nil-recorder path on the same kernel.
func BenchmarkDeliverWithRecorder(b *testing.B) {
	bins := certAll(b)
	pkt := pktgen.Generate(1, pktgen.Config{Seed: 5})[0]
	k := New()
	if err := k.InstallFilter("hot", bins[filters.Filter4]); err != nil {
		b.Fatal(err)
	}
	b.Run("nil", func(b *testing.B) {
		k.SetRecorder(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := k.DeliverPacket(pkt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("live", func(b *testing.B) {
		k.SetRecorder(telemetry.New())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := k.DeliverPacket(pkt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestPerFilterLabeledCounters: dispatch with a recorder attached
// feeds the per-filter labeled families, the counts agree with the
// kernel's own accounting, and a hostile owner name (quotes,
// backslash, newline) still yields a parseable exposition page.
func TestPerFilterLabeledCounters(t *testing.T) {
	bins := certAll(t)
	k := New()
	rec := telemetry.New()
	k.SetRecorder(rec)
	hostile := "evil\"name\\with\nnewline"
	if err := k.InstallFilter(hostile, bins[filters.Filter1]); err != nil {
		t.Fatal(err)
	}
	if err := k.InstallFilter("plain", bins[filters.Filter2]); err != nil {
		t.Fatal(err)
	}
	for _, p := range pktgen.Generate(200, pktgen.Config{Seed: 9}) {
		if _, err := k.DeliverPacket(p); err != nil {
			t.Fatal(err)
		}
	}

	snap := rec.Snapshot(false)
	accepts := k.Accepts()
	for owner, want := range accepts {
		if got := snap.Labeled[MetricFilterAccepts][owner]; got != int64(want) {
			t.Errorf("%q: labeled accepts %d, kernel says %d", owner, got, want)
		}
	}
	var cycles int64
	for _, c := range snap.Labeled[MetricFilterCycles] {
		cycles += c
	}
	if cycles != k.Stats().ExtensionCycles {
		t.Errorf("labeled cycles %d, kernel charged %d", cycles, k.Stats().ExtensionCycles)
	}

	var buf bytes.Buffer
	if err := rec.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	if !strings.Contains(page, `{filter="evil\"name\\with\nnewline"}`) {
		t.Fatalf("hostile owner not escaped on the exposition page:\n%s", page)
	}
	for _, ln := range strings.Split(page, "\n") {
		if strings.ContainsRune(ln, '\r') {
			t.Fatalf("raw control character leaked into exposition line %q", ln)
		}
	}
}
