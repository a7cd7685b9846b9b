package telemetry

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Recorder
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(time.Second)
	r.StageHistogram(StageVCGen).Observe(time.Second)
	sp := r.StartSpan(StageValidate, "owner", "", 1)
	sp.Child(StageParse).End(nil)
	sp.Record(StageWCET, "", time.Now(), time.Millisecond, nil)
	sp.End(errors.New("boom"))
	if id := sp.ID(); id != 0 {
		t.Errorf("nil span id = %d, want 0", id)
	}
	if r.Log() != nil {
		t.Error("nil recorder must have a nil log")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if s := r.Snapshot(true); s.TraceAppended != 0 {
		t.Errorf("nil snapshot: %+v", s)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	for i := 0; i < 50; i++ {
		h.Observe(500 * time.Microsecond) // first bucket
	}
	for i := 0; i < 40; i++ {
		h.Observe(5 * time.Millisecond) // second bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond) // third bucket
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	wantSum := 50*500*time.Microsecond + 40*5*time.Millisecond + 10*50*time.Millisecond
	if h.Sum() != wantSum {
		t.Errorf("sum = %v, want %v", h.Sum(), wantSum)
	}
	if p50 := h.Quantile(0.50); p50 <= 0 || p50 > 0.001 {
		t.Errorf("p50 = %g, want within first bucket (0, 0.001]", p50)
	}
	if p90 := h.Quantile(0.90); p90 <= 0.001 || p90 > 0.01 {
		t.Errorf("p90 = %g, want within second bucket (0.001, 0.01]", p90)
	}
	if p99 := h.Quantile(0.99); p99 <= 0.01 || p99 > 0.1 {
		t.Errorf("p99 = %g, want within third bucket (0.01, 0.1]", p99)
	}
	// Beyond the last bound: clamped to the last finite bound.
	h2 := NewHistogram([]float64{0.001})
	h2.Observe(time.Second)
	if q := h2.Quantile(0.5); q != 0.001 {
		t.Errorf("overflow quantile = %g, want clamp to 0.001", q)
	}
	if h3 := NewHistogram(nil); h3.Quantile(0.99) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

func TestSpanTreeAndStageHistograms(t *testing.T) {
	r := New()
	root := r.StartSpan(StageValidate, "alice", "alice", 0)
	child := root.Child(StageVCGen)
	child.End(nil)
	root.Record(StageWCET, "alice", time.Now(), 3*time.Millisecond, nil)
	root.End(nil)

	events := r.Log().Events(Query{})
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	byStage := map[string]Event{}
	for _, e := range events {
		byStage[e.Stage] = e
	}
	if byStage[StageVCGen].Parent != byStage[StageValidate].ID {
		t.Errorf("vcgen parent = %d, want %d", byStage[StageVCGen].Parent, byStage[StageValidate].ID)
	}
	if byStage[StageWCET].Parent != byStage[StageValidate].ID {
		t.Errorf("wcet parent = %d, want %d", byStage[StageWCET].Parent, byStage[StageValidate].ID)
	}
	if byStage[StageWCET].DurNanos != (3 * time.Millisecond).Nanoseconds() {
		t.Errorf("wcet dur = %d", byStage[StageWCET].DurNanos)
	}
	for _, e := range events {
		if e.Class != ClassSpan || e.Owner != "alice" {
			t.Errorf("span %s lost its class or owner: %+v", e.Stage, e)
		}
	}
	for _, stage := range []string{StageValidate, StageVCGen, StageWCET} {
		if n := r.StageHistogram(stage).Count(); n != 1 {
			t.Errorf("stage %s histogram count = %d, want 1", stage, n)
		}
	}
}

func TestSpanErrorRecorded(t *testing.T) {
	r := New()
	sp := r.StartSpan(StageValidate, "mallory", "", 0)
	sp.End(errors.New("proof validation failed"))
	events := r.Log().Events(Query{})
	if len(events) != 1 || events[0].Err != "proof validation failed" {
		t.Fatalf("events = %+v", events)
	}
}

func TestTraceRingWrapAndDropAccounting(t *testing.T) {
	r := New()
	r.log = newLog(8, 8, 8)
	for i := 0; i < 20; i++ {
		r.StartSpan(StageDispatch, "", "", 0).End(nil)
	}
	tr := r.Log().Snapshot(ClassSpan)
	if tr.Appended != 20 {
		t.Errorf("appended = %d, want 20", tr.Appended)
	}
	if tr.Dropped != 12 {
		t.Errorf("dropped = %d, want 12", tr.Dropped)
	}
	var page bytes.Buffer
	if err := r.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page.String(), "pcc_trace_events_total 20") || !strings.Contains(page.String(), "pcc_trace_dropped_total 12") {
		t.Errorf("exposition must report span-class accounting:\n%s", page.String())
	}
	events := tr.Events
	if len(events) != 8 {
		t.Fatalf("ring holds %d, want 8", len(events))
	}
	// The ring keeps the newest events (IDs 13..20).
	for i, e := range events {
		if want := uint64(13 + i); e.ID != want {
			t.Errorf("event[%d].ID = %d, want %d", i, e.ID, want)
		}
	}
	if int64(len(events))+tr.Dropped != tr.Appended {
		t.Error("ring + dropped != appended")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := New()
	root := r.StartSpan(StageValidate, "bob", "bob", 7)
	root.Child(StageParse).End(nil)
	root.End(errors.New("rejected"))
	r.StartSpan(StageDispatch, "", "", 0).End(nil)
	l := r.Log()
	slog.New(l.Handler(nil)).With("tenant", "t").Info("pcc install",
		"event", "install", "owner", "bob", "event_id", uint64(7), "reject_reason", "proof")
	l.Record(Event{Class: ClassFlight, Kind: FlightQuarantine, Owner: "bob", Detail: "strikes=3", Event: 7})

	// Every class round-trips, audit attrs included.
	orig := l.Events(Query{})
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, orig); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 5 {
		t.Fatalf("jsonl lines = %d, want 5:\n%s", lines, buf.String())
	}
	decoded, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, orig) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", decoded, orig)
	}
	classes := map[string]int{}
	for _, e := range decoded {
		classes[e.Class]++
	}
	if classes[ClassSpan] != 3 || classes[ClassAudit] != 1 || classes[ClassFlight] != 1 {
		t.Errorf("classes after round trip: %v", classes)
	}
	if a := decoded[3]; a.Attrs["tenant"] != "t" || a.Attrs["reject_reason"] != "proof" {
		t.Errorf("audit attrs lost in round trip: %+v", a)
	}
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Error("malformed line should error")
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := New()
	r.Counter("pcc_install_installed_total").Add(3)
	r.Counter("pcc_install_rejected_total").Add(1)
	r.Gauge("pcc_filters_installed").Set(2)
	r.StartSpan(StageVCGen, "", "", 0).End(nil)
	r.StartSpan(StageDispatch, "", "", 0).End(nil)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	for _, want := range []string{
		"# TYPE pcc_install_installed_total counter",
		"pcc_install_installed_total 3",
		"pcc_install_rejected_total 1",
		"# TYPE pcc_filters_installed gauge",
		"pcc_filters_installed 2",
		"# TYPE pcc_stage_vcgen_seconds histogram",
		`pcc_stage_vcgen_seconds_bucket{le="+Inf"} 1`,
		"pcc_stage_vcgen_seconds_count 1",
		"pcc_stage_dispatch_seconds_count 1",
		"pcc_trace_events_total 2",
		"pcc_trace_dropped_total 0",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("exposition missing %q\n%s", want, page)
		}
	}
	// Deterministic ordering: two scrapes render identically.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if page != buf2.String() {
		t.Error("exposition page is not deterministic")
	}
}

func TestJSONSnapshot(t *testing.T) {
	r := New()
	r.Counter("pcc_cache_hits_total").Add(9)
	r.StartSpan(StageLFCheck, "", "", 0).End(nil)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s := r.Snapshot(true)
	if s.Counters["pcc_cache_hits_total"] != 9 {
		t.Errorf("snapshot counters: %+v", s.Counters)
	}
	hs, ok := s.Histograms["pcc_stage_lfcheck_seconds"]
	if !ok || hs.Count != 1 || len(hs.Buckets) != len(DefaultLatencyBounds)+1 {
		t.Errorf("snapshot histogram: %+v", hs)
	}
	if !strings.Contains(buf.String(), "pcc_cache_hits_total") {
		t.Errorf("json missing counter:\n%s", buf.String())
	}
}

// TestConcurrentRecording hammers one recorder from many goroutines
// (spans, counters, scrapes, trace reads) — the lock-free claims must
// hold under -race, and no event may be lost beyond ring drops.
func TestConcurrentRecording(t *testing.T) {
	r := New()
	r.log = newLog(128, 8, 8)
	const workers, iters = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sp := r.StartSpan(StageValidate, fmt.Sprintf("w%d", w), "", 0)
				sp.Child(StageVCGen).End(nil)
				sp.End(nil)
				r.Counter("pcc_install_installed_total").Inc()
				if i%32 == 0 {
					r.Log().Snapshot(ClassSpan)
					var buf bytes.Buffer
					if err := r.WritePrometheus(&buf); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	wantSpans := int64(workers * iters * 2)
	spans := func() ClassSnapshot { return r.Log().Snapshot(ClassSpan) }
	if got := spans().Appended; got != wantSpans {
		t.Errorf("appended = %d, want %d", got, wantSpans)
	}
	var histTotal int64
	for _, stage := range Stages {
		histTotal += r.StageHistogram(stage).Count()
	}
	if histTotal != wantSpans {
		t.Errorf("histogram totals = %d, want %d (one observation per span)", histTotal, wantSpans)
	}
	if got := r.Counter("pcc_install_installed_total").Value(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if s := spans(); int64(len(s.Events))+s.Dropped != s.Appended || s.Dropped == 0 {
		t.Error("ring + dropped != appended")
	}
}
