package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderRingAndJSON(t *testing.T) {
	f := NewFlightRecorder(4)
	if f.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", f.Cap())
	}
	for i := 0; i < 6; i++ {
		f.Record(FlightConfigChange, "owner", "detail")
	}
	if f.Appended() != 6 || f.Dropped() != 2 {
		t.Fatalf("appended/dropped = %d/%d, want 6/2", f.Appended(), f.Dropped())
	}
	evs := f.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+2) {
			t.Fatalf("event %d: seq %d, want %d (oldest-first after wrap)", i, e.Seq, i+2)
		}
		if e.Kind != FlightConfigChange || e.Owner != "owner" {
			t.Fatalf("event %d: %+v", i, e)
		}
		if e.TimeUnixNanos <= 0 || time.Since(time.Unix(0, e.TimeUnixNanos)) > time.Minute {
			t.Fatalf("event %d: implausible timestamp %d", i, e.TimeUnixNanos)
		}
	}

	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Capacity int           `json:"capacity"`
		Appended int64         `json:"appended"`
		Dropped  int64         `json:"dropped"`
		Events   []FlightEvent `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("WriteJSON output not JSON: %v\n%s", err, buf.String())
	}
	if snap.Capacity != 4 || snap.Appended != 6 || snap.Dropped != 2 || len(snap.Events) != 4 {
		t.Fatalf("snapshot %+v", snap)
	}
}

func TestFlightRecorderNilAndEmpty(t *testing.T) {
	var f *FlightRecorder
	f.Record(FlightMemoryFault, "x", "y") // must not panic
	if f.Appended() != 0 || f.Dropped() != 0 || f.Cap() != 0 || f.Events() != nil {
		t.Fatal("nil recorder must be a silent no-op")
	}
	var buf bytes.Buffer
	if err := NewFlightRecorder(0).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"events": []`) {
		t.Fatalf("empty ring must serialize events as [], got %s", buf.String())
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f.Record(FlightFuelExhausted, "o", "d")
				f.Events()
			}
		}()
	}
	wg.Wait()
	if f.Appended() != 4000 {
		t.Fatalf("appended %d, want 4000", f.Appended())
	}
	evs := f.Events()
	if len(evs) != 64 {
		t.Fatalf("ring holds %d, want 64", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of order at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestLogBounds(t *testing.T) {
	b := LogBounds(1e-6, 1e-3)
	want := []float64{1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3}
	if len(b) != len(want) {
		t.Fatalf("LogBounds(1e-6, 1e-3) = %v, want %v", b, want)
	}
	for i := range b {
		if b[i] < want[i]*0.999 || b[i] > want[i]*1.001 {
			t.Fatalf("bound %d = %g, want %g", i, b[i], want[i])
		}
	}
	d := DispatchLatencyBounds
	if d[0] >= 1e-7 {
		t.Fatalf("dispatch bounds must start sub-100ns: %v", d[0])
	}
	for i := 1; i < len(d); i++ {
		if d[i] <= d[i-1] {
			t.Fatalf("dispatch bounds not ascending at %d: %v", i, d)
		}
	}
}

// TestDispatchStageSubMicroBuckets: the dispatch stages must resolve a
// ~200 ns observation into a sub-µs bucket (not the first default
// bucket), while explicit Options.Buckets still override every stage.
func TestDispatchStageSubMicroBuckets(t *testing.T) {
	r := New()
	h := r.StageHistogram(StageDispatch)
	h.Observe(200 * time.Nanosecond)
	counts := h.BucketCounts()
	bounds := h.Bounds()
	for i, c := range counts {
		if c == 1 {
			if i >= len(bounds) || bounds[i] >= 1e-6 {
				t.Fatalf("200ns landed at bucket %d (le %v), want a sub-µs bucket", i, bounds)
			}
			break
		}
	}
	if got := r.StageHistogram(StageVCGen).Bounds(); &got[0] != &DefaultLatencyBounds[0] {
		t.Fatal("non-dispatch stages must keep DefaultLatencyBounds")
	}
	custom := NewWith(Options{Buckets: []float64{1, 2}})
	if got := custom.StageHistogram(StageDispatchBatch).Bounds(); len(got) != 2 {
		t.Fatalf("explicit Buckets must win for dispatch stages too, got %v", got)
	}
}

// TestLabeledHistogramExposition: registration, identity on re-lookup,
// label escaping, and the cumulative bucket/sum/count exposition
// contract for labeled histogram families.
func TestLabeledHistogramExposition(t *testing.T) {
	r := New()
	h := r.LabeledHistogram("pcc_filter_run_seconds", "filter", `ow"ner`, []float64{1e-6, 1e-3})
	if h2 := r.LabeledHistogram("pcc_filter_run_seconds", "filter", `ow"ner`, nil); h2 != h {
		t.Fatal("re-lookup must return the registered histogram")
	}
	h.Observe(1 * time.Microsecond)  // first bucket
	h.Observe(10 * time.Microsecond) // second bucket
	h.Observe(time.Second)           // +Inf
	r.LabeledHistogram("pcc_filter_run_seconds", "filter", "other", nil).Observe(time.Millisecond)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	for _, want := range []string{
		"# TYPE pcc_filter_run_seconds histogram",
		`pcc_filter_run_seconds_bucket{filter="ow\"ner",le="1e-06"} 1`,
		`pcc_filter_run_seconds_bucket{filter="ow\"ner",le="0.001"} 2`,
		`pcc_filter_run_seconds_bucket{filter="ow\"ner",le="+Inf"} 3`,
		`pcc_filter_run_seconds_count{filter="ow\"ner"} 3`,
		`pcc_filter_run_seconds_bucket{filter="other",le="0.001"} 1`,
		`pcc_filter_run_seconds_count{filter="other"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("exposition missing %q:\n%s", want, page)
		}
	}

	snap := r.Snapshot(false)
	fam := snap.LabeledHistograms["pcc_filter_run_seconds"]
	if fam == nil || fam[`ow"ner`].Count != 3 || fam["other"].Count != 1 {
		t.Fatalf("snapshot labeled histograms wrong: %+v", snap.LabeledHistograms)
	}

	var nilRec *Recorder
	if nilRec.LabeledHistogram("f", "k", "v", nil) != nil {
		t.Fatal("nil recorder must hand out nil histograms")
	}
}

// TestFlightSnapshotInvariantUnderWrap races snapshots against
// concurrent appends across many full ring wraps, on each of the three
// rings sharing ring.go's cut — flight events, spans, audit records —
// asserting at every snapshot that
//
//	appended == len(events) + dropped
//
// holds exactly with dropped counting only overwritten or unpublished
// entries: sequence numbers are unique, ascending and below appended,
// and every entry is fully formed (no torn slot reads). The flight case also checks the public Snapshot
// and WriteJSON. Run under -race.
func TestFlightSnapshotInvariantUnderWrap(t *testing.T) {
	const capacity = 8 // tiny rings: thousands of wraps per run
	type cut struct {
		appended int64
		seqs     []uint64
		whole    bool
	}
	f := NewFlightRecorder(capacity)
	rec := NewWith(Options{TraceCapacity: capacity})
	audit := NewAuditRing(capacity)
	cases := []struct {
		name    string
		add     func(eid uint64)
		cut     func(t *testing.T) cut
		dropped func() int64
	}{
		{"flight", func(eid uint64) {
			f.RecordEvent(FlightFuelExhausted, "owner", "detail", eid)
		}, func(t *testing.T) cut {
			snap := f.Snapshot()
			c := cut{appended: snap.Appended, whole: snap.Capacity == capacity}
			for _, e := range snap.Events {
				c.seqs = append(c.seqs, e.Seq)
				c.whole = c.whole && e.Kind == FlightFuelExhausted && e.Owner == "owner" && e.Event != 0 && e.TimeUnixNanos != 0
			}
			if snap.Dropped != snap.Appended-int64(len(snap.Events)) {
				t.Fatalf("snapshot breaks the invariant: %+v", snap)
			}
			// WriteJSON is the same snapshot through the encoder; it
			// must stay well-formed mid-wrap too.
			var buf bytes.Buffer
			if err := f.WriteJSON(&buf); err != nil {
				t.Fatalf("WriteJSON under churn: %v", err)
			}
			var back FlightSnapshot
			if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
				t.Fatalf("WriteJSON emitted invalid JSON under churn: %v", err)
			}
			if back.Appended != int64(len(back.Events))+back.Dropped {
				t.Fatalf("decoded snapshot breaks the invariant: %+v", back)
			}
			return c
		}, f.Dropped},
		{"span", func(eid uint64) {
			rec.RecordSpan(StageDispatch, "owner", 0, eid, time.Now(), time.Microsecond, nil)
		}, func(t *testing.T) cut {
			c := cut{whole: true}
			var evs []Event
			c.appended, evs = rec.Trace().snapshot(func(_ *Event, seq uint64) { c.seqs = append(c.seqs, seq) })
			for _, e := range evs {
				c.whole = c.whole && e.Stage == StageDispatch && e.Detail == "owner" && e.Event != 0 && e.ID != 0
			}
			return c
		}, rec.Trace().Dropped},
		{"audit", func(eid uint64) {
			audit.add(&AuditRecord{Level: "INFO", Msg: "pcc install", Kind: "install", Owner: "owner", Event: eid})
		}, func(t *testing.T) cut {
			c := cut{whole: true}
			var recs []AuditRecord
			c.appended, recs = audit.snapshot(func(r *AuditRecord, seq uint64) {
				r.Seq = seq
				c.seqs = append(c.seqs, seq)
			})
			for _, r := range recs {
				c.whole = c.whole && r.Kind == "install" && r.Owner == "owner" && r.Event != 0
			}
			return c
		}, func() int64 { return max(audit.Appended()-capacity, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						tc.add(uint64(g*1_000_000 + i + 1))
					}
				}(g)
			}

			deadline := time.Now().Add(200 * time.Millisecond)
			for snapshots := 1; time.Now().Before(deadline); snapshots++ {
				c := tc.cut(t)
				if len(c.seqs) > capacity {
					t.Fatalf("snapshot %d: %d entries in a %d ring", snapshots, len(c.seqs), capacity)
				}
				if !c.whole {
					t.Fatalf("snapshot %d: torn entry", snapshots)
				}
				for i, seq := range c.seqs {
					if i > 0 && seq <= c.seqs[i-1] {
						t.Fatalf("snapshot %d: seq not strictly ascending at %d: %d then %d",
							snapshots, i, c.seqs[i-1], seq)
					}
					if int64(seq) >= c.appended {
						t.Fatalf("snapshot %d: seq %d beyond appended %d", snapshots, seq, c.appended)
					}
				}
			}
			close(stop)
			wg.Wait()
			// Quiescent: nothing is in flight, so the cut holds every
			// entry the ring has not overwritten.
			c := tc.cut(t)
			if c.appended != int64(len(c.seqs))+tc.dropped() {
				t.Fatalf("quiescent: appended %d != entries %d + dropped %d", c.appended, len(c.seqs), tc.dropped())
			}
			if tc.dropped() == 0 {
				t.Fatal("test never wrapped the ring; invariant not exercised")
			}
		})
	}
}
