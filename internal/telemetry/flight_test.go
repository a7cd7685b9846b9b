package telemetry

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderRingAndJSON(t *testing.T) {
	l := newLog(8, 8, 4)
	for i := 0; i < 6; i++ {
		l.Record(Event{Class: ClassFlight, Kind: FlightConfigChange, Owner: "owner", Detail: "detail"})
	}
	snap := l.Snapshot(ClassFlight)
	if snap.Capacity != 4 || snap.Appended != 6 || snap.Dropped != 2 {
		t.Fatalf("capacity/appended/dropped = %d/%d/%d, want 4/6/2", snap.Capacity, snap.Appended, snap.Dropped)
	}
	if len(snap.Events) != 4 {
		t.Fatalf("got %d events, want 4", len(snap.Events))
	}
	for i, e := range snap.Events {
		if e.Seq != uint64(i+2) {
			t.Fatalf("event %d: seq %d, want %d (oldest-first after wrap)", i, e.Seq, i+2)
		}
		if e.Class != ClassFlight || e.Kind != FlightConfigChange || e.Owner != "owner" {
			t.Fatalf("event %d: %+v", i, e)
		}
		if e.TimeUnixNanos <= 0 || time.Since(time.Unix(0, e.TimeUnixNanos)) > time.Minute {
			t.Fatalf("event %d: implausible timestamp %d", i, e.TimeUnixNanos)
		}
	}

	// The /debug/flightrecorder document: {capacity, appended, dropped,
	// events}, each event with the flight fields it always had.
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Capacity int     `json:"capacity"`
		Appended int64   `json:"appended"`
		Dropped  int64   `json:"dropped"`
		Events   []Event `json:"events"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("snapshot JSON: %v\n%s", err, b)
	}
	if doc.Capacity != 4 || doc.Appended != 6 || doc.Dropped != 2 || len(doc.Events) != 4 {
		t.Fatalf("snapshot %+v", doc)
	}
	for _, field := range []string{`"seq":2`, `"time_unix_ns":`, `"kind":"config_change"`, `"owner":"owner"`, `"detail":"detail"`} {
		if !strings.Contains(string(b), field) {
			t.Fatalf("flight event JSON missing %s: %s", field, b)
		}
	}
}

func TestFlightRecorderNilAndEmpty(t *testing.T) {
	var l *Log
	l.Record(Event{Class: ClassFlight, Kind: FlightMemoryFault}) // must not panic
	if s := l.Snapshot(ClassFlight); s.Appended != 0 || s.Dropped != 0 || s.Capacity != 0 || len(s.Events) != 0 {
		t.Fatalf("nil log must be a silent no-op, snapshot %+v", s)
	}
	if len(l.Events(Query{})) != 0 {
		t.Fatal("nil log must read as empty")
	}
	// An event of no known class is dropped, not misfiled.
	l = New().Log()
	l.Record(Event{Class: "bogus", Kind: FlightMemoryFault})
	if evs := l.Events(Query{}); len(evs) != 0 {
		t.Fatalf("unknown-class event was kept: %+v", evs)
	}
	b, err := json.Marshal(l.Snapshot(ClassFlight))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"events":[]`) || !strings.Contains(string(b), `"capacity":256`) {
		t.Fatalf("empty class must serialize events as [] at the default capacity, got %s", b)
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	l := newLog(8, 8, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Record(Event{Class: ClassFlight, Kind: FlightFuelExhausted, Owner: "o", Detail: "d"})
				l.Snapshot(ClassFlight)
			}
		}()
	}
	wg.Wait()
	snap := l.Snapshot(ClassFlight)
	if snap.Appended != 4000 {
		t.Fatalf("appended %d, want 4000", snap.Appended)
	}
	evs := snap.Events
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
// concurrent appends across many full ring wraps, on each class of the
// log — flight events, spans, audit records — asserting at every
// snapshot that
//
//	appended == len(events) + dropped
//
// holds exactly with dropped counting only overwritten or unpublished
// events: sequence numbers are unique, ascending and below appended,
// and every event is fully formed (no torn slot reads). Every cut is
// also JSON-encoded and decoded mid-wrap. Run under -race.
func TestFlightSnapshotInvariantUnderWrap(t *testing.T) {
	const capacity = 8 // tiny rings: thousands of wraps per run
	rec := New()
	rec.log = newLog(capacity, capacity, capacity)
	l := rec.Log()
	audit := slog.New(l.Handler(nil))
	cases := []struct {
		class string
		add   func(eid uint64)
		whole func(e Event) bool
	}{
		{ClassFlight, func(eid uint64) {
			l.Record(Event{Class: ClassFlight, Kind: FlightFuelExhausted, Owner: "owner", Detail: "detail", Event: eid})
		}, func(e Event) bool {
			return e.Kind == FlightFuelExhausted && e.Owner == "owner" && e.Event != 0 && e.TimeUnixNanos != 0
		}},
		{ClassSpan, func(eid uint64) {
			rec.StartSpan(StageDispatch, "owner", "", eid).End(nil)
		}, func(e Event) bool {
			return e.Stage == StageDispatch && e.Owner == "owner" && e.Event != 0 && e.ID != 0
		}},
		{ClassAudit, func(eid uint64) {
			audit.Info("pcc install", "event", "install", "owner", "owner", "event_id", eid)
		}, func(e Event) bool {
			return e.Kind == "install" && e.Owner == "owner" && e.Event != 0 && e.Msg == "pcc install"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.class, func(t *testing.T) {
			cut := func() ClassSnapshot {
				snap := l.Snapshot(tc.class)
				if snap.Capacity != capacity || snap.Dropped != snap.Appended-int64(len(snap.Events)) {
					t.Fatalf("snapshot breaks the invariant: %+v", snap)
				}
				b, err := json.Marshal(snap)
				if err != nil {
					t.Fatalf("snapshot JSON under churn: %v", err)
				}
				var back ClassSnapshot
				if err := json.Unmarshal(b, &back); err != nil {
					t.Fatalf("snapshot JSON invalid under churn: %v", err)
				}
				if back.Appended != int64(len(back.Events))+back.Dropped {
					t.Fatalf("decoded snapshot breaks the invariant: %+v", back)
				}
				return snap
			}
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
				snap := cut()
				if len(snap.Events) > capacity {
					t.Fatalf("snapshot %d: %d events in a %d ring", snapshots, len(snap.Events), capacity)
				}
				for i, e := range snap.Events {
					if e.Class != tc.class || !tc.whole(e) {
						t.Fatalf("snapshot %d: torn event %+v", snapshots, e)
					}
					if i > 0 && e.Seq <= snap.Events[i-1].Seq {
						t.Fatalf("snapshot %d: seq not strictly ascending at %d: %d then %d",
							snapshots, i, snap.Events[i-1].Seq, e.Seq)
					}
					if int64(e.Seq) >= snap.Appended {
						t.Fatalf("snapshot %d: seq %d beyond appended %d", snapshots, e.Seq, snap.Appended)
					}
				}
			}
			close(stop)
			wg.Wait()
			// Quiescent: nothing is in flight, so the cut holds every
			// event the ring has not overwritten.
			snap := cut()
			dropped := l.ring(tc.class).dropped()
			if snap.Appended != int64(len(snap.Events))+dropped {
				t.Fatalf("quiescent: appended %d != events %d + dropped %d", snap.Appended, len(snap.Events), dropped)
			}
			if dropped == 0 {
				t.Fatal("test never wrapped the ring; invariant not exercised")
			}
		})
	}
}
