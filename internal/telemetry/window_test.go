package telemetry

import (
	"sync"
	"testing"
	"time"
)

// TestWindowRotation drives a window with synthetic clocks: same-epoch
// adds accumulate, a new epoch rotates the slot, and observations from
// an interval the ring already rotated past are dropped from the
// window (never double-counted).
func TestWindowRotation(t *testing.T) {
	w := newWindow(WindowOptions{Interval: time.Second, Slots: 3}, 0)
	w.created = 0
	sec := int64(time.Second)

	w.add(1*sec, -1, 2, 10)
	w.add(1*sec+sec/2, -1, 3, 20)
	st, _ := w.stat(1*sec+sec/2, 0)
	if st.Count != 5 || st.Sum != 30 {
		t.Fatalf("same-epoch adds: count/sum = %d/%d, want 5/30", st.Count, st.Sum)
	}

	// Epoch 4 reuses epoch 1's slot (3-slot ring): rotation zeroes it.
	w.add(4*sec, -1, 7, 70)
	st, _ = w.stat(4*sec, 0)
	if st.Count != 7 || st.Sum != 70 {
		t.Fatalf("after rotation: count/sum = %d/%d, want 7/70", st.Count, st.Sum)
	}

	// A straggler from the rotated-past epoch must be dropped.
	w.add(1*sec, -1, 100, 1000)
	st, _ = w.stat(4*sec, 0)
	if st.Count != 7 {
		t.Fatalf("straggler must be dropped from the window, count = %d", st.Count)
	}

	// stat excludes slots older than the window span.
	w.add(2*sec, -1, 4, 0) // live at now=4s (window covers epochs 2..4)
	st, _ = w.stat(4*sec, 0)
	if st.Count != 11 {
		t.Fatalf("in-window epoch must count: %d, want 11", st.Count)
	}
	st, _ = w.stat(7*sec, 0) // window now 5..7: everything aged out
	if st.Count != 0 {
		t.Fatalf("aged-out epochs must not count: %d, want 0", st.Count)
	}
}

// TestWindowAllocatesOnRotation: a histogram window's slots get their
// bucket counters when first rotated into, so a window that saw one
// interval holds one slot's counters; a later interval adds one more.
func TestWindowAllocatesOnRotation(t *testing.T) {
	w := newWindow(WindowOptions{Interval: time.Second, Slots: 60}, 16)
	w.created = 0
	sec := int64(time.Second)
	held := func() int {
		n := 0
		for i := range w.slots {
			if w.slots[i].buckets.Load() != nil {
				n++
			}
		}
		return n
	}
	if n := held(); n != 0 {
		t.Fatalf("fresh window holds %d slots' counters, want 0", n)
	}
	w.add(1*sec, 3, 1, 0)
	w.add(1*sec+sec/2, 5, 2, 0)
	if n := held(); n != 1 {
		t.Fatalf("one interval: %d slots' counters, want 1", n)
	}
	w.add(2*sec, 3, 4, 0)
	if n := held(); n != 2 {
		t.Fatalf("two intervals: %d slots' counters, want 2", n)
	}
	if st, merged := w.stat(2*sec, 16); st.Count != 7 || merged[3] != 5 || merged[5] != 2 {
		t.Fatalf("windowed buckets: count %d, merged %v", st.Count, merged)
	}
}

// TestWindowRate checks the covered-span clamp: a window younger than
// its full span reports Count over its age, not over the full span.
func TestWindowRate(t *testing.T) {
	w := newWindow(WindowOptions{Interval: time.Second, Slots: 60}, 0)
	w.created = 0
	sec := int64(time.Second)
	w.add(1*sec, -1, 10, 0)
	st, _ := w.stat(2*sec, 0)
	if st.Seconds != 2 {
		t.Fatalf("young window must clamp span to its age: %v s", st.Seconds)
	}
	if st.Rate != 5 {
		t.Fatalf("rate = %v, want 5/s", st.Rate)
	}
	// Past one full span the denominator pins at Interval*Slots.
	st, _ = w.stat(1000*sec, 0)
	if st.Seconds != 60 {
		t.Fatalf("old window must cover Interval*Slots: %v s", st.Seconds)
	}
}

// TestWindowedRecorder exercises the integrated path: a recorder built
// with Options.Window reports rates and windowed quantiles in its
// snapshot, and attaches windows to dynamically registered and labeled
// instruments.
func TestWindowedRecorder(t *testing.T) {
	r := NewWith(Options{Window: &WindowOptions{Interval: time.Second, Slots: 5}})
	r.Counter("pcc_packets_total").Add(50)
	r.LabeledCounter("pcc_rejects_total", "reason", "limit").Add(3)
	h := r.Histogram("h")
	for i := 0; i < 10; i++ {
		h.Observe(3 * time.Microsecond)
	}

	snap := r.Snapshot(false)
	if snap.Rates == nil || snap.Rates["pcc_packets_total"] <= 0 {
		t.Fatalf("windowed snapshot must report counter rates: %+v", snap.Rates)
	}
	if snap.LabeledRates["pcc_rejects_total"]["limit"] <= 0 {
		t.Fatalf("windowed snapshot must report labeled rates: %+v", snap.LabeledRates)
	}
	hs := snap.Histograms["h"]
	if hs.WindowRate <= 0 {
		t.Fatalf("windowed histogram must report a rate: %+v", hs)
	}
	if hs.WindowP50 < 2e-6 || hs.WindowP50 > 5e-6 {
		t.Fatalf("windowed p50 = %v, want ~3µs", hs.WindowP50)
	}
	if hs.WindowP99 < 2e-6 || hs.WindowP99 > 5e-6 {
		t.Fatalf("windowed p99 = %v, want ~3µs", hs.WindowP99)
	}

	// Unwindowed recorders must not grow the new snapshot sections.
	plain := New().Snapshot(false)
	if plain.Rates != nil || plain.LabeledRates != nil {
		t.Fatal("unwindowed snapshot must omit rates")
	}
	if plain.Histograms["pcc_stage_validate_seconds"].WindowRate != 0 {
		t.Fatal("unwindowed histograms must not report window stats")
	}
}

// TestWindowConcurrent hammers one window from many goroutines across
// epochs while a reader snapshots, under -race. The invariant is
// weaker than the cumulative one (boundary attribution is
// best-effort): counts never exceed what was added and stat never
// panics or returns negatives.
func TestWindowConcurrent(t *testing.T) {
	w := newWindow(WindowOptions{Interval: time.Millisecond, Slots: 4}, 3)
	const gs, per = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st, merged := w.stat(time.Now().UnixNano(), 3)
			if st.Count < 0 || st.Sum < 0 || st.Rate < 0 {
				panic("negative window stat")
			}
			var bsum int64
			for _, c := range merged {
				bsum += c
			}
			_ = bsum
		}
	}()
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				w.add(time.Now().UnixNano(), i%3, 1, int64(i))
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
	st, _ := w.stat(time.Now().UnixNano(), 3)
	if st.Count > gs*per {
		t.Fatalf("window over-counted: %d > %d", st.Count, gs*per)
	}
}

// TestValueHistogram: raw-unit mode keeps the sum in raw units, zeroes
// Sum() (duration view), and flags itself in the snapshot.
func TestValueHistogram(t *testing.T) {
	r := New()
	h := r.ValueHistogram("pcc_proof_bytes", LogBounds(8, 1<<20))
	if h2 := r.ValueHistogram("pcc_proof_bytes", nil); h2 != h {
		t.Fatal("re-lookup must return the registered value histogram")
	}
	h.ObserveValue(100)
	h.ObserveValueEID(900, 42)
	if !h.Raw() {
		t.Fatal("value histogram must report Raw")
	}
	if h.Sum() != 0 {
		t.Fatalf("duration Sum on a value histogram must be 0, got %v", h.Sum())
	}
	if h.SumValue() != 1000 {
		t.Fatalf("SumValue = %v, want 1000 raw units", h.SumValue())
	}
	if q := h.Quantile(0.5); q < 100 || q > 1000 {
		t.Fatalf("raw quantile = %v, want within [100, 1000]", q)
	}
	snap := r.Snapshot(true)
	hs := snap.Histograms["pcc_proof_bytes"]
	if !hs.Raw || hs.SumSeconds != 1000 {
		t.Fatalf("snapshot must carry raw mode and raw sum: %+v", hs)
	}
}

// TestExemplars: ObserveEID retains the most recent EventID per
// bucket, exposed through Exemplars and the bucketed snapshot.
func TestExemplars(t *testing.T) {
	h := NewHistogram([]float64{1e-6, 1e-3})
	h.ObserveEID(500*time.Nanosecond, 7) // bucket 0
	h.ObserveEID(2*time.Second, 9)       // +Inf bucket
	h.ObserveEID(600*time.Nanosecond, 8) // bucket 0 again: newest wins
	h.Observe(700 * time.Nanosecond)     // eid 0 must not clobber
	ex := h.Exemplars()
	if len(ex) != 3 || ex[0] != 8 || ex[1] != 0 || ex[2] != 9 {
		t.Fatalf("exemplars = %v, want [8 0 9]", ex)
	}

	r := New()
	r.Histogram("h").ObserveEID(500*time.Nanosecond, 1234)
	snap := r.Snapshot(true)
	var found bool
	for _, b := range snap.Histograms["h"].Buckets {
		if b.Exemplar == 1234 {
			found = true
		}
	}
	if !found {
		t.Fatalf("snapshot buckets must expose the exemplar: %+v", snap.Histograms["h"].Buckets)
	}
}

// TestObserveBuckets: a locally bucketed batch folds in with exact
// count and sum, matches the buckets observing each value fills,
// stamps the batch EventID on every non-empty bucket only, and feeds
// the window once per non-empty bucket.
func TestObserveBuckets(t *testing.T) {
	r := NewWith(Options{Window: &WindowOptions{}})
	h := r.LabeledHistogram("run_seconds", "filter", "a", []float64{1e-6, 1e-3})
	ref := NewHistogram([]float64{1e-6, 1e-3})
	vals := []time.Duration{300 * time.Nanosecond, 900 * time.Nanosecond, 40 * time.Microsecond, 3 * time.Millisecond}
	counts := []int64{2, 1, 1} // vals bucketed against the bounds above
	var sum time.Duration
	for _, v := range vals {
		sum += v
		ref.Observe(v)
	}
	h.ObserveEID(500*time.Nanosecond, 3) // an earlier exemplar in bucket 0
	h.ObserveBuckets(counts, sum, 42, time.Now().UnixNano())
	h.ObserveBuckets(make([]int64, len(counts)), 0, 99, time.Now().UnixNano()) // empty: no-op

	if got, want := h.Count(), int64(len(vals)+1); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	if got, want := h.Sum(), sum+500*time.Nanosecond; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	got, want := h.BucketCounts(), ref.BucketCounts()
	want[0]++ // the ObserveEID above
	for b := range want {
		if got[b] != want[b] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
	for b, e := range h.Exemplars() {
		if e != 42 {
			t.Fatalf("bucket %d exemplar = %d, want the batch's 42 (%v)", b, e, h.Exemplars())
		}
	}
	if st, _, _ := h.WindowStat(); st.Count != int64(len(vals)+1) {
		t.Fatalf("window count = %d, want %d", st.Count, len(vals)+1)
	}
	var nilH *Histogram
	nilH.ObserveBuckets(counts, sum, 1, 0) // nil-safe like every instrument
}

// TestSpanEventPropagation: StartSpan threads the EventID and owner
// through Child and Record into every span event.
func TestSpanEventPropagation(t *testing.T) {
	r := New()
	s := r.StartSpan(StageValidate, "owner", "", 99)
	s.Child(StageParse).End(nil)
	s.Record(StageWCET, "", time.Now(), time.Microsecond, nil)
	s.End(nil)
	events := r.Log().Events(Query{})
	if len(events) != 3 {
		t.Fatalf("%d span events, want 3", len(events))
	}
	for _, e := range events {
		if e.Event != 99 || e.Owner != "owner" {
			t.Fatalf("span event %+v lost the correlation EventID or owner", e)
		}
		if e.Stage != StageValidate && e.Parent != s.ID() {
			t.Fatalf("child span %+v not parented to %d", e, s.ID())
		}
	}
}
