// Metric primitives: monotonic counters, gauges, and fixed-bucket
// latency histograms. Everything on the observation path is a single
// atomic operation — no locks, no allocation — so instrumented code
// stays race-clean and cheap enough to leave on under load. All
// methods tolerate a nil receiver and do nothing, which is how the
// kernel's "no recorder configured" path stays zero-cost without
// branching at every call site.
package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. When built by a
// Recorder with Options.Window set it also feeds a sliding window, so
// the exposition can report a recent rate next to the cumulative
// total.
type Counter struct {
	n   atomic.Int64
	win *Window
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (callers must keep counters monotonic; deltas are not
// checked).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.n.Add(n)
	if c.win != nil {
		c.win.add(time.Now().UnixNano(), -1, n, 0)
	}
}

// Window returns the counter's sliding window (nil when windows are
// off).
func (c *Counter) Window() *Window {
	if c == nil {
		return nil
	}
	return c.win
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a value that can go up and down (e.g. installed filters).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultLatencyBounds are the histogram bucket upper bounds in
// seconds: a 1-2-5 ladder from 1 µs to 10 s, wide enough for a cache
// hit (~µs) and a cold multi-ms proof check on the same axis. An
// implicit +Inf bucket catches the rest.
var DefaultLatencyBounds = []float64{
	1e-6, 2e-6, 5e-6,
	1e-5, 2e-5, 5e-5,
	1e-4, 2e-4, 5e-4,
	1e-3, 2e-3, 5e-3,
	1e-2, 2e-2, 5e-2,
	0.1, 0.2, 0.5,
	1, 2, 5, 10,
}

// LogBounds builds a log-scale 1-2-5 bucket ladder covering [lo, hi]
// (seconds): every value m*10^e with m in {1, 2, 5} that falls inside
// the range, ascending. The implicit +Inf bucket catches the rest, so
// hi only bounds the resolution, not the observable range.
func LogBounds(lo, hi float64) []float64 {
	var out []float64
	const eps = 1e-9
	for e := math.Floor(math.Log10(lo)); ; e++ {
		base := math.Pow(10, e)
		for _, m := range [3]float64{1, 2, 5} {
			v := m * base
			if v < lo*(1-eps) {
				continue
			}
			if v > hi*(1+eps) {
				return out
			}
			out = append(out, v)
		}
	}
}

// DispatchLatencyBounds is the dispatch-stage ladder: compiled filter
// runs retire in ~100 ns, far below DefaultLatencyBounds' 1 µs floor,
// so the dispatch and per-filter histograms resolve from 50 ns up to
// 50 ms (a whole stuck batch still lands in a finite bucket).
var DispatchLatencyBounds = LogBounds(50e-9, 0.05)

// Histogram is a fixed-bucket latency histogram. Observations are two
// atomic adds plus a binary search over the (immutable) bounds; counts
// and the running sum are exact, quantiles are bucket-interpolated
// estimates.
//
// Each bucket also retains an exemplar: the correlation EventID of the
// most recent observation that landed in it (via ObserveEID or
// ObserveBuckets), linking a fat tail bucket directly to the span
// tree, audit record, and flight events of the operation that
// produced it.
//
// A histogram built by NewValueHistogram measures raw units (bytes,
// nodes) instead of seconds: bounds are raw units and the sum is the
// raw total.
type Histogram struct {
	bounds    []float64 // ascending upper bounds, seconds (or raw units); +Inf implicit
	buckets   []atomic.Int64
	exemplars []atomic.Uint64 // last EventID seen per bucket; 0 = none
	count     atomic.Int64
	sum       atomic.Int64 // nanoseconds, or raw units in value mode
	raw       bool
	win       *Window
}

// NewHistogram builds a histogram over the given ascending bucket
// bounds (seconds); nil means DefaultLatencyBounds.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBounds
	}
	return &Histogram{
		bounds:    bounds,
		buckets:   make([]atomic.Int64, len(bounds)+1),
		exemplars: make([]atomic.Uint64, len(bounds)+1),
	}
}

// NewValueHistogram builds a histogram over raw units (proof bytes, VC
// nodes): bounds are in those units and Sum accounting is the raw
// total, not nanoseconds. Feed it with ObserveValue.
func NewValueHistogram(bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	h.raw = true
	return h
}

// bucketFor returns the index of the first bound >= v (binary search;
// len(bounds) = the +Inf bucket).
func (h *Histogram) bucketFor(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// observe is the single sink: v in bound units, sum in accounting
// units (nanos or raw), eid the correlation EventID (0 = none). The
// window clock is read only when a window is attached, so the
// cumulative path never pays for it.
func (h *Histogram) observe(v float64, sum int64, eid uint64) {
	b := h.bucketFor(v)
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(sum)
	if eid != 0 {
		h.exemplars[b].Store(eid)
	}
	if h.win != nil {
		h.win.add(time.Now().UnixNano(), b, 1, sum)
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.observe(d.Seconds(), d.Nanoseconds(), 0)
}

// ObserveEID records one duration tagged with the correlation EventID
// that produced it; the landed bucket retains eid as its exemplar.
func (h *Histogram) ObserveEID(d time.Duration, eid uint64) {
	if h == nil {
		return
	}
	h.observe(d.Seconds(), d.Nanoseconds(), eid)
}

// ObserveBuckets folds a batch of observations that the caller already
// bucketed locally against Bounds: counts is parallel to BucketCounts
// (counts[i] observations landed in bucket i) and sum is their total
// duration. It costs one atomic add per non-empty bucket plus the
// count and sum adds, where observing each duration would cost three
// per observation. Every non-empty bucket takes eid as its exemplar,
// and the window attributes the whole batch at wall time now
// (UnixNanos).
func (h *Histogram) ObserveBuckets(counts []int64, sum time.Duration, eid uint64, now int64) {
	if h == nil {
		return
	}
	var n int64
	for b, c := range counts[:len(h.buckets)] {
		if c == 0 {
			continue
		}
		n += c
		h.buckets[b].Add(c)
		if eid != 0 {
			h.exemplars[b].Store(eid)
		}
		h.win.add(now, b, c, 0)
	}
	if n == 0 {
		return
	}
	h.count.Add(n)
	h.sum.Add(sum.Nanoseconds())
}

// ObserveValue records one raw-unit observation (value histograms).
func (h *Histogram) ObserveValue(v float64) {
	if h == nil {
		return
	}
	h.observe(v, int64(v), 0)
}

// ObserveValueEID is ObserveValue with a correlation EventID exemplar.
func (h *Histogram) ObserveValueEID(v float64, eid uint64) {
	if h == nil {
		return
	}
	h.observe(v, int64(v), eid)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observed durations (zero for value
// histograms; use SumValue there).
func (h *Histogram) Sum() time.Duration {
	if h == nil || h.raw {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// SumValue returns the histogram's total in exposition units: seconds
// for latency histograms, raw units for value histograms.
func (h *Histogram) SumValue() float64 {
	if h == nil {
		return 0
	}
	if h.raw {
		return float64(h.sum.Load())
	}
	return float64(h.sum.Load()) / 1e9
}

// Raw reports whether this is a value (raw-unit) histogram.
func (h *Histogram) Raw() bool { return h != nil && h.raw }

// Bounds returns the bucket upper bounds (seconds, +Inf implicit).
// Callers must not modify the returned slice.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Exemplars snapshots the per-bucket exemplar EventIDs (parallel to
// BucketCounts; 0 = no correlated observation landed there yet).
func (h *Histogram) Exemplars() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.exemplars))
	for i := range h.exemplars {
		out[i] = h.exemplars[i].Load()
	}
	return out
}

// Window returns the histogram's sliding window (nil when windows are
// off).
func (h *Histogram) Window() *Window {
	if h == nil {
		return nil
	}
	return h.win
}

// WindowStat aggregates the sliding window: recent rate plus windowed
// p50/p99 from the merged per-interval bucket counts. Returns zeroes
// when windows are off.
func (h *Histogram) WindowStat() (st WindowStat, p50, p99 float64) {
	if h == nil || h.win == nil {
		return WindowStat{}, 0, 0
	}
	st, merged := h.win.stat(time.Now().UnixNano(), len(h.buckets))
	p50 = quantileFromCounts(h.bounds, merged, 0.50)
	p99 = quantileFromCounts(h.bounds, merged, 0.99)
	return st, p50, p99
}

// BucketCounts snapshots the per-bucket counts (last entry is the
// +Inf bucket). The snapshot is per-bucket atomic, not cross-bucket
// consistent; under concurrent observation the buckets may momentarily
// sum to less than a Count() taken afterwards.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 < q < 1) in seconds (raw units
// for value histograms) by linear interpolation inside the bucket
// where the rank falls. Returns 0 for an empty histogram; observations
// beyond the last bound report the last finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return quantileFromCounts(h.bounds, h.BucketCounts(), q)
}

// quantileFromCounts is the interpolation core shared by the
// cumulative histogram and the sliding window's merged buckets.
func quantileFromCounts(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		prev := cum
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		if i >= len(bounds) {
			return bounds[len(bounds)-1] // +Inf bucket: clamp
		}
		lower := 0.0
		if i > 0 {
			lower = bounds[i-1]
		}
		upper := bounds[i]
		frac := (rank - float64(prev)) / float64(c)
		if math.IsNaN(frac) || frac < 0 {
			frac = 0
		} else if frac >= 1 {
			return upper
		}
		return lower + frac*(upper-lower)
	}
	return bounds[len(bounds)-1]
}
