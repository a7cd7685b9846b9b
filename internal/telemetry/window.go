// Sliding-window layer: a ring of fixed wall-clock interval buckets
// behind atomics, attached to counters and histograms when a Recorder
// is built with Options.Window. Cumulative instruments answer "how
// much ever"; the window answers "how much lately" — installs/s,
// packets/s, windowed p50/p99 — without a background goroutine:
// rotation happens inline on the first observation that lands in a new
// interval, via an epoch CAS.
//
// Contract (same spirit as the rest of the package):
//   - off means free: a nil *Window costs one nil check per
//     observation and nothing else;
//   - lock-free: observation is a handful of atomic adds; rotation is
//     a bounded CAS loop; readers never block writers;
//   - cumulative stays exact: the parent Counter/Histogram is updated
//     unconditionally. Window attribution is best-effort at interval
//     boundaries — an observation racing a rotation may be dropped
//     from the window (never double-counted), so windowed rates are
//     estimates while cumulative totals remain exact.
package telemetry

import (
	"sync/atomic"
	"time"
)

// Default window geometry: 60 one-second buckets, i.e. rates and
// windowed quantiles over roughly the last minute.
const (
	DefaultWindowInterval = time.Second
	DefaultWindowSlots    = 60
)

// WindowOptions configures the sliding window attached to a Recorder's
// instruments.
type WindowOptions struct {
	// Interval is the width of one bucket; <= 0 means
	// DefaultWindowInterval.
	Interval time.Duration
	// Slots is the number of buckets in the ring; <= 0 means
	// DefaultWindowSlots. The window spans Interval*Slots.
	Slots int
}

func (o WindowOptions) interval() int64 {
	if o.Interval <= 0 {
		return int64(DefaultWindowInterval)
	}
	return int64(o.Interval)
}

func (o WindowOptions) slots() int {
	if o.Slots <= 0 {
		return DefaultWindowSlots
	}
	return o.Slots
}

// winSlot is one interval bucket. epoch holds the wall-clock epoch
// (UnixNanos / interval) the slot currently accumulates; 0 means
// never used, -1 means a rotation is zeroing it. Counter windows use
// count/sum; histogram windows feed only the per-bound buckets — the
// read side derives the count by summing them, so the hot observation
// path pays one atomic add instead of three. A histogram slot's
// buckets are allocated when the slot is first rotated into, and
// published before its epoch: a window that saw one interval holds one
// slot's buckets, not a minute's.
type winSlot struct {
	epoch   atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // counter windows only: nanoseconds or raw units
	buckets atomic.Pointer[[]atomic.Int64]
}

// Window is the sliding-window ring. A nil *Window is a valid no-op.
type Window struct {
	interval int64 // nanos per slot
	created  int64 // UnixNanos at construction, bounds the covered span
	nb       int   // per-bound buckets per slot; 0 for counter windows
	slots    []winSlot
}

// newWindow builds a window; nb > 0 gives each slot nb per-bound
// bucket counters (histogram windows), nb == 0 a count/sum-only window
// (counter windows).
func newWindow(o WindowOptions, nb int) *Window {
	return &Window{
		interval: o.interval(),
		created:  time.Now().UnixNano(),
		nb:       nb,
		slots:    make([]winSlot, o.slots()),
	}
}

// add records n events summing to sum (nanos or raw units) in the
// bucket index bucket (-1 for counter windows) at wall time now.
func (w *Window) add(now int64, bucket int, n, sum int64) {
	if w == nil {
		return
	}
	epoch := now / w.interval
	s := &w.slots[uint64(epoch)%uint64(len(w.slots))]
	for try := 0; try < 8; try++ {
		e := s.epoch.Load()
		switch {
		case e == epoch:
			if bucket >= 0 {
				// The buckets were stored before the epoch that led
				// here, so they are visible.
				if b := s.buckets.Load(); b != nil && bucket < len(*b) {
					(*b)[bucket].Add(n)
				}
			} else {
				s.count.Add(n)
				s.sum.Add(sum)
			}
			return
		case e > epoch:
			// The ring already rotated past this observation's
			// interval: drop the window attribution (cumulative
			// accounting in the parent instrument stays exact).
			return
		case e == -1:
			// A rotation is zeroing this slot; retry until published.
			continue
		default:
			if s.epoch.CompareAndSwap(e, -1) {
				s.count.Store(0)
				s.sum.Store(0)
				if b := s.buckets.Load(); b != nil {
					for i := range *b {
						(*b)[i].Store(0)
					}
				} else if w.nb > 0 {
					b := make([]atomic.Int64, w.nb)
					s.buckets.Store(&b)
				}
				s.epoch.Store(epoch)
			}
		}
	}
}

// WindowStat is a read-side summary of the window at one instant.
type WindowStat struct {
	// Count and Sum aggregate the live slots (roughly the last
	// Interval*Slots of wall time). Histogram windows derive Count
	// from the merged per-bound buckets and report Sum as 0 (the hot
	// path does not maintain a windowed sum).
	Count int64
	Sum   int64
	// Seconds is the wall-clock span the window covers (capped by the
	// window's age, so early rates aren't diluted by empty history).
	Seconds float64
	// Rate is Count/Seconds.
	Rate float64
}

// stat aggregates the live slots at wall time now. When bounds is
// non-nil the merged per-bucket counts are returned too (for windowed
// quantiles); otherwise mergedBuckets is nil.
func (w *Window) stat(now int64, nb int) (st WindowStat, mergedBuckets []int64) {
	if w == nil {
		return WindowStat{}, nil
	}
	epoch := now / w.interval
	oldest := epoch - int64(len(w.slots)) + 1
	if nb > 0 {
		mergedBuckets = make([]int64, nb)
	}
	for i := range w.slots {
		s := &w.slots[i]
		e := s.epoch.Load()
		if e < oldest || e > epoch || e <= 0 {
			continue
		}
		if nb > 0 {
			if b := s.buckets.Load(); b != nil {
				for j := range mergedBuckets {
					if j < len(*b) {
						mergedBuckets[j] += (*b)[j].Load()
					}
				}
			}
		} else {
			st.Count += s.count.Load()
			st.Sum += s.sum.Load()
		}
	}
	for _, c := range mergedBuckets {
		st.Count += c
	}
	span := now - w.created
	if max := int64(len(w.slots)) * w.interval; span > max {
		span = max
	}
	if span < w.interval {
		// Avoid wild rates in the first fraction of an interval.
		span = w.interval
	}
	st.Seconds = float64(span) / 1e9
	st.Rate = float64(st.Count) / st.Seconds
	return st, mergedBuckets
}

// Stat returns the window's current aggregate (counter view: no
// bucket merge).
func (w *Window) Stat() WindowStat {
	st, _ := w.stat(time.Now().UnixNano(), 0)
	return st
}
