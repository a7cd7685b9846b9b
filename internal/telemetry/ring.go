// The one event ring under the span tracer (Trace), the flight
// recorder and the audit ring. Appends are lock-free — one atomic add
// claims a sequence number, one atomic pointer store publishes — so
// recording never queues behind a reader; a full ring overwrites its
// oldest entries and counts them as dropped, never blocking the kernel.
package telemetry

import (
	"bufio"
	"cmp"
	"encoding/json"
	"io"
	"slices"
	"sync/atomic"
)

// ringEntry is one published value and its sequence number.
type ringEntry[T any] struct {
	seq uint64
	v   T
}

// ring holds the newest len(slots) entries; init sizes it. Trace,
// FlightRecorder and AuditRing embed one.
type ring[T any] struct {
	slots []atomic.Pointer[ringEntry[T]]
	next  atomic.Uint64 // total entries ever appended
}

// init sizes the ring to capacity entries, or def when capacity <= 0.
func (r *ring[T]) init(capacity, def int) {
	if capacity <= 0 {
		capacity = def
	}
	r.slots = make([]atomic.Pointer[ringEntry[T]], capacity)
}

// add appends v, overwriting the oldest entry when the ring is full.
func (r *ring[T]) add(v T) {
	e := &ringEntry[T]{v: v}
	e.seq = r.next.Add(1) - 1
	r.slots[e.seq%uint64(len(r.slots))].Store(e)
}

// appended returns the total number of entries ever appended.
func (r *ring[T]) appended() int64 { return int64(r.next.Load()) }

// dropped returns how many entries have been overwritten by ring wrap.
func (r *ring[T]) dropped() int64 { return max(r.appended()-int64(len(r.slots)), 0) }

// snapshot takes a consistent cut: it reads the append count a once,
// first, and returns it with every published entry sequenced below a,
// oldest first. Entries claimed but not yet published, or overwritten
// by later appends, count as dropped, so a == len(entries) + dropped
// holds exactly however appends race. Each slot is read with one atomic
// load, so entries are whole, and each entry lives only in slot seq mod
// capacity, so sequence numbers are unique. stamp, when non-nil, sees
// each copied value with its sequence number.
func (r *ring[T]) snapshot(stamp func(v *T, seq uint64)) (int64, []T) {
	a := r.next.Load()
	es := make([]*ringEntry[T], 0, min(a, uint64(len(r.slots))))
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil && e.seq < a {
			es = append(es, e)
		}
	}
	// Slots wrap, and a slow append can land after a newer one that
	// shares its slot, so slot order is not sequence order.
	slices.SortFunc(es, func(x, y *ringEntry[T]) int { return cmp.Compare(x.seq, y.seq) })
	out := make([]T, len(es))
	for i, e := range es {
		out[i] = e.v
		if stamp != nil {
			stamp(&out[i], e.seq)
		}
	}
	return int64(a), out
}

// writeJSONL writes a snapshot's entries as JSON lines: the export
// format of the span and audit rings.
func writeJSONL[T any](w io.Writer, entries []T) error {
	bw := bufio.NewWriter(w)
	for _, e := range entries {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, err := bw.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}
