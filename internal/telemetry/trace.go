// Span tracer: the completed spans, kept in the lock-free event ring
// (ring.go) so the dispatch path never queues behind a reader.
package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Event is one completed span. Times are nanoseconds since the
// recorder was created (a monotonic, export-friendly origin).
type Event struct {
	// ID identifies the span; Parent links a child stage to its
	// enclosing span (0 = root).
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Event is the kernel-level correlation EventID shared with the
	// audit record and any flight-recorder events produced by the same
	// operation (0 = uncorrelated). Span IDs are per-recorder and
	// per-span; EventIDs are per-kernel and per-operation, so one
	// install or dispatch batch yields one EventID across many spans.
	Event uint64 `json:"event,omitempty"`
	// Stage is the pipeline stage name (see Stages).
	Stage string `json:"stage"`
	// Detail is free-form context: the owner of an install, the name
	// of a negotiated policy, a cache-probe verdict.
	Detail string `json:"detail,omitempty"`
	// StartNanos/DurNanos locate the span on the recorder's clock.
	StartNanos int64 `json:"start_ns"`
	DurNanos   int64 `json:"dur_ns"`
	// Err is the failure, if the stage failed.
	Err string `json:"err,omitempty"`
}

// Trace is the ring buffer of completed spans.
type Trace struct {
	ring[Event]
}

// DefaultTraceCapacity is the ring size of recorders built with New.
const DefaultTraceCapacity = 4096

// newTrace builds a ring holding up to capacity events.
func newTrace(capacity int) *Trace {
	t := &Trace{}
	t.init(capacity, DefaultTraceCapacity)
	return t
}

// Appended returns the total number of events ever appended.
func (t *Trace) Appended() int64 { return t.appended() }

// Dropped returns how many events have been overwritten by ring wrap.
func (t *Trace) Dropped() int64 { return t.dropped() }

// Events snapshots the ring's current contents as a consistent cut
// (see ring.snapshot), ordered by span ID — start order, since IDs are
// assigned when a span opens.
func (t *Trace) Events() []Event {
	_, out := t.snapshot(nil)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// WriteJSONL writes the ring's events as JSON-lines, oldest first.
func (t *Trace) WriteJSONL(w io.Writer) error { return writeJSONL(w, t.Events()) }

// ReadJSONL decodes a JSON-lines trace export (the inverse of
// WriteJSONL); blank lines are skipped.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("telemetry: trace line %d: %w", line, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}
