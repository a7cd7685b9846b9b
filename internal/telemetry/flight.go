// Dispatch flight recorder: a fixed-capacity lock-free ring of the
// last N anomalies the kernel saw — fuel exhaustion, memory faults,
// oversize-packet fallbacks, backend fallbacks, quarantine trips, and
// security/performance-posture config changes. The span tracer answers
// "where did the microseconds go"; the flight recorder answers "what
// went wrong just before the page" with filter/owner identity and wall
// timestamps, cheap enough to leave on in production (anomalies are
// rare; the happy path never touches it).
package telemetry

import (
	"encoding/json"
	"io"
	"time"
)

// Flight-event kinds. Detail carries the specifics (error text, old
// and new config values, sizes).
const (
	// FlightFuelExhausted: a filter ran out of dispatch fuel (runaway
	// loop caught by the budget, not by a check — there are none).
	FlightFuelExhausted = "fuel_exhausted"
	// FlightMemoryFault: a filter faulted on a memory access at
	// dispatch time (only possible for unvalidated test filters or a
	// broken proof checker; always worth a look).
	FlightMemoryFault = "memory_fault"
	// FlightDispatchFault: any other dispatch-time execution fault.
	FlightDispatchFault = "dispatch_fault"
	// FlightOversizePacket: a packet exceeded the pooled arena and took
	// the allocating fallback path.
	FlightOversizePacket = "oversize_fallback"
	// FlightBackendFallback: the kernel's backend is compiled but a
	// filter had no compiled form, so it dispatched interpreted.
	FlightBackendFallback = "backend_fallback"
	// FlightQuarantine: an owner tripped the rejection threshold and
	// entered install embargo.
	FlightQuarantine = "quarantine"
	// FlightConfigChange: SetBackend/SetProfiling/SetLimits/
	// SetQuarantine changed the kernel's posture.
	FlightConfigChange = "config_change"
	// FlightBreakerOpen: a filter's fault circuit breaker tripped — the
	// compiled form was demoted to the interpreter pending backoff.
	FlightBreakerOpen = "breaker_open"
	// FlightBreakerHalfOpen: an open breaker's backoff elapsed and the
	// filter was re-promoted to its compiled form on probation.
	FlightBreakerHalfOpen = "breaker_halfopen"
	// FlightBreakerClose: a half-open breaker survived its probation
	// dispatches fault-free and closed.
	FlightBreakerClose = "breaker_close"
	// FlightRecoverySkip: boot-time recovery skipped a journal record —
	// corrupt framing, out-of-order splice, or a blob the validation
	// pipeline rejected (disk is an untrusted producer).
	FlightRecoverySkip = "recovery_skip"
)

// FlightEvent is one recorded anomaly.
type FlightEvent struct {
	// Seq is the event's global sequence number (monotonic from 0);
	// gaps at the low end mean the ring wrapped.
	Seq uint64 `json:"seq"`
	// TimeUnixNanos is the wall-clock timestamp.
	TimeUnixNanos int64 `json:"time_unix_ns"`
	// Kind is one of the Flight* constants.
	Kind string `json:"kind"`
	// Owner is the filter/owner identity, when the anomaly has one.
	Owner string `json:"owner,omitempty"`
	// Detail is free-form specifics.
	Detail string `json:"detail,omitempty"`
	// Event is the kernel-level correlation EventID shared with the
	// span tree and audit record of the operation that hit the anomaly
	// (0 = uncorrelated).
	Event uint64 `json:"event,omitempty"`
}

// DefaultFlightCapacity is the ring size used when capacity <= 0.
const DefaultFlightCapacity = 256

// FlightRecorder is the anomaly ring (ring.go): appends never block,
// and when full the oldest events are overwritten. A nil
// *FlightRecorder is a valid no-op sink.
type FlightRecorder struct {
	ring[FlightEvent]
}

// NewFlightRecorder builds a ring holding up to capacity events.
func NewFlightRecorder(capacity int) *FlightRecorder {
	f := &FlightRecorder{}
	f.init(capacity, DefaultFlightCapacity)
	return f
}

// Record appends one anomaly, stamped now.
func (f *FlightRecorder) Record(kind, owner, detail string) {
	f.RecordEvent(kind, owner, detail, 0)
}

// RecordEvent appends one anomaly correlated with the kernel EventID
// event (0 = uncorrelated), stamped now.
func (f *FlightRecorder) RecordEvent(kind, owner, detail string, event uint64) {
	if f == nil {
		return
	}
	f.add(FlightEvent{
		TimeUnixNanos: time.Now().UnixNano(),
		Kind:          kind,
		Owner:         owner,
		Detail:        detail,
		Event:         event,
	})
}

// Cap returns the ring capacity.
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return len(f.slots)
}

// Appended returns the total number of events ever recorded.
func (f *FlightRecorder) Appended() int64 {
	if f == nil {
		return 0
	}
	return f.appended()
}

// Dropped returns how many events have been overwritten by ring wrap.
func (f *FlightRecorder) Dropped() int64 {
	if f == nil {
		return 0
	}
	return f.dropped()
}

// Events snapshots the ring's current contents, oldest first: the
// Events of Snapshot.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	return f.Snapshot().Events
}

// FlightSnapshot is the JSON document WriteJSON emits (and the serve
// endpoint exposes): one consistent cut of the ring, so
// Appended == len(Events) + Dropped holds exactly even while appends
// race (see ring.snapshot).
type FlightSnapshot struct {
	Capacity int           `json:"capacity"`
	Appended int64         `json:"appended"`
	Dropped  int64         `json:"dropped"`
	Events   []FlightEvent `json:"events"`
}

// Snapshot captures a consistent cut of the ring; Dropped counts the
// appended events the cut does not hold.
func (f *FlightRecorder) Snapshot() FlightSnapshot {
	snap := FlightSnapshot{Capacity: f.Cap(), Events: []FlightEvent{}}
	if f == nil {
		return snap
	}
	snap.Appended, snap.Events = f.snapshot(func(e *FlightEvent, seq uint64) { e.Seq = seq })
	snap.Dropped = snap.Appended - int64(len(snap.Events))
	return snap
}

// WriteJSON writes the ring state as one indented JSON document:
// {"capacity", "appended", "dropped", "events": [...oldest first]}.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f.Snapshot())
}
