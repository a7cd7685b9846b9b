// The event log: one Event type for the kernel's three observability
// streams — completed spans ("where did the microseconds go"), audit
// records ("why was it decided") and dispatch anomalies ("what went
// wrong just before the page", the flight events) — kept in one Log
// per Recorder and read by one query. Every event carries the
// kernel-level correlation EventID of the operation that produced it,
// so "everything about event 12345" is a filter, not a join.
//
// Appends are lock-free — one atomic add claims a sequence number, one
// atomic pointer store publishes — so recording never queues behind a
// reader; a full class overwrites its oldest events and counts them as
// dropped, never blocking the kernel.
package telemetry

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"slices"
	"sync/atomic"
	"time"
)

// Event classes. Each class is kept in its own ring (see Log), and
// Event.Class names it.
const (
	// ClassSpan: one completed pipeline-stage span.
	ClassSpan = "span"
	// ClassAudit: one audit decision captured through Log.Handler.
	ClassAudit = "audit"
	// ClassFlight: one dispatch anomaly or posture change (the Flight*
	// kinds).
	ClassFlight = "flight"
)

// Retention per class. One ring per class rather than one shared ring
// because of span churn: served dispatch records one span per
// delivered batch — ~14k spans/s at 3.6M packets/s in 256-packet
// batches — so a shared 4096-entry ring would evict the whole anomaly
// history in about 0.3 s.
const (
	spanCapacity   = 4096
	auditCapacity  = 1024
	flightCapacity = 256
)

// Flight-event kinds (Event.Kind of ClassFlight events). Detail
// carries the specifics (error text, old and new config values,
// sizes). Anomalies are rare and the happy path never records one, so
// the flight class is cheap enough to leave on in production.
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

// Event is one entry of the log. The fields shared by every class come
// first; the rest belong to one class and stay zero (and out of the
// JSON) elsewhere.
type Event struct {
	// Class is ClassSpan, ClassAudit or ClassFlight.
	Class string `json:"class"`
	// Seq is the event's sequence number within its class (monotonic
	// from 0); gaps at the low end mean the class's ring wrapped.
	Seq uint64 `json:"seq"`
	// TimeUnixNanos is the wall-clock time: a span's start, an audit
	// record's log time, a flight event's occurrence.
	TimeUnixNanos int64 `json:"time_unix_ns"`
	// Event is the kernel-level correlation EventID shared by every
	// event one operation produced (0 = uncorrelated). Span IDs are
	// per-span; EventIDs are per-operation, so one install yields one
	// EventID across many spans, its audit record and any anomaly.
	Event uint64 `json:"event,omitempty"`
	// Kind is an audit record's "event" attribute (install, negotiate,
	// config, quarantine, evict, uninstall) or a flight event's Flight*
	// kind.
	Kind string `json:"kind,omitempty"`
	// Stage is a span's pipeline stage (see Stages).
	Stage string `json:"stage,omitempty"`
	// Owner is the filter/owner identity, when the event has one.
	Owner string `json:"owner,omitempty"`
	// Detail is free-form context: a span's install owner, negotiated
	// policy or cache-probe verdict; a flight event's specifics.
	Detail string `json:"detail,omitempty"`
	// Err is a failed span's error.
	Err string `json:"err,omitempty"`

	// ID identifies a span; Parent links a child stage to its
	// enclosing span (0 = root).
	ID     uint64 `json:"id,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	// StartNanos/DurNanos locate a span on its recorder's clock
	// (nanoseconds since the recorder was created).
	StartNanos int64 `json:"start_ns,omitempty"`
	DurNanos   int64 `json:"dur_ns,omitempty"`

	// Level and Msg are an audit record's slog envelope; Attrs holds
	// its other attributes as rendered strings, group-qualified.
	Level string            `json:"level,omitempty"`
	Msg   string            `json:"msg,omitempty"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// ring holds the newest len(slots) events of one class.
type ring struct {
	slots []atomic.Pointer[Event]
	next  atomic.Uint64 // total events ever appended
}

func newRing(capacity int) ring {
	return ring{slots: make([]atomic.Pointer[Event], capacity)}
}

// add stamps e with the next sequence number and publishes it,
// overwriting the oldest event when the ring is full. e is not touched
// again after the store, so readers copy it without a lock.
func (r *ring) add(e *Event) {
	e.Seq = r.next.Add(1) - 1
	r.slots[e.Seq%uint64(len(r.slots))].Store(e)
}

// appended returns the total number of events ever appended.
func (r *ring) appended() int64 { return int64(r.next.Load()) }

// dropped returns how many events have been overwritten by ring wrap.
func (r *ring) dropped() int64 { return max(r.appended()-int64(len(r.slots)), 0) }

// snapshot takes a consistent cut: it reads the append count a once,
// first, and returns it with every published event sequenced below a,
// oldest first. Events claimed but not yet published, or overwritten
// by later appends, count as dropped, so a == len(events) + dropped
// holds exactly however appends race. Each slot is read with one atomic
// load, so events are whole, and each event lives only in slot Seq mod
// capacity, so sequence numbers are unique.
func (r *ring) snapshot() (int64, []Event) {
	a := r.next.Load()
	out := make([]Event, 0, min(a, uint64(len(r.slots))))
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil && e.Seq < a {
			out = append(out, *e)
		}
	}
	// Slots wrap, and a slow append can land after a newer one that
	// shares its slot, so slot order is not sequence order.
	slices.SortFunc(out, func(x, y Event) int { return cmp.Compare(x.Seq, y.Seq) })
	return int64(a), out
}

// Log is the event log: one ring per class behind one API. A nil *Log
// is a valid no-op sink and reads as empty.
type Log struct {
	spans, audit, flight ring
}

// newLog builds a log with the given per-class capacities.
func newLog(spans, audit, flight int) *Log {
	return &Log{spans: newRing(spans), audit: newRing(audit), flight: newRing(flight)}
}

// ring returns class's ring (nil for a nil log or an unknown class).
func (l *Log) ring(class string) *ring {
	if l == nil {
		return nil
	}
	switch class {
	case ClassSpan:
		return &l.spans
	case ClassAudit:
		return &l.audit
	case ClassFlight:
		return &l.flight
	}
	return nil
}

// Record appends e to its class, stamping the wall time when e carries
// none. Events of an unknown class, and every event on a nil log, are
// dropped.
func (l *Log) Record(e Event) {
	r := l.ring(e.Class)
	if r == nil {
		return
	}
	if e.TimeUnixNanos == 0 {
		e.TimeUnixNanos = time.Now().UnixNano()
	}
	r.add(&e)
}

// ClassSnapshot is one consistent cut of one class:
// Appended == len(Events) + Dropped holds exactly even while appends
// race. It is the /debug/flightrecorder document.
type ClassSnapshot struct {
	Capacity int     `json:"capacity"`
	Appended int64   `json:"appended"`
	Dropped  int64   `json:"dropped"`
	Events   []Event `json:"events"`
}

// Snapshot captures a consistent cut of class's ring, oldest first;
// Dropped counts the appended events the cut does not hold.
func (l *Log) Snapshot(class string) ClassSnapshot {
	s := ClassSnapshot{Events: []Event{}}
	if r := l.ring(class); r != nil {
		s.Capacity = len(r.slots)
		s.Appended, s.Events = r.snapshot()
		s.Dropped = s.Appended - int64(len(s.Events))
	}
	return s
}

// Query selects events. Zero values mean "no constraint".
type Query struct {
	// Class restricts the result to one class.
	Class string
	// Event selects one correlation EventID across every class (the
	// join key).
	Event uint64
	// Owner matches Event.Owner in every class.
	Owner string
	// Stage restricts spans to one pipeline stage; audit and flight
	// events are unaffected.
	Stage string
	// Kind restricts audit records (install, config, ...) and flight
	// events (fuel_exhausted, quarantine, ...) to one kind; spans are
	// unaffected.
	Kind string
	// SinceUnixNanos drops anything older than the given wall time.
	SinceUnixNanos int64
}

// match reports whether e passes q's constraints other than Class,
// which Events applies per ring.
func (q Query) match(e Event) bool {
	return (q.Event == 0 || e.Event == q.Event) &&
		(q.Owner == "" || e.Owner == q.Owner) &&
		(q.Stage == "" || e.Class != ClassSpan || e.Stage == q.Stage) &&
		(q.Kind == "" || e.Class == ClassSpan || e.Kind == q.Kind) &&
		(q.SinceUnixNanos == 0 || e.TimeUnixNanos >= q.SinceUnixNanos)
}

// Events returns the retained events matching q: spans, then audit
// records, then flight events, each class oldest first.
func (l *Log) Events(q Query) []Event {
	out := []Event{}
	for _, class := range []string{ClassSpan, ClassAudit, ClassFlight} {
		if q.Class != "" && q.Class != class {
			continue
		}
		for _, e := range l.Snapshot(class).Events {
			if q.match(e) {
				out = append(out, e)
			}
		}
	}
	return out
}

// Timeline is the /debug/timeline document: the events matching one
// query, split by class.
type Timeline struct {
	// Tenant is set by multi-tenant servers so a saved document
	// self-identifies.
	Tenant string  `json:"tenant,omitempty"`
	Spans  []Event `json:"spans"`
	Audit  []Event `json:"audit"`
	Flight []Event `json:"flight"`
}

// Timeline returns the events matching q split by class, spans sorted
// by start time (they are logged as they finish, children before their
// parents).
func (l *Log) Timeline(q Query) Timeline {
	of := func(class string) []Event {
		q.Class = class
		return l.Events(q)
	}
	tl := Timeline{Spans: of(ClassSpan), Audit: of(ClassAudit), Flight: of(ClassFlight)}
	slices.SortFunc(tl.Spans, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.TimeUnixNanos, b.TimeUnixNanos), cmp.Compare(a.ID, b.ID))
	})
	return tl
}

// WriteJSONL writes events as JSON lines, the log's export format.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL decodes a WriteJSONL export; blank lines are skipped.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(r)
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("telemetry: event %d: %w", len(out)+1, err)
		}
		out = append(out, e)
	}
}

// Handler returns a slog.Handler that captures every record into the
// log's audit class and then forwards it to next (nil next = capture
// only). Wire it between the kernel's audit logger and its durable
// sink: the sink is the durable stream, the log the queryable recent
// history.
func (l *Log) Handler(next slog.Handler) slog.Handler {
	return &auditHandler{log: l, next: next}
}

// auditHandler tees slog records into a Log. WithAttrs state is
// carried so logger.With(...).Info(...) records keep their attributes.
type auditHandler struct {
	log    *Log
	next   slog.Handler
	prefix []slog.Attr // attrs accumulated via WithAttrs, group-qualified
	groups []string    // open groups from WithGroup
}

func (h *auditHandler) Enabled(ctx context.Context, lvl slog.Level) bool {
	if h.next != nil {
		return h.next.Enabled(ctx, lvl)
	}
	return lvl >= slog.LevelInfo
}

// Handle flattens rec into one audit event: its "event" attribute
// becomes Kind, "owner" Owner and "event_id" the correlation Event;
// everything else lands in Attrs as rendered strings.
func (h *auditHandler) Handle(ctx context.Context, rec slog.Record) error {
	e := Event{
		Class:         ClassAudit,
		TimeUnixNanos: rec.Time.UnixNano(),
		Level:         rec.Level.String(),
		Msg:           rec.Message,
		Attrs:         map[string]string{},
	}
	for _, a := range h.prefix {
		flattenAttr(&e, "", a)
	}
	prefix := ""
	for _, g := range h.groups {
		prefix += g + "."
	}
	rec.Attrs(func(a slog.Attr) bool {
		flattenAttr(&e, prefix, a)
		return true
	})
	h.log.Record(e)
	if h.next != nil {
		return h.next.Handle(ctx, rec)
	}
	return nil
}

// flattenAttr folds one attr into the event, recursing into groups
// and hoisting the well-known join keys.
func flattenAttr(e *Event, prefix string, a slog.Attr) {
	v := a.Value.Resolve()
	if v.Kind() == slog.KindGroup {
		p := prefix
		if a.Key != "" {
			p = prefix + a.Key + "."
		}
		for _, ga := range v.Group() {
			flattenAttr(e, p, ga)
		}
		return
	}
	key := prefix + a.Key
	switch key {
	case "event":
		e.Kind = v.String()
	case "owner":
		e.Owner = v.String()
	case "event_id":
		if v.Kind() == slog.KindUint64 {
			e.Event = v.Uint64()
		} else if v.Kind() == slog.KindInt64 {
			e.Event = uint64(v.Int64())
		}
	default:
		e.Attrs[key] = v.String()
	}
}

func (h *auditHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	if len(attrs) == 0 {
		return h
	}
	nh := &auditHandler{log: h.log, groups: h.groups}
	prefix := ""
	for _, g := range h.groups {
		prefix += g + "."
	}
	nh.prefix = append(append([]slog.Attr{}, h.prefix...), qualify(prefix, attrs)...)
	if h.next != nil {
		nh.next = h.next.WithAttrs(attrs)
	}
	return nh
}

// qualify rewrites attrs under the current group prefix so the
// flattened keys match what Handle produces for inline attrs.
func qualify(prefix string, attrs []slog.Attr) []slog.Attr {
	if prefix == "" {
		return attrs
	}
	out := make([]slog.Attr, len(attrs))
	for i, a := range attrs {
		out[i] = slog.Attr{Key: prefix + a.Key, Value: a.Value}
	}
	return out
}

func (h *auditHandler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	nh := &auditHandler{log: h.log, prefix: h.prefix}
	nh.groups = append(append([]string{}, h.groups...), name)
	if h.next != nil {
		nh.next = h.next.WithGroup(name)
	}
	return nh
}
