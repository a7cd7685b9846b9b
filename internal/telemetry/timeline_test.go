package telemetry

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"testing"
	"time"
)

// timelineFixture builds a log with two correlated operations: event
// 10 (owner alice: a validate span with a cache-probe child whose
// detail is its verdict, a commit span, an audit record and a flight
// event) and event 20 (owner bob: span + audit).
func timelineFixture() *Log {
	rec := New()
	v := rec.StartSpan(StageValidate, "alice", "alice", 10)
	v.Record(StageCacheProbe, "miss", time.Now(), time.Microsecond, nil)
	v.End(nil)
	rec.StartSpan(StageCommit, "alice", "alice", 10).End(nil)
	rec.StartSpan(StageValidate, "bob", "bob", 20).End(nil)

	l := rec.Log()
	log := slog.New(l.Handler(nil))
	log.Info("pcc install", slog.String("event", "install"), slog.String("owner", "alice"), slog.Uint64("event_id", 10))
	log.Info("pcc install", slog.String("event", "install"), slog.String("owner", "bob"), slog.Uint64("event_id", 20))

	l.Record(Event{Class: ClassFlight, Kind: FlightQuarantine, Owner: "alice", Detail: "strikes=3", Event: 10})
	return l
}

// TestTimelineJoinByEvent: one EventID pulls its events from all three
// classes and nothing else.
func TestTimelineJoinByEvent(t *testing.T) {
	tl := timelineFixture().Timeline(Query{Event: 10})
	if len(tl.Spans) != 3 || len(tl.Audit) != 1 || len(tl.Flight) != 1 {
		t.Fatalf("join on 10: %d spans / %d audit / %d flight, want 3/1/1",
			len(tl.Spans), len(tl.Audit), len(tl.Flight))
	}
	for _, s := range tl.Spans {
		if s.Class != ClassSpan || s.Event != 10 || s.Owner != "alice" {
			t.Fatalf("span leaked into the join: %+v", s)
		}
	}
	if tl.Audit[0].Event != 10 || tl.Flight[0].Event != 10 {
		t.Fatalf("audit/flight not keyed by 10: %+v %+v", tl.Audit[0], tl.Flight[0])
	}
	// Spans carry wall-clock start times and come out in start order,
	// though the log holds them in finish order (children first).
	now := time.Now().UnixNano()
	for i, s := range tl.Spans {
		if s.TimeUnixNanos <= 0 || now-s.TimeUnixNanos > int64(time.Minute) {
			t.Fatalf("span wall time implausible: %d", s.TimeUnixNanos)
		}
		if i > 0 && s.TimeUnixNanos < tl.Spans[i-1].TimeUnixNanos {
			t.Fatalf("spans not in start order: %+v", tl.Spans)
		}
	}
	if tl.Spans[0].Stage != StageValidate {
		t.Fatalf("first span %q, want the validate root", tl.Spans[0].Stage)
	}
}

// TestTimelineFilters: owner, stage, kind, and since each narrow their
// classes; owner matches Event.Owner, so a span whose detail is not the
// owner (the cache probe's verdict) is still selected.
func TestTimelineFilters(t *testing.T) {
	l := timelineFixture()

	tl := l.Timeline(Query{Owner: "bob"})
	if len(tl.Spans) != 1 || len(tl.Audit) != 1 || len(tl.Flight) != 0 {
		t.Fatalf("owner=bob: %d/%d/%d, want 1/1/0", len(tl.Spans), len(tl.Audit), len(tl.Flight))
	}
	owner, id := l.Timeline(Query{Owner: "alice"}).Spans, l.Timeline(Query{Event: 10}).Spans
	if len(owner) != len(id) {
		t.Fatalf("owner=alice selects %d spans, id=10 selects %d", len(owner), len(id))
	}
	for i := range owner {
		if owner[i].ID != id[i].ID {
			t.Fatalf("owner=alice spans %+v differ from id=10 spans %+v", owner, id)
		}
	}

	tl = l.Timeline(Query{Stage: StageCommit})
	if len(tl.Spans) != 1 || tl.Spans[0].Stage != StageCommit || len(tl.Audit) != 2 || len(tl.Flight) != 1 {
		t.Fatalf("stage filter must narrow spans only: %+v", tl)
	}

	tl = l.Timeline(Query{Kind: FlightQuarantine})
	if len(tl.Flight) != 1 || len(tl.Audit) != 0 || len(tl.Spans) != 4 {
		t.Fatalf("kind filter: %d flight / %d audit / %d spans, want 1/0/4", len(tl.Flight), len(tl.Audit), len(tl.Spans))
	}

	tl = l.Timeline(Query{SinceUnixNanos: time.Now().Add(time.Hour).UnixNano()})
	if len(tl.Spans)+len(tl.Audit)+len(tl.Flight) != 0 {
		t.Fatalf("future since must exclude everything: %+v", tl)
	}
}

// TestTimelineNilRings: a nil log yields an empty (not nil) document
// whose classes serialize as arrays.
func TestTimelineNilRings(t *testing.T) {
	var l *Log
	tl := l.Timeline(Query{})
	if tl.Spans == nil || tl.Audit == nil || tl.Flight == nil {
		t.Fatal("empty timeline must keep non-nil classes")
	}
	b, err := json.Marshal(tl)
	if err != nil {
		t.Fatal(err)
	}
	var back Timeline
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("timeline JSON round trip: %v\n%s", err, b)
	}
	for _, key := range []string{`"spans":[]`, `"audit":[]`, `"flight":[]`} {
		if !bytes.Contains(b, []byte(key)) {
			t.Fatalf("classes must serialize as [], got %s", b)
		}
	}
}
