package telemetry

import (
	"bytes"
	"log/slog"
	"sync"
	"testing"
)

// auditEvents returns the audit class of l, oldest first.
func auditEvents(l *Log) []Event { return l.Snapshot(ClassAudit).Events }

// TestAuditRingHandler: records logged through the tee handler land in
// the log's audit class with the join keys hoisted (event → Kind,
// owner → Owner, event_id → Event) and everything else flattened into
// Attrs, while still forwarding to the next handler.
func TestAuditRingHandler(t *testing.T) {
	l := New().Log()
	var fwd bytes.Buffer
	log := slog.New(l.Handler(slog.NewJSONHandler(&fwd, nil)))
	log.Info("pcc install",
		slog.String("event", "install"),
		slog.String("owner", "alice"),
		slog.Uint64("event_id", 42),
		slog.String("policy", "packet-filter/v1"),
	)
	recs := auditEvents(l)
	if len(recs) != 1 {
		t.Fatalf("log holds %d audit records, want 1", len(recs))
	}
	r := recs[0]
	if r.Class != ClassAudit || r.Kind != "install" || r.Owner != "alice" || r.Event != 42 {
		t.Fatalf("join keys not hoisted: %+v", r)
	}
	if r.Attrs["policy"] != "packet-filter/v1" {
		t.Fatalf("plain attrs must flatten: %+v", r.Attrs)
	}
	if r.Msg != "pcc install" || r.Level != "INFO" || r.TimeUnixNanos == 0 {
		t.Fatalf("record envelope wrong: %+v", r)
	}
	if !bytes.Contains(fwd.Bytes(), []byte(`"owner":"alice"`)) {
		t.Fatalf("tee must forward to the next handler: %s", fwd.String())
	}
}

// TestAuditRingWithAttrsAndGroups: logger.With attributes (the
// per-tenant tag) and groups survive into the captured record.
func TestAuditRingWithAttrsAndGroups(t *testing.T) {
	l := New().Log()
	log := slog.New(l.Handler(nil)).With("tenant", "a")
	log.WithGroup("lf").Info("m", slog.Int("steps", 7), slog.Uint64("event_id", 3))
	recs := auditEvents(l)
	if len(recs) != 1 {
		t.Fatalf("log holds %d audit records, want 1", len(recs))
	}
	r := recs[0]
	if r.Attrs["tenant"] != "a" {
		t.Fatalf("With attrs must be captured: %+v", r.Attrs)
	}
	if r.Attrs["lf.steps"] != "7" {
		t.Fatalf("group-qualified attrs must flatten with a prefix: %+v", r.Attrs)
	}
	if r.Event != 0 {
		// event_id inside a group is lf.event_id, not the join key.
		t.Fatalf("grouped event_id must not hoist: %+v", r)
	}
	if r.Attrs["lf.event_id"] != "3" {
		t.Fatalf("grouped event_id must stay an attr: %+v", r.Attrs)
	}
}

// TestAuditRingWrapAndJSONL: audit-class overwrite accounting, and the
// JSONL round trip of what is left.
func TestAuditRingWrapAndJSONL(t *testing.T) {
	l := newLog(8, 4, 8)
	log := slog.New(l.Handler(nil))
	for i := 0; i < 6; i++ {
		log.Info("m", slog.Uint64("event_id", uint64(i+1)))
	}
	snap := l.Snapshot(ClassAudit)
	if snap.Appended != 6 || snap.Dropped != 2 {
		t.Fatalf("appended/dropped = %d/%d, want 6/2", snap.Appended, snap.Dropped)
	}
	recs := snap.Events
	if len(recs) != 4 || recs[0].Seq != 2 || recs[3].Seq != 5 {
		t.Fatalf("wrap must keep the newest 4: %+v", recs)
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 4 || back[0].Event != 3 || back[3].Event != 6 {
		t.Fatalf("JSONL round trip lost records: %+v", back)
	}
}

// TestAuditRingNil: a handler over a nil log is a silent no-op sink
// that still forwards.
func TestAuditRingNil(t *testing.T) {
	var l *Log
	var fwd bytes.Buffer
	slog.New(l.Handler(slog.NewJSONHandler(&fwd, nil))).Info("m", "owner", "x")
	if len(auditEvents(l)) != 0 {
		t.Fatal("nil log must be inert")
	}
	if !bytes.Contains(fwd.Bytes(), []byte(`"owner":"x"`)) {
		t.Fatalf("nil log must still forward: %s", fwd.String())
	}
}

// TestAuditRingConcurrent: racing writers against a snapshotting
// reader under -race; Seq stays strictly increasing in every snapshot.
func TestAuditRingConcurrent(t *testing.T) {
	l := newLog(8, 32, 8)
	log := slog.New(l.Handler(nil))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				log.Info("m", slog.Uint64("event_id", uint64(i)))
				recs := auditEvents(l)
				for j := 1; j < len(recs); j++ {
					if recs[j].Seq <= recs[j-1].Seq {
						panic("audit snapshot out of order")
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := l.Snapshot(ClassAudit).Appended; got != 2400 {
		t.Fatalf("appended = %d, want 2400", got)
	}
}
