package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pktgen"
	"repro/internal/telemetry"
)

// TestExportStreamsRoundTrip: -export writes the event log as one
// events.jsonl, it decodes with telemetry.ReadJSONL, and its classes
// share the correlation EventID — installs across spans+audit, and the
// config change across all three (span + audit record + flight event).
func TestExportStreamsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pkts := pktgen.Generate(256, pktgen.Config{Seed: 1996})
	if err := exportStreams(dir, pkts); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := telemetry.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	byClass := map[string][]telemetry.Event{}
	spanIDs := map[uint64][]telemetry.Event{}
	for _, e := range events {
		byClass[e.Class] = append(byClass[e.Class], e)
		if e.Class == telemetry.ClassSpan && e.Event != 0 {
			spanIDs[e.Event] = append(spanIDs[e.Event], e)
		}
	}
	if len(spanIDs) == 0 {
		t.Fatal("exported spans carry no EventIDs")
	}
	audit, flight := byClass[telemetry.ClassAudit], byClass[telemetry.ClassFlight]

	// Every install audit record joins back to a validate span tree on
	// its EventID.
	installs := 0
	for _, r := range audit {
		if r.Kind != "install" {
			continue
		}
		installs++
		if r.Event == 0 {
			t.Fatalf("install audit record without EventID: %+v", r)
		}
		es, ok := spanIDs[r.Event]
		if !ok {
			t.Fatalf("install EventID %d has no spans", r.Event)
		}
		var foundValidate bool
		for _, e := range es {
			if e.Stage == telemetry.StageValidate && e.Owner == r.Owner {
				foundValidate = true
			}
		}
		if !foundValidate {
			t.Fatalf("EventID %d: no validate span for owner %q among %+v", r.Event, r.Owner, es)
		}
	}
	if installs == 0 {
		t.Fatal("export produced no install audit records")
	}

	// The config change (SetBackend) is the three-way join: one
	// EventID present as a config span, a config audit record, and a
	// config_change flight event.
	joined := false
	for _, fe := range flight {
		if fe.Kind != telemetry.FlightConfigChange || fe.Event == 0 {
			continue
		}
		var inSpans, inAudit bool
		for _, e := range spanIDs[fe.Event] {
			if e.Stage == telemetry.StageConfig {
				inSpans = true
			}
		}
		for _, r := range audit {
			if r.Event == fe.Event && r.Kind == "config" {
				inAudit = true
			}
		}
		if inSpans && inAudit {
			joined = true
		}
	}
	if !joined {
		t.Fatal("no EventID joins all three exported classes")
	}

	// Each class is exported oldest first with unique sequence numbers.
	for class, es := range byClass {
		for i := 1; i < len(es); i++ {
			if es[i].Seq <= es[i-1].Seq {
				t.Fatalf("%s events out of sequence at %d: %d then %d", class, i, es[i-1].Seq, es[i].Seq)
			}
		}
	}
}
