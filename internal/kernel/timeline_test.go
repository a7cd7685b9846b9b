package kernel

import (
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"testing"

	pcc "repro"
	"repro/internal/filters"
	"repro/internal/pktgen"
	"repro/internal/telemetry"
)

// TestTimelineCrossTenantIsolation churns installs, rejections, and
// dispatch through two registry tenants concurrently (run under
// -race), then asserts each tenant's timeline is hermetic: tenant a's
// classes never contain tenant b's EventIDs or owners, and the two
// tenants' EventID ranges are disjoint (per-tenant seeded bases). A
// third tenant's single install then checks that an owner query
// selects the same spans as the install's EventID query.
func TestTimelineCrossTenantIsolation(t *testing.T) {
	reg := NewRegistry()
	type tenantState struct {
		tn     *Tenant
		owners map[string]bool
	}
	mk := func(name string) *tenantState {
		tn, err := reg.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		// Wire the audit log the way serve does, so install decisions
		// land in the tenant's event log.
		tn.Kernel.SetAuditLog(slog.New(tn.Audit.Handler(nil)))
		tn.Kernel.SetQuarantine(QuarantineConfig{Threshold: 2})
		return &tenantState{tn: tn, owners: map[string]bool{}}
	}
	a, b := mk("a"), mk("b")

	cert, err := pcc.Certify(filters.Source(filters.Filter1), a.tn.Kernel.FilterPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pkts := pktgen.Generate(64, pktgen.Config{Seed: 7})
	raw := make([][]byte, len(pkts))
	for i, p := range pkts {
		raw[i] = p.Data
	}

	var wg sync.WaitGroup
	for _, ts := range []*tenantState{a, b} {
		for i := 0; i < 8; i++ {
			owner := fmt.Sprintf("%s-owner-%d", ts.tn.Name, i)
			ts.owners[owner] = true
		}
		wg.Add(1)
		go func(ts *tenantState) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for owner := range ts.owners {
					if err := ts.tn.Kernel.InstallFilter(owner, cert.Binary); err != nil {
						t.Errorf("install %s: %v", owner, err)
					}
					// A garbage install exercises the reject path too.
					_ = ts.tn.Kernel.InstallFilter(owner+"-bad", []byte("garbage"))
				}
				if _, err := ts.tn.Kernel.DeliverPackets(raw); err != nil {
					t.Errorf("deliver: %v", err)
				}
			}
		}(ts)
	}
	wg.Wait()

	timeline := func(ts *tenantState) telemetry.Timeline {
		return ts.tn.Audit.Timeline(telemetry.Query{})
	}
	events := func(tl telemetry.Timeline) map[uint64]bool {
		ids := map[uint64]bool{}
		for _, s := range tl.Spans {
			if s.Event != 0 {
				ids[s.Event] = true
			}
		}
		for _, r := range tl.Audit {
			if r.Event != 0 {
				ids[r.Event] = true
			}
		}
		for _, e := range tl.Flight {
			if e.Event != 0 {
				ids[e.Event] = true
			}
		}
		return ids
	}
	tla, tlb := timeline(a), timeline(b)
	ida, idb := events(tla), events(tlb)
	if len(ida) == 0 || len(idb) == 0 {
		t.Fatalf("timelines must carry EventIDs: a=%d b=%d", len(ida), len(idb))
	}
	for id := range ida {
		if idb[id] {
			t.Fatalf("EventID %d appears in both tenants' timelines", id)
		}
	}

	foreign := func(name string, tl telemetry.Timeline, other map[string]bool) {
		for _, s := range tl.Spans {
			if other[s.Owner] || other[s.Detail] {
				t.Fatalf("tenant %s timeline leaked span for foreign owner %q", name, s.Owner+s.Detail)
			}
		}
		for _, r := range tl.Audit {
			if other[r.Owner] {
				t.Fatalf("tenant %s timeline leaked audit record for foreign owner %q", name, r.Owner)
			}
		}
		for _, e := range tl.Flight {
			if other[e.Owner] {
				t.Fatalf("tenant %s timeline leaked flight event for foreign owner %q", name, e.Owner)
			}
		}
	}
	foreign("a", tla, b.owners)
	foreign("b", tlb, a.owners)

	// The per-tenant seeded bases keep the ranges disjoint by
	// construction; verify the seeds actually differ.
	if eventBase("a") == eventBase("b") {
		t.Fatal("tenant event bases must differ")
	}

	// owner= matches Event.Owner in every class, so a fresh tenant's one
	// install selects the same spans by owner as by its EventID —
	// cacheprobe included, though its detail is the probe verdict.
	c, err := reg.Create("c")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Kernel.InstallFilter("alice", cert.Binary); err != nil {
		t.Fatal(err)
	}
	stages := func(q telemetry.Query) []string {
		var out []string
		for _, s := range c.Audit.Timeline(q).Spans {
			out = append(out, s.Stage+"/"+s.Detail)
		}
		return out
	}
	byOwner := stages(telemetry.Query{Owner: "alice"})
	var eid uint64
	for _, s := range c.Audit.Timeline(telemetry.Query{Owner: "alice", Stage: telemetry.StageValidate}).Spans {
		eid = s.Event
	}
	byID := stages(telemetry.Query{Event: eid})
	if eid == 0 || !slices.Equal(byOwner, byID) || !slices.Contains(byOwner, telemetry.StageCacheProbe+"/miss") {
		t.Fatalf("owner=alice spans %v, id=%d spans %v: want the same, cacheprobe/miss included", byOwner, eid, byID)
	}
}

// TestLogRetentionIsolation: the event log keeps one ring per class,
// so span churn cannot evict anomalies or audit records. A config
// change and a rejected install, followed by twice the span capacity
// of delivered batches (one dispatch_batch span each), leave the
// config_change flight event, its config audit record and the
// install's audit record in the log, while the span class reports
// drops.
func TestLogRetentionIsolation(t *testing.T) {
	bins := certAll(t)
	tn, err := NewRegistry().Create("churn")
	if err != nil {
		t.Fatal(err)
	}
	k, log := tn.Kernel, tn.Audit
	k.SetAuditLog(slog.New(log.Handler(nil)))
	if err := k.InstallFilter("hot", bins[filters.Filter1]); err != nil {
		t.Fatal(err)
	}
	if err := k.SetBackend(BackendCompiled); err != nil {
		t.Fatal(err)
	}
	if err := k.InstallFilter("junk", []byte("garbage")); err == nil {
		t.Fatal("garbage install accepted")
	}
	raw := [][]byte{pktgen.Generate(1, pktgen.Config{Seed: 3})[0].Data}
	batches := 2 * log.Snapshot(telemetry.ClassSpan).Capacity
	for i := 0; i < batches; i++ {
		if _, err := k.DeliverPackets(raw); err != nil {
			t.Fatal(err)
		}
	}

	if spans := log.Snapshot(telemetry.ClassSpan); spans.Dropped < int64(batches/2) {
		t.Fatalf("span class dropped %d after %d batches; the churn did not wrap it", spans.Dropped, batches)
	}
	var eid uint64
	for _, e := range log.Events(telemetry.Query{Class: telemetry.ClassFlight, Kind: telemetry.FlightConfigChange}) {
		eid = e.Event
	}
	if eid == 0 {
		t.Fatal("span churn evicted the config_change flight event")
	}
	if got := log.Events(telemetry.Query{Class: telemetry.ClassAudit, Kind: "config", Event: eid}); len(got) != 1 {
		t.Fatalf("config audit record for event %d: %+v", eid, got)
	}
	rejected := false
	for _, e := range log.Events(telemetry.Query{Class: telemetry.ClassAudit, Kind: "install", Owner: "junk"}) {
		rejected = rejected || e.Attrs["verdict"] == "rejected"
	}
	if !rejected {
		t.Fatal("span churn evicted the rejected install's audit record")
	}
}
