package kernel

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/filters"
	"repro/internal/pktgen"
)

// TestRegistryTenantIsolation is the exact per-tenant reconciliation
// check: two tenants with different filter sets and different traffic
// must account for exactly their own packets, accepts, and telemetry —
// nothing leaks across the boundary in either direction.
func TestRegistryTenantIsolation(t *testing.T) {
	reg := NewRegistry()
	alpha, err := reg.Create("alpha")
	if err != nil {
		t.Fatal(err)
	}
	beta, err := reg.Create("beta")
	if err != nil {
		t.Fatal(err)
	}
	if err := alpha.Kernel.SetBackend(BackendCompiled); err != nil {
		t.Fatal(err)
	}

	install := func(k *Kernel, owner string, f filters.Filter) {
		t.Helper()
		if err := k.InstallFilter(owner, certFilter(t, k, f)); err != nil {
			t.Fatal(err)
		}
	}
	install(alpha.Kernel, "a-ip", filters.Filter1)
	install(alpha.Kernel, "a-web", filters.Filter4)
	install(beta.Kernel, "b-net", filters.Filter2)

	const nAlpha, nBeta = 500, 300
	pktsA := pktgen.Generate(nAlpha, pktgen.Config{Seed: 1})
	pktsB := pktgen.Generate(nBeta, pktgen.Config{Seed: 2})
	wantA := map[string]int{}
	for _, p := range pktsA {
		if _, err := alpha.Kernel.DeliverPacket(p); err != nil {
			t.Fatal(err)
		}
		if filters.Reference(filters.Filter1, p.Data) {
			wantA["a-ip"]++
		}
		if filters.Reference(filters.Filter4, p.Data) {
			wantA["a-web"]++
		}
	}
	wantB := 0
	for _, p := range pktsB {
		if _, err := beta.Kernel.DeliverPacket(p); err != nil {
			t.Fatal(err)
		}
		if filters.Reference(filters.Filter2, p.Data) {
			wantB++
		}
	}

	if got := alpha.Kernel.Stats().Packets; got != nAlpha {
		t.Errorf("alpha packets = %d, want %d", got, nAlpha)
	}
	if got := beta.Kernel.Stats().Packets; got != nBeta {
		t.Errorf("beta packets = %d, want %d", got, nBeta)
	}
	accA, accB := alpha.Kernel.Accepts(), beta.Kernel.Accepts()
	for owner, want := range wantA {
		if accA[owner] != want {
			t.Errorf("alpha accepts[%s] = %d, want %d", owner, accA[owner], want)
		}
	}
	if accB["b-net"] != wantB {
		t.Errorf("beta accepts[b-net] = %d, want %d", accB["b-net"], wantB)
	}
	for _, owner := range []string{"a-ip", "a-web"} {
		if _, leak := accB[owner]; leak {
			t.Errorf("alpha owner %s leaked into beta's accept counters", owner)
		}
	}
	if _, leak := accA["b-net"]; leak {
		t.Error("beta owner leaked into alpha's accept counters")
	}

	// The telemetry recorders are per-tenant too: each exposition page
	// carries exactly its own packet total and only its own owners.
	page := func(tn *Tenant) string {
		var buf bytes.Buffer
		if err := tn.Rec.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	pa, pb := page(alpha), page(beta)
	if !strings.Contains(pa, fmt.Sprintf("%s %d", MetricPackets, nAlpha)) {
		t.Errorf("alpha exposition missing %s %d", MetricPackets, nAlpha)
	}
	if !strings.Contains(pb, fmt.Sprintf("%s %d", MetricPackets, nBeta)) {
		t.Errorf("beta exposition missing %s %d", MetricPackets, nBeta)
	}
	if strings.Contains(pb, "a-ip") || strings.Contains(pa, "b-net") {
		t.Error("per-owner metric families leaked across tenants")
	}
}

// TestRegistryDirectory covers the directory surface: create, dup
// rejection, lookup, sorted listing, and removal.
func TestRegistryDirectory(t *testing.T) {
	reg := NewRegistry()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := reg.Create(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Create("alpha"); err == nil {
		t.Fatal("duplicate tenant accepted")
	}
	if _, err := reg.Create(""); err == nil {
		t.Fatal("empty tenant name accepted")
	}
	if got := fmt.Sprint(reg.Names()); got != "[alpha mid zeta]" {
		t.Fatalf("Names() = %s, want sorted [alpha mid zeta]", got)
	}
	ts := reg.Tenants()
	if len(ts) != 3 || ts[0].Name != "alpha" || ts[2].Name != "zeta" {
		t.Fatalf("Tenants() order wrong: %v", ts)
	}
	tn, ok := reg.Get("mid")
	if !ok || tn.Name != "mid" || tn.Kernel == nil || tn.Rec == nil || tn.Audit != tn.Rec.Log() {
		t.Fatalf("Get(mid) = %+v, %v", tn, ok)
	}
	if !reg.Remove("mid") {
		t.Fatal("Remove(mid) reported missing")
	}
	if reg.Remove("mid") {
		t.Fatal("second Remove(mid) reported present")
	}
	if _, ok := reg.Get("mid"); ok {
		t.Fatal("removed tenant still resolvable")
	}
}

// TestRegistryConcurrentTenants drives several tenants from concurrent
// goroutines — dispatch, installs, and directory churn all at once —
// and reconciles each tenant's packet totals exactly afterwards.
func TestRegistryConcurrentTenants(t *testing.T) {
	reg := NewRegistry()
	const tenants, rounds = 4, 50
	bins := certAll(t)
	raw := allIPPackets(16, 9)

	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tn, err := reg.Create(fmt.Sprintf("tenant-%d", i))
			if err != nil {
				t.Error(err)
				return
			}
			if err := tn.Kernel.InstallFilter("f", bins[filters.Filter1]); err != nil {
				t.Error(err)
				return
			}
			for r := 0; r < rounds; r++ {
				if _, err := tn.Kernel.DeliverPackets(raw); err != nil {
					t.Error(err)
					return
				}
				// Directory reads while others create/dispatch.
				reg.Names()
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, tn := range reg.Tenants() {
		if got, want := tn.Kernel.Stats().Packets, rounds*len(raw); got != want {
			t.Errorf("%s: packets = %d, want %d", tn.Name, got, want)
		}
	}
}
