package kernel

import (
	"fmt"
	"sync"
	"testing"
	"time"

	pcc "repro"
	"repro/internal/alpha"
	"repro/internal/machine"
	"repro/internal/pktgen"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// condFaultSrc faults iff the packet's first quadword is nonzero: the
// clean path is a plain RET, the hostile path loads through r4 (the
// scratch register the dispatch preamble zeroes), which is unmapped.
// This is the breaker tests' steerable fault: the packet decides
// whether this delivery is clean or a memory fault.
const condFaultSrc = "LDQ r5, 0(r1)\nBEQ r5, ok\nLDQ r0, 0(r4)\nok: RET"

// injectFaultyCompiled publishes an unvalidated program WITH a
// compiled form, bypassing the validation pipeline — the breaker
// supervises dispatch faults, and a validated filter cannot be made to
// fault on demand.
func injectFaultyCompiled(t *testing.T, k *Kernel, owner, src string) {
	t.Helper()
	prog := alpha.MustAssemble(src).Prog
	c, err := machine.Compile(prog, &machine.DEC21064)
	if err != nil {
		t.Fatal(err)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	ctr := newOwnerCounter(len(k.stats.shards))
	ins := &installed{ext: &pcc.Extension{Prog: prog}, accepts: ctr, compiled: c}
	k.publishLocked(k.table.Load().withFilter(owner, ins))
}

// compiledForm reports whether owner's published table slot carries a
// compiled program.
func compiledForm(k *Kernel, owner string) bool {
	tb := k.table.Load()
	i, ok := tb.index[owner]
	return ok && tb.slots[i].c != nil
}

var (
	cleanPkt = pktgen.Packet{Data: make([]byte, 16)}
	faultPkt = pktgen.Packet{Data: append([]byte{1}, make([]byte, 15)...)}
)

// TestBreakerDemotesReadmitsCloses walks the full supervision cycle:
// Threshold faults demote the compiled form (open), the backoff gates
// re-admission, the expired backoff promotes it on probation
// (half-open), and Threshold clean deliveries close the breaker — each
// transition observable on the gauge, the audit log, and the flight
// recorder.
func TestBreakerDemotesReadmitsCloses(t *testing.T) {
	k := New()
	clk := useFakeClock(k)
	rec := telemetry.New()
	k.SetRecorder(rec)
	k.SetBreaker(BreakerConfig{Threshold: 2, Base: 50 * time.Millisecond, Max: time.Second})
	injectFaultyCompiled(t, k, "flaky", condFaultSrc)
	if !compiledForm(k, "flaky") {
		t.Fatal("injected filter has no compiled form")
	}

	// Two faulting deliveries trip the breaker.
	for i := 0; i < 2; i++ {
		if _, err := k.DeliverPacket(faultPkt); err == nil {
			t.Fatal("faulting delivery returned no error")
		}
	}
	if st := k.Breakers()["flaky"]; st != breakerOpen {
		t.Fatalf("breaker state %d after %d faults, want open", st, 2)
	}
	if compiledForm(k, "flaky") {
		t.Fatal("compiled form still published after demotion")
	}
	if g := rec.Snapshot(false).LabeledGauges[MetricBreakerState]["flaky"]; g != breakerOpen {
		t.Fatalf("pcc_breaker_state{filter=flaky} = %v, want 1", g)
	}

	// Inside the backoff window a clean delivery must NOT re-admit.
	if _, err := k.DeliverPacket(cleanPkt); err != nil {
		t.Fatal(err)
	}
	if st := k.Breakers()["flaky"]; st != breakerOpen {
		t.Fatalf("breaker left open state (%d) before backoff expired", st)
	}

	// Past the backoff, the next delivery promotes to half-open — the
	// compiled form is back, on probation.
	clk.advance(70 * time.Millisecond)
	if _, err := k.DeliverPacket(cleanPkt); err != nil {
		t.Fatal(err)
	}
	if !compiledForm(k, "flaky") {
		t.Fatal("compiled form not re-published on probation")
	}
	// That clean delivery already counted toward closing; one more
	// reaches Threshold=2 and closes the breaker.
	if _, err := k.DeliverPacket(cleanPkt); err != nil {
		t.Fatal(err)
	}
	if st := k.Breakers()["flaky"]; st != breakerClosed {
		t.Fatalf("breaker state %d after clean probation, want closed", st)
	}
	if !compiledForm(k, "flaky") {
		t.Fatal("compiled form lost on close")
	}
	if g := rec.Snapshot(false).LabeledGauges[MetricBreakerState]["flaky"]; g != breakerClosed {
		t.Fatalf("pcc_breaker_state{filter=flaky} = %v after close, want 0", g)
	}

	kinds := map[string]int{}
	for _, e := range flightEvents(rec) {
		if e.Owner == "flaky" {
			kinds[e.Kind]++
		}
	}
	for _, want := range []string{
		telemetry.FlightBreakerOpen,
		telemetry.FlightBreakerHalfOpen,
		telemetry.FlightBreakerClose,
	} {
		if kinds[want] == 0 {
			t.Fatalf("no %s flight event for flaky: %v", want, kinds)
		}
	}
}

// TestBreakerReopensFromProbation: a fault during half-open re-opens
// with a doubled backoff rather than closing.
func TestBreakerReopensFromProbation(t *testing.T) {
	k := New()
	clk := useFakeClock(k)
	k.SetBreaker(BreakerConfig{Threshold: 1, Base: 30 * time.Millisecond, Max: time.Second})
	injectFaultyCompiled(t, k, "flaky", condFaultSrc)

	if _, err := k.DeliverPacket(faultPkt); err == nil {
		t.Fatal("faulting delivery returned no error")
	}
	if st := k.Breakers()["flaky"]; st != breakerOpen {
		t.Fatalf("state %d, want open", st)
	}
	clk.advance(50 * time.Millisecond)
	// Probation delivery faults: straight back to open, trips now 2.
	if _, err := k.DeliverPacket(faultPkt); err == nil {
		t.Fatal("faulting probe returned no error")
	}
	if st := k.Breakers()["flaky"]; st != breakerOpen {
		t.Fatalf("state %d after faulting probe, want open", st)
	}
}

// TestBreakerEscalates: MaxTrips exhausted means the faults follow the
// filter, not the compiled form — the filter is uninstalled and its
// owner embargoed under the quarantine config.
func TestBreakerEscalates(t *testing.T) {
	k := New()
	clk := useFakeClock(k)
	rec := telemetry.New()
	k.SetRecorder(rec)
	k.SetQuarantine(QuarantineConfig{Threshold: 3, Base: time.Minute})
	k.SetBreaker(BreakerConfig{Threshold: 1, Base: 10 * time.Millisecond, MaxTrips: 2})
	injectFaultyCompiled(t, k, "doomed", condFaultSrc)

	// Trip 1: open. Past backoff, the probe faults — trip 2 hits
	// MaxTrips and escalates.
	if _, err := k.DeliverPacket(faultPkt); err == nil {
		t.Fatal("faulting delivery returned no error")
	}
	clk.advance(25 * time.Millisecond)
	if _, err := k.DeliverPacket(faultPkt); err == nil {
		t.Fatal("faulting probe returned no error")
	}

	if got := len(k.Owners()); got != 0 {
		t.Fatalf("escalated filter still installed: %v", k.Owners())
	}
	if _, embargoed := k.Quarantined()["doomed"]; !embargoed {
		t.Fatalf("escalated owner not quarantined: %v", k.Quarantined())
	}
	// A clean delivery afterwards must not resurrect anything.
	if _, err := k.DeliverPacket(cleanPkt); err != nil {
		t.Fatal(err)
	}
	if st := k.Breakers()["doomed"]; st != breakerOpen {
		t.Fatalf("escalated breaker state %d, want open (terminal)", st)
	}
	if g, ok := rec.Snapshot(false).LabeledGauges[MetricBreakerState]["doomed"]; ok {
		t.Fatalf("pcc_breaker_state{filter=doomed} = %v after escalation, want no series", g)
	}
}

// TestBreakerEscalateStoreFailureHoldsOpen: when the escalation
// uninstall cannot be journaled (sick or closed store), the filter
// stays installed — so supervision must NOT stand down. The compiled
// form is demoted, the breaker stays open and armed, the owner is not
// quarantined for a disk failure, and once the store trouble clears
// the next probation fault re-escalates to a real uninstall.
func TestBreakerEscalateStoreFailureHoldsOpen(t *testing.T) {
	k := New()
	clk := useFakeClock(k)
	wal, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	wal.Close() // the disk "dies": every append now fails
	k.SetStore(wal)
	k.SetQuarantine(QuarantineConfig{Threshold: 3, Base: time.Minute})
	k.SetBreaker(BreakerConfig{Threshold: 1, Base: 10 * time.Millisecond, MaxTrips: 2})
	injectFaultyCompiled(t, k, "doomed", condFaultSrc)

	// Trip 1 opens; past backoff the probe faults — trip 2 escalates,
	// but the uninstall's journal append fails.
	if _, err := k.DeliverPacket(faultPkt); err == nil {
		t.Fatal("faulting delivery returned no error")
	}
	clk.advance(25 * time.Millisecond)
	if _, err := k.DeliverPacket(faultPkt); err == nil {
		t.Fatal("faulting probe returned no error")
	}
	if got := k.Owners(); len(got) != 1 {
		t.Fatalf("filter vanished despite failed uninstall: %v", got)
	}
	if compiledForm(k, "doomed") {
		t.Fatal("compiled form still published after failed escalation")
	}
	if st := k.Breakers()["doomed"]; st != breakerOpen {
		t.Fatalf("state %d after failed escalation, want open", st)
	}
	if k.brkArmed.Load() != 1 {
		t.Fatalf("brkArmed = %d after failed escalation, want 1 (supervision must continue)",
			k.brkArmed.Load())
	}
	if _, embargoed := k.Quarantined()["doomed"]; embargoed {
		t.Fatal("owner quarantined for a store failure")
	}

	// The store trouble clears (here: detached); the next probation
	// fault re-escalates, and this time the uninstall commits.
	k.SetStore(nil)
	clk.advance(25 * time.Millisecond)
	if _, err := k.DeliverPacket(faultPkt); err == nil {
		t.Fatal("faulting probe returned no error")
	}
	if got := k.Owners(); len(got) != 0 {
		t.Fatalf("re-escalation did not uninstall: %v", got)
	}
	if _, embargoed := k.Quarantined()["doomed"]; !embargoed {
		t.Fatalf("re-escalated owner not quarantined: %v", k.Quarantined())
	}
	if k.brkArmed.Load() != 0 {
		t.Fatalf("brkArmed = %d after terminal escalation, want 0", k.brkArmed.Load())
	}
}

// TestBreakerClosedFaultsAccumulate: closed-state faults never decay —
// whether clean deliveries interleave, and whether an unrelated
// filter's breaker happens to be armed (which is what gates the clean
// hook), the Threshold'th fault always trips the breaker.
func TestBreakerClosedFaultsAccumulate(t *testing.T) {
	k := New()
	k.SetBreaker(BreakerConfig{Threshold: 3, Base: time.Minute})
	injectFaultyCompiled(t, k, "flaky", condFaultSrc)

	// Fault, then a clean streak, then fault again — twice. Without an
	// armed breaker the clean hook never runs; with one it must not
	// reset the count either. Either way the third fault trips.
	for i := 0; i < 2; i++ {
		if _, err := k.DeliverPacket(faultPkt); err == nil {
			t.Fatal("faulting delivery returned no error")
		}
		for j := 0; j < 5; j++ {
			if _, err := k.DeliverPacket(cleanPkt); err != nil {
				t.Fatal(err)
			}
		}
		if st := k.Breakers()["flaky"]; st != breakerClosed {
			t.Fatalf("state %d after %d faults, want closed", st, i+1)
		}
	}
	if _, err := k.DeliverPacket(faultPkt); err == nil {
		t.Fatal("faulting delivery returned no error")
	}
	if st := k.Breakers()["flaky"]; st != breakerOpen {
		t.Fatalf("state %d after Threshold accumulated faults, want open", st)
	}
}

// TestBreakerBatchPath: DeliverPackets drives the same supervision —
// the faulting packet in a batch counts a fault, clean batches count
// probation progress.
func TestBreakerBatchPath(t *testing.T) {
	k := New()
	clk := useFakeClock(k)
	k.SetBreaker(BreakerConfig{Threshold: 1, Base: 20 * time.Millisecond, Max: time.Second})
	injectFaultyCompiled(t, k, "flaky", condFaultSrc)

	if _, err := k.DeliverPackets([][]byte{cleanPkt.Data, faultPkt.Data}); err == nil {
		t.Fatal("faulting batch returned no error")
	}
	if st := k.Breakers()["flaky"]; st != breakerOpen {
		t.Fatalf("state %d after batch fault, want open", st)
	}
	clk.advance(35 * time.Millisecond)
	// One clean batch = one clean observation = Threshold, closing it.
	if _, err := k.DeliverPackets([][]byte{cleanPkt.Data, cleanPkt.Data}); err != nil {
		t.Fatal(err)
	}
	if st := k.Breakers()["flaky"]; st != breakerClosed {
		t.Fatalf("state %d after clean batch, want closed", st)
	}
	if !compiledForm(k, "flaky") {
		t.Fatal("compiled form not restored after batch close")
	}
}

// TestBreakerReinstallForgets: a fresh install is a fresh binary — the
// supervision record dies with the old one.
func TestBreakerReinstallForgets(t *testing.T) {
	k := New()
	k.SetBreaker(BreakerConfig{Threshold: 1, Base: time.Minute})
	injectFaultyCompiled(t, k, "flaky", condFaultSrc)
	if _, err := k.DeliverPacket(faultPkt); err == nil {
		t.Fatal("faulting delivery returned no error")
	}
	if st := k.Breakers()["flaky"]; st != breakerOpen {
		t.Fatalf("state %d, want open", st)
	}
	bins := certAll(t)
	var bin []byte
	for _, b := range bins {
		bin = b
		break
	}
	if err := k.InstallFilter("flaky", bin); err != nil {
		t.Fatal(err)
	}
	if _, tracked := k.Breakers()["flaky"]; tracked {
		t.Fatal("reinstall kept the old binary's breaker record")
	}
}

// TestBreakerUninstallForgets: uninstalling an owner whose breaker is
// open drops its supervision record, so dispatch stops consulting the
// breaker (brkArmed back to 0), Breakers no longer lists the owner, and
// its pcc_breaker_state series is gone from the snapshot.
func TestBreakerUninstallForgets(t *testing.T) {
	k := New()
	clk := useFakeClock(k)
	rec := telemetry.New()
	k.SetRecorder(rec)
	k.SetBreaker(BreakerConfig{Threshold: 1, Base: time.Millisecond, Max: time.Millisecond})
	injectFaultyCompiled(t, k, "flaky", condFaultSrc)
	if _, err := k.DeliverPacket(faultPkt); err == nil {
		t.Fatal("faulting delivery returned no error")
	}
	if st := k.Breakers()["flaky"]; st != breakerOpen || k.brkArmed.Load() != 1 {
		t.Fatalf("breaker state %d, armed %d; want open and armed", st, k.brkArmed.Load())
	}
	if err := k.UninstallFilter("flaky"); err != nil {
		t.Fatal(err)
	}
	clk.advance(5 * time.Millisecond) // past the backoff
	for i := 0; i < 50; i++ {
		if _, err := k.DeliverPacket(cleanPkt); err != nil {
			t.Fatal(err)
		}
	}
	if n := k.brkArmed.Load(); n != 0 {
		t.Fatalf("brkArmed = %d after uninstall, want 0", n)
	}
	if st, ok := k.Breakers()["flaky"]; ok {
		t.Fatalf("uninstalled owner still supervised in state %d", st)
	}
	if g, ok := rec.Snapshot(false).LabeledGauges[MetricBreakerState]["flaky"]; ok {
		t.Fatalf("pcc_breaker_state{filter=flaky} = %v after uninstall, want no series", g)
	}
}

// TestBreakerDisableRestores: turning supervision off promotes every
// demoted filter back and drops all state.
func TestBreakerDisableRestores(t *testing.T) {
	k := New()
	k.SetBreaker(BreakerConfig{Threshold: 1, Base: time.Minute})
	injectFaultyCompiled(t, k, "flaky", condFaultSrc)
	if _, err := k.DeliverPacket(faultPkt); err == nil {
		t.Fatal("faulting delivery returned no error")
	}
	if compiledForm(k, "flaky") {
		t.Fatal("not demoted")
	}
	k.SetBreaker(BreakerConfig{})
	if !compiledForm(k, "flaky") {
		t.Fatal("disable did not restore the compiled form")
	}
	if len(k.Breakers()) != 0 {
		t.Fatalf("disable kept state: %v", k.Breakers())
	}
	if k.brkArmed.Load() != 0 {
		t.Fatalf("brkArmed = %d after disable, want 0", k.brkArmed.Load())
	}
}

// TestBreakerConcurrent hammers the supervisor from many goroutines
// mixing clean and faulting deliveries on both dispatch paths while
// probes and demotions race — the -race run is the assertion; at the
// end the arm counter must be consistent with the state map.
func TestBreakerConcurrent(t *testing.T) {
	k := New()
	k.SetBreaker(BreakerConfig{Threshold: 2, Base: time.Millisecond, Max: 4 * time.Millisecond})
	for i := 0; i < 4; i++ {
		injectFaultyCompiled(t, k, fmt.Sprintf("flaky-%d", i), condFaultSrc)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if (i+g)%5 == 0 {
					k.DeliverPacket(faultPkt)
				} else if g%2 == 0 {
					k.DeliverPacket(cleanPkt)
				} else {
					k.DeliverPackets([][]byte{cleanPkt.Data, cleanPkt.Data})
				}
			}
		}(g)
	}
	wg.Wait()
	armed := k.brkArmed.Load()
	var nonClosed int64
	for _, st := range k.Breakers() {
		if st != breakerClosed {
			nonClosed++
		}
	}
	if armed != nonClosed {
		t.Fatalf("brkArmed=%d but %d breakers are non-closed", armed, nonClosed)
	}
	k.Quiesce()
}
