package kernel

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	pcc "repro"
	"repro/internal/alpha"
	"repro/internal/machine"
	"repro/internal/pktgen"
	"repro/internal/telemetry"
)

// entryPoints drives a sequence of deliveries through each exported
// dispatch entry point: "single" delivers the packets one
// DeliverPacket call at a time (stopping at the first error), "batch"
// in one DeliverPackets call. Both run the same loop, so every
// accounting rule must hold on both.
var entryPoints = []struct {
	name    string
	deliver func(k *Kernel, pkts [][]byte) (calls int, err error)
}{
	{"single", func(k *Kernel, pkts [][]byte) (int, error) {
		for i, p := range pkts {
			if _, err := k.DeliverPacket(pktgen.Packet{Data: p}); err != nil {
				return i + 1, err
			}
		}
		return len(pkts), nil
	}},
	{"batch", func(k *Kernel, pkts [][]byte) (int, error) {
		_, err := k.DeliverPackets(pkts)
		return 1, err
	}},
}

// injectInterpreted publishes an unvalidated program with NO compiled
// form, bypassing the validation pipeline (the interpreted counterpart
// of injectFaultyCompiled).
func injectInterpreted(t *testing.T, k *Kernel, owner, src string) {
	t.Helper()
	k.mu.Lock()
	defer k.mu.Unlock()
	ins := &installed{
		ext:     &pcc.Extension{Prog: alpha.MustAssemble(src).Prog},
		accepts: newOwnerCounter(len(k.stats.shards)),
	}
	k.publishLocked(k.table.Load().withFilter(owner, ins))
}

// TestDispatchCountsPacketAfterAllFilters: a packet counts in
// Stats.Packets and pcc_packets_total only once every filter has run
// on it, so a delivery that faults mid-packet leaves that packet
// uncounted on both entry points.
func TestDispatchCountsPacketAfterAllFilters(t *testing.T) {
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			k := New()
			rec := telemetry.New()
			k.SetRecorder(rec)
			injectFaultyCompiled(t, k, "flaky", condFaultSrc)
			pkts := [][]byte{cleanPkt.Data, cleanPkt.Data, faultPkt.Data, cleanPkt.Data}
			if _, err := ep.deliver(k, pkts); err == nil {
				t.Fatal("faulting delivery returned no error")
			}
			if got := k.Stats().Packets; got != 2 {
				t.Fatalf("Stats.Packets = %d, want 2 (the faulting packet must not count)", got)
			}
			if got := rec.Counter(MetricPackets).Value(); got != 2 {
				t.Fatalf("%s = %d, want 2", MetricPackets, got)
			}
		})
	}
}

// TestDispatchBreakerCreditPerCleanDelivery: breaker probation credit
// is one clean observation per fault-free delivery. A half-open filter
// that runs clean inside a delivery some later filter faults gets no
// credit, on both entry points.
func TestDispatchBreakerCreditPerCleanDelivery(t *testing.T) {
	// "a" faults iff the packet's first quadword is nonzero, "z" iff
	// its second is; slots run in owner order, so "a" runs first.
	const zFaultSrc = "LDQ r5, 8(r1)\nBEQ r5, ok\nLDQ r0, 0(r4)\nok: RET"
	zFault := append(make([]byte, 8), 1, 0, 0, 0, 0, 0, 0, 0)
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			k := New()
			clk := useFakeClock(k)
			k.SetBreaker(BreakerConfig{Threshold: 1, Base: time.Millisecond, Max: time.Minute})
			injectFaultyCompiled(t, k, "a", condFaultSrc)
			injectFaultyCompiled(t, k, "z", zFaultSrc)
			if _, err := ep.deliver(k, [][]byte{faultPkt.Data}); err == nil {
				t.Fatal("faulting delivery returned no error")
			}
			if st := k.Breakers()["a"]; st != breakerOpen {
				t.Fatalf("breaker a state %d after a fault, want open", st)
			}
			clk.advance(20 * time.Millisecond)
			// This delivery re-admits "a" on probation; "a" runs clean,
			// then "z" faults: no credit, "a" stays half-open.
			if _, err := ep.deliver(k, [][]byte{zFault}); err == nil {
				t.Fatal("faulting delivery returned no error")
			}
			if st := k.Breakers()["a"]; st != breakerHalfOpen {
				t.Fatalf("breaker a state %d after a faulted delivery, want half-open (no credit)", st)
			}
			if _, err := ep.deliver(k, [][]byte{cleanPkt.Data}); err != nil {
				t.Fatal(err)
			}
			if st := k.Breakers()["a"]; st != breakerClosed {
				t.Fatalf("breaker a state %d after a clean delivery, want closed", st)
			}
		})
	}
}

// TestDispatchBackendFallbackPerDelivery: under the compiled backend,
// a filter with no compiled form records one backend_fallback flight
// event per delivery, however many packets the delivery carries.
func TestDispatchBackendFallbackPerDelivery(t *testing.T) {
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			k := New()
			if err := k.SetBackend(BackendCompiled); err != nil {
				t.Fatal(err)
			}
			rec := telemetry.New()
			k.SetRecorder(rec)
			injectInterpreted(t, k, "interp-only", "RET")
			pkts := [][]byte{cleanPkt.Data, cleanPkt.Data, cleanPkt.Data}
			calls, err := ep.deliver(k, pkts)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, e := range flightEvents(rec) {
				if e.Kind == telemetry.FlightBackendFallback && e.Owner == "interp-only" {
					n++
				}
			}
			if n != calls {
				t.Fatalf("%d backend_fallback events for %d deliveries", n, calls)
			}
		})
	}
}

// TestDispatchLazyTailBothEntryPoints: both entry points alias the
// packet and defer its unaligned final word, so a filter that reads
// that word faults once, has the tail materialized, and reruns. The
// rerun must be invisible: verdicts and cycles equal a fresh-state run
// for every unaligned length. The filter reads only the preset
// registers, so its compiled slot also takes the resetLite path.
func TestDispatchLazyTailBothEntryPoints(t *testing.T) {
	const tailSrc = "SRL r2, 3, r4\nSLL r4, 3, r4\nADDQ r1, r4, r4\nLDQ r0, 0(r4)\nRET"
	prog := alpha.MustAssemble(tailSrc).Prog
	var pkts [][]byte
	for n := 9; n < 40; n++ {
		if n%8 == 0 {
			continue // no tail word: the read would be out of bounds
		}
		p := make([]byte, n)
		p[n-1] = byte(n) // a nonzero tail byte: accept
		pkts = append(pkts, p)
	}
	var wantCycles int64
	k0 := New()
	for _, p := range pkts {
		res, err := machine.Interp(prog, k0.packetState(pktgen.Packet{Data: p}), machine.Unchecked, &machine.DEC21064, dispatchFuel)
		if err != nil || res.Ret == 0 {
			t.Fatalf("len %d: fresh-state run = %+v, %v; want an accept", len(p), res, err)
		}
		wantCycles += res.Cycles
	}
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			k := New()
			injectFaultyCompiled(t, k, "tail", tailSrc)
			if !k.table.Load().slots[0].lite {
				t.Fatal("tail filter's slot is not resetLite-eligible")
			}
			if _, err := ep.deliver(k, pkts); err != nil {
				t.Fatal(err)
			}
			st := k.Stats()
			if st.Packets != len(pkts) || st.ExtensionCycles != wantCycles {
				t.Fatalf("stats %+v, want %d packets and %d cycles", st, len(pkts), wantCycles)
			}
			if got := k.Accepts()["tail"]; got != len(pkts) {
				t.Fatalf("%d accepts, want %d", got, len(pkts))
			}
		})
	}
}

// TestDispatchAcceptIndexBeyondUint16: accepting slots are recorded by
// index, and nothing caps the filter count, so the index must not
// wrap. With 65,537 slots and only the last one accepting, the
// verdict names that slot's owner, not slot 0's.
func TestDispatchAcceptIndexBeyondUint16(t *testing.T) {
	const n = 1<<16 + 1
	k := New()
	ctr := newOwnerCounter(len(k.stats.shards))
	reject := &installed{ext: &pcc.Extension{Prog: alpha.MustAssemble("RET").Prog}, accepts: ctr}
	accept := &installed{ext: &pcc.Extension{Prog: alpha.MustAssemble("MOV 1, r0\nRET").Prog}, accepts: ctr}
	nt := newFilterTable()
	nt.slots = make([]tableSlot, n)
	for i := range nt.slots {
		f := reject
		if i == n-1 {
			f = accept
		}
		nt.slots[i] = makeSlot(fmt.Sprintf("f%06d", i), f)
	}
	nt.reindex()
	k.mu.Lock()
	k.publishLocked(nt)
	k.mu.Unlock()

	want := []string{fmt.Sprintf("f%06d", n-1)}
	single, err := k.DeliverPacket(cleanPkt)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := k.DeliverPackets([][]byte{cleanPkt.Data})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single, want) || !reflect.DeepEqual(batch, [][]string{want}) {
		t.Fatalf("accepted %v (single), %v (batch); want %v", single, batch, want)
	}
}
