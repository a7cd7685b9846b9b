// Vectorized packet dispatch. DeliverPacket pays fixed costs per
// packet that have nothing to do with filter execution: an epoch pin,
// a telemetry span, a pool round-trip, and one labeled-counter lookup
// per filter run. DeliverPackets amortizes all of them across a packet
// vector — one pin, one span, one pooled environment, one snapshot
// load, per-filter counters accumulated locally and flushed once —
// which is where the compiled backend's per-run win stops being hidden
// behind dispatch overhead (see EXPERIMENTS.md for the measured
// combined speedup). Like DeliverPacket it takes NO lock: the filter
// set is the immutable published snapshot (table.go), already sorted
// by owner, so the whole batch sees one consistent table and the
// verdict rows come out in the same order len(pkts) DeliverPacket
// calls would produce.
package kernel

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/pktgen"
	"repro/internal/telemetry"
)

// prefetchSink keeps the software-prefetch loads in DeliverPackets
// observable so the compiler cannot eliminate them. Atomic because
// concurrent batches all store to it (the value is meaningless; only
// the store's existence matters).
var prefetchSink atomic.Uint32

// DeliverPackets runs every installed filter over each packet of the
// vector and returns, per packet, the owners that accepted it — the
// same verdicts len(pkts) DeliverPacket calls would have produced,
// under a single epoch pin and a single telemetry span
// (StageDispatchBatch). The snapshot is fixed for the whole batch: a
// filter installed or uninstalled mid-batch is either visible to
// every packet of the batch or to none. A fault in a validated filter
// aborts the batch with an error after flushing the accounting of the
// runs already done.
func (k *Kernel) DeliverPackets(pkts [][]byte) ([][]string, error) {
	tel := k.tel.Load()
	eid := k.nextEvent(tel)
	span := tel.span(telemetry.StageDispatchBatch, "", eid)
	supervised := k.brkArmed.Load() != 0
	if supervised {
		// Probe expired breakers before the snapshot load so a
		// re-admitted compiled form is visible to this whole batch.
		k.breakerTick(eid)
	}
	env := k.statePool.Get().(*packetEnv)
	defer k.statePool.Put(env)
	defer env.releasePacket()
	profiling := k.profiling.Load()

	// Pin an epoch and load the snapshot: the batch's entire view of
	// the filter set, pre-sorted by owner. The pin keeps a concurrently
	// retired snapshot (and its compiled programs) alive until the
	// batch finishes.
	rec := k.epochs.pin(int(env.shard))
	defer rec.unpin()
	t := k.table.Load()
	slots := t.slots

	// Per-filter batch state lives in pooled arrays parallel to the
	// snapshot's slots (the snapshot itself is immutable and shared):
	// cycle/accept accumulators flushed to the sharded counters once,
	// block-profile scratch flushed once, per-owner instruments resolved
	// once instead of per run.
	wantCompiled := Backend(k.backend.Load()) == BackendCompiled
	if cap(env.cycles) < len(slots) {
		env.cycles = make([]int64, len(slots))
		env.accepts = make([]int64, len(slots))
		env.runs = make([]int64, len(slots))
		env.bps = make([]*machine.BlockProfile, len(slots))
	}
	cycles := env.cycles[:len(slots)]
	accepts := env.accepts[:len(slots)]
	runs := env.runs[:len(slots)]
	bps := env.bps[:len(slots)]
	own := env.ownerTels(tel, slots)
	for i := range slots {
		cycles[i] = 0
		accepts[i] = 0
		runs[i] = 0
		if profiling && slots[i].f.prof != nil && slots[i].c != nil {
			// Compiled profiling: one pooled BlockProfile accumulates
			// the whole batch; flush expands and merges it once.
			bps[i] = slots[i].f.prof.getBlockScratch(slots[i].c)
		} else {
			bps[i] = nil
		}
		if slots[i].c == nil && wantCompiled {
			// The kernel's default backend is compiled but this filter
			// has no compiled form — it will dispatch interpreted.
			k.flight(telemetry.FlightBackendFallback, slots[i].owner, "no compiled form; dispatching interpreted", eid)
		}
	}
	var totalCycles int64
	var delivered int64
	// Observed dispatch records each run's simulated cycles (rc) in the
	// hot loop and reads the clock once per batch (t0 here, the end in
	// observeRuns): per-run latency is attributed from cycles at flush,
	// so no (packet, filter) pair pays a clock read or a shared atomic.
	timed := tel != nil
	var rc []uint32
	var t0 time.Time
	if timed {
		if n := len(pkts) * len(slots); cap(env.runCycles) < n {
			env.runCycles = make([]uint32, 0, n)
		}
		rc = env.runCycles[:0]
	}

	flush := func(rc []uint32) {
		sh := &k.stats.shards[env.shard]
		sh.packets.Add(delivered)
		sh.cycles.Add(totalCycles)
		tel.packetBatch(delivered)
		for i := range slots {
			if accepts[i] != 0 {
				slots[i].f.accepts.add(int(env.shard), accepts[i])
			}
			own[i].attribute(cycles[i], accepts[i])
			if bps[i] != nil {
				// One expansion + atomic merge per filter per batch;
				// the pooled environment must not pin the scratch.
				slots[i].f.prof.flushBlocks(bps[i], runs[i])
				bps[i] = nil
			}
		}
		if timed {
			env.observeRuns(own, rc, t0, eid)
		}
	}

	// Accepting (packet, filter) pairs accumulate densely as slot
	// indices in a pooled arena, with per-packet offsets recorded in
	// the pooled offset buffer; the owner strings and per-packet rows
	// are materialized once at the end. Slot indices are pointer-free,
	// so the hot loop's bookkeeping triggers no write barriers and the
	// arena recycles through the pool. Owners land in sorted order
	// because the snapshot's slots are sorted.
	if cap(env.offs) < len(pkts)+1 {
		env.offs = make([]int32, len(pkts)+1)
	}
	offs := env.offs[: len(pkts)+1 : len(pkts)+1]
	offs[0] = 0
	aidx := env.aidx[:0]

	// Software prefetch: sweep every packet's first cache line (the
	// one holding the header words filters decode) before dispatching
	// any of them. Issued back to back the misses overlap each other
	// in the memory system, so the sweep costs roughly one packet's
	// worth of DRAM latency per ~10 packets; issued one at a time from
	// inside the dispatch loop each would serialize against the filter
	// runs. The batch's header lines (64 KiB) stay cache-resident for
	// the dispatch loop below. Under profiling the sweep also touches
	// each unaligned packet's final byte: eager tail materialization
	// (below) will read that line, and overlapping its miss here keeps
	// it off the per-packet critical path.
	var sink byte
	if profiling {
		for _, p := range pkts {
			if len(p) > 0 {
				sink += p[0]
				if len(p)&7 != 0 {
					sink += p[len(p)-1]
				}
			}
		}
	} else {
		for _, p := range pkts {
			if len(p) > 0 {
				sink += p[0]
			}
		}
	}
	prefetchSink.Store(uint32(sink))

	if timed {
		t0 = time.Now()
	}

	for pi, data := range pkts {
		usePool := len(data) <= maxPooledPacket
		if usePool {
			// Zero-copy: the packet region aliases the caller's bytes
			// for the duration of this packet's runs.
			env.setPacketAlias(data)
			if profiling && env.tailSrc != nil {
				// Under profiling, materialize the tail word eagerly: a
				// tail-fault retry would attribute the aborted run's
				// retired prefix a second time, skewing the counts the
				// differential suite holds bit-exact.
				env.materializeTail()
			}
		} else {
			k.flight(telemetry.FlightOversizePacket, "", fmt.Sprintf("len=%d", len(data)), eid)
		}
		for si := range slots {
			f := slots[si].f
			var state *machine.State
			if usePool {
				if env.dirtyScratch {
					env.wipeScratch()
				}
				if slots[si].lite {
					env.resetLite(len(data))
				} else {
					env.reset(len(data))
				}
				state = &env.state
			} else {
				state = k.packetState(pktgen.Packet{Data: data})
			}
			var res machine.Result
			var err error
			// runInstalled, unrolled so the backend branch and the
			// dirty-scratch decision stay out of the per-op path.
			if c := slots[si].c; c != nil {
				if bp := bps[si]; bp != nil {
					res, err = c.RunProfiled(state, machine.Unchecked, dispatchFuel, bp)
					runs[si]++
				} else {
					res, err = c.Run(state, machine.Unchecked, dispatchFuel)
				}
				if usePool && c.WritesMemory() {
					env.dirtyScratch = true
				}
			} else {
				res, _, err = runInstalled(f, state, profiling)
				if usePool {
					env.dirtyScratch = true
				}
			}
			if err != nil && usePool && env.tailFault(err) {
				// The filter touched the packet's unaligned final
				// word — the one piece zero-copy dispatch defers
				// copying. Materialize the tail and rerun the filter
				// from a fresh state; the rerun behaves exactly as if
				// the tail had been mapped all along.
				env.materializeTail()
				env.wipeScratch() // the aborted run may have written scratch
				env.reset(len(data))
				if c := slots[si].c; c != nil {
					res, err = c.Run(state, machine.Unchecked, dispatchFuel)
					if c.WritesMemory() {
						env.dirtyScratch = true
					}
				} else {
					res, _, err = runInstalled(f, state, profiling)
					env.dirtyScratch = true
				}
			}
			if timed {
				rc = append(rc, uint32(res.Cycles))
			}
			if err != nil {
				kind := dispatchFaultKind(err)
				k.flight(kind, slots[si].owner, err.Error(), eid)
				k.breakerFault(slots[si].owner, kind, eid)
				flush(rc)
				span.End(err)
				return nil, fmt.Errorf("kernel: validated filter %q faulted: %w", slots[si].owner, err)
			}
			cycles[si] += res.Cycles
			totalCycles += res.Cycles
			if res.Ret != 0 {
				aidx = append(aidx, uint16(si))
				accepts[si]++
			}
		}
		offs[pi+1] = int32(len(aidx))
		delivered++
	}
	env.aidx = aidx[:0]
	flush(rc)
	if supervised {
		// The whole batch ran fault-free: one clean observation per
		// filter (probation progress is per delivery, not per packet).
		for si := range slots {
			k.breakerClean(slots[si].owner, eid)
		}
	}
	span.End(nil)

	names := make([]string, len(aidx))
	for i, si := range aidx {
		names[i] = slots[si].owner
	}
	accepted := make([][]string, len(pkts))
	for pi := range accepted {
		if lo, hi := offs[pi], offs[pi+1]; hi > lo {
			accepted[pi] = names[lo:hi:hi]
		}
	}
	return accepted, nil
}
