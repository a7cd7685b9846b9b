// Packet dispatch: the one loop over (packet, filter) pairs. Both
// entry points run it — DeliverPacket is a batch of one, DeliverPackets
// a batch of many — so they share every rule: one epoch pin, one
// telemetry span, one pooled environment and one snapshot load per
// call; the packet region aliases the caller's bytes (zero copy, with
// the unaligned tail materialized lazily); registers are reset with
// resetLite where install-time liveness allows; per-filter counters
// accumulate locally and flush once. It takes NO lock: the filter set
// is the immutable published snapshot (table.go), already sorted by
// owner, so every packet of a call sees one consistent table and
// accept lists come out sorted with no per-call sort.
package kernel

import (
	"fmt"
	"time"

	"repro/internal/machine"
	"repro/internal/pktgen"
	"repro/internal/telemetry"
)

// DeliverPacket runs every installed filter over the packet (with no
// run-time checks — they are validated) and returns the owners that
// accepted it, sorted. It is DeliverPackets on a one-packet vector,
// spanned as StageDispatch instead of StageDispatchBatch.
func (k *Kernel) DeliverPacket(pkt pktgen.Packet) ([]string, error) {
	one := [1][]byte{pkt.Data}
	return k.deliver(one[:], telemetry.StageDispatch, nil)
}

// DeliverPackets runs every installed filter over each packet of the
// vector and returns, per packet, the owners that accepted it, under a
// single epoch pin and a single telemetry span (StageDispatchBatch).
// The snapshot is fixed for the whole batch: a filter installed or
// uninstalled mid-batch is either visible to every packet of the batch
// or to none. A fault in a validated filter aborts the batch with an
// error after flushing the accounting of the runs already done.
func (k *Kernel) DeliverPackets(pkts [][]byte) ([][]string, error) {
	rows := make([][]string, len(pkts))
	if _, err := k.deliver(pkts, telemetry.StageDispatchBatch, rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// deliver is the dispatch loop behind both entry points. It returns
// the accepting owners of every packet back to back, in packet order
// (nil when none accepted); when rows is non-nil it holds one entry
// per packet and receives that packet's share of the list.
//
// Accounting rules, the same for one packet or many: a packet counts
// in Stats.Packets (and pcc_packets_total) only once every filter has
// run on it; a fault aborts the call after flushing the runs already
// done; breaker probation credit is one clean observation per filter
// per fault-free call; a backend_fallback flight event is recorded
// once per call for each filter dispatching interpreted under the
// compiled backend.
func (k *Kernel) deliver(pkts [][]byte, stage string, rows [][]string) ([]string, error) {
	tel := k.tel.Load()
	eid := k.nextEvent(tel)
	span := tel.span(stage, "", "", eid)
	supervised := k.brkArmed.Load() != 0
	if supervised {
		// Probe expired breakers before the snapshot load so a
		// re-admitted compiled form is visible to this whole call.
		k.breakerTick(eid)
	}
	env := k.statePool.Get().(*packetEnv)
	defer k.statePool.Put(env)
	defer env.releasePacket()
	profiling := k.profiling.Load()

	// Pin an epoch and load the snapshot: the call's entire view of the
	// filter set, pre-sorted by owner. The pin keeps a concurrently
	// retired snapshot (and its compiled programs) alive until the
	// call — result shaping included — finishes.
	rec := k.epochs.pin(int(env.shard))
	defer rec.unpin()
	slots := k.table.Load().slots

	// Per-filter state lives in pooled arrays parallel to the
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
	for i := range slots {
		cycles[i] = 0
		accepts[i] = 0
		runs[i] = 0
		if profiling && slots[i].f.prof != nil && slots[i].c != nil {
			// Compiled profiling: one pooled BlockProfile accumulates
			// the whole call; the flush expands and merges it once.
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
	// hot loop and reads the clock once per call (t0 here, the end in
	// observeRuns): per-run latency is attributed from cycles at flush,
	// so no (packet, filter) pair pays a clock read or a shared atomic.
	timed := tel != nil
	var own []*ownerTel
	var rc []uint32
	var t0 time.Time
	if timed {
		own = env.ownerTels(tel, slots)
		if n := len(pkts) * len(slots); cap(env.runCycles) < n {
			env.runCycles = make([]uint32, 0, n)
		}
		rc = env.runCycles[:0]
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
	// runs. A single packet has nothing to overlap with, so it skips
	// the sweep. Under profiling the sweep also touches each unaligned
	// packet's final byte: eager tail materialization (below) will read
	// that line, and overlapping its miss here keeps it off the
	// per-packet critical path. The sum lands in the pooled environment
	// so the compiler cannot eliminate the loads.
	if len(pkts) > 1 {
		var sink byte
		for _, p := range pkts {
			if len(p) > 0 {
				sink += p[0]
				if profiling && len(p)&7 != 0 {
					sink += p[len(p)-1]
				}
			}
		}
		env.prefetchSink = sink
	}

	if timed {
		t0 = time.Now()
	}

	var fault error
	var faultSlot int
dispatch:
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
				// A validated extension cannot fault when the kernel
				// meets the precondition; if it does, the kernel is
				// broken.
				fault, faultSlot = err, si
				break dispatch
			}
			cycles[si] += res.Cycles
			totalCycles += res.Cycles
			if res.Ret != 0 {
				aidx = append(aidx, uint32(si))
				accepts[si]++
			}
		}
		offs[pi+1] = int32(len(aidx))
		delivered++
	}
	env.aidx = aidx[:0]

	if fault != nil {
		owner := slots[faultSlot].owner
		kind := dispatchFaultKind(fault)
		k.flight(kind, owner, fault.Error(), eid)
		k.breakerFault(owner, kind, eid)
	}
	// Flush: one add per shard counter and one per filter that did
	// anything, for the whole call.
	sh := &k.stats.shards[env.shard]
	sh.packets.Add(delivered)
	sh.cycles.Add(totalCycles)
	tel.packetBatch(delivered)
	for i := range slots {
		if accepts[i] != 0 {
			slots[i].f.accepts.add(int(env.shard), accepts[i])
		}
		if bps[i] != nil {
			// One expansion + atomic merge per filter per call; the
			// pooled environment must not pin the scratch.
			slots[i].f.prof.flushBlocks(bps[i], runs[i])
			bps[i] = nil
		}
	}
	if timed {
		for i := range slots {
			own[i].attribute(cycles[i], accepts[i])
		}
		env.observeRuns(own, rc, t0, eid)
	}
	if fault != nil {
		span.End(fault)
		return nil, fmt.Errorf("kernel: validated filter %q faulted: %w", slots[faultSlot].owner, fault)
	}
	if supervised {
		// The whole call ran fault-free: one clean observation per
		// filter (probation progress is per delivery, not per packet).
		k.breakerClean(slots, eid)
	}
	span.End(nil)

	if len(aidx) == 0 {
		return nil, nil
	}
	names := make([]string, len(aidx))
	for i, si := range aidx {
		names[i] = slots[si].owner
	}
	for pi := range rows {
		if lo, hi := offs[pi], offs[pi+1]; hi > lo {
			rows[pi] = names[lo:hi:hi]
		}
	}
	return names, nil
}
