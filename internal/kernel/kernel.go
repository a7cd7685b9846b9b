// Package kernel simulates the code consumer of Figure 1 as a running
// system: a SPIN-style extensible kernel that publishes safety
// policies, validates and installs PCC binaries from untrusted
// processes, and dispatches events — network packets to installed
// filters, resource-table invocations to installed handlers — all with
// zero run-time checking of the extensions.
//
// It is the glue the paper's two services (§2 resource access, §3
// packet filtering) would live in, and exists so the examples and
// tests can exercise realistic install/dispatch/uninstall lifecycles,
// including the accounting (validation cost, per-extension cycles)
// that Figure 9 is about.
//
// Installation is a two-stage pipeline (pipeline.go): an expensive
// validation stage that runs lock-free (memoized by the proof cache,
// cache.go) and a commit whose short sections run under the kernel's
// writer mutex, with any journal fsync between them, outside it
// (store.go). Dispatch takes NO lock at all: the installed-filter set is
// published as an immutable snapshot behind an atomic pointer
// (table.go), deliveries pin an epoch and load it once (epoch.go),
// and the hot counters are sharded per dispatch environment
// (shard.go) — so packet delivery never waits, not even for an
// install's commit section. See DESIGN.md, "Concurrency model".
package kernel

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	pcc "repro"
	"repro/internal/alpha"
	"repro/internal/machine"
	"repro/internal/pktgen"
	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Stats is an approximate, lock-free snapshot of the kernel
// accounting (see the Stats method for the exact contract): each field
// is aggregated from atomic counters at scrape time, but the snapshot
// as a whole is not a consistent cut while installs or deliveries are
// in flight. For exact cross-counter invariants, quiesce the kernel
// first; for stage-level latency attribution, attach a
// telemetry.Recorder (SetRecorder) instead of polling Stats.
type Stats struct {
	// Validations and Rejections count install attempts.
	Validations int
	Rejections  int
	// ValidationMicros is wall-clock spent in actual proof checking
	// (cache hits contribute nothing — that is the point), so startup
	// and per-packet costs are in one currency (how Figure 9 plots
	// them).
	ValidationMicros float64
	// Packets delivered and per-owner accepts.
	Packets int
	// ExtensionCycles is total simulated time spent inside extensions.
	ExtensionCycles int64

	// Proof-cache accounting: a hit means an install skipped VC
	// generation and LF checking entirely.
	CacheHits      int
	CacheMisses    int
	CacheEvictions int
	// BatchInstalls counts InstallFilterBatch calls; QueueWaitMicros is
	// the cumulative time batch requests waited for a validator worker.
	BatchInstalls   int
	QueueWaitMicros float64
}

// counters is the lock-free backing store for Stats (cache counters
// live in the proofCache). The install-side counters are single
// atomics — installs are not the hot path; the dispatch-side packet
// and cycle counters are sharded per dispatch environment (shard.go)
// and summed at scrape time.
type counters struct {
	validations     atomic.Int64
	rejections      atomic.Int64
	validationNanos atomic.Int64
	batchInstalls   atomic.Int64
	queueWaitNanos  atomic.Int64
	shards          []dispatchShard
}

// packets sums the sharded delivery counter.
func (c *counters) packets() int64 {
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].packets.Load()
	}
	return sum
}

// extensionCycles sums the sharded cycle counter.
func (c *counters) extensionCycles() int64 {
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].cycles.Load()
	}
	return sum
}

// installed is one live packet filter. Immutable once published in a
// filterTable snapshot: retrofits (SetBackend, SetProfiling) replace
// the struct rather than mutating it, and the replaced one is retired
// through the epoch domain. The accepts counter is shared with the
// snapshot's persistent per-owner table so accounting survives
// uninstall/reinstall. prof is the cycle-attribution accumulator,
// non-nil only once profiling has been enabled (profile.go). compiled
// is the threaded-code form, non-nil only when the filter was
// installed under (or retrofitted to) BackendCompiled (backend.go).
type installed struct {
	ext      *pcc.Extension
	accepts  *ownerCounter
	prof     *filterProfile
	compiled *machine.Compiled
}

// Kernel is a simulated extensible kernel.
type Kernel struct {
	// mu guards the control plane: filter-table publication (writers
	// serialize their copy-on-write builds), handler/table maps,
	// budget, negotiation and the commit turns. Dispatch NEVER takes
	// it — deliveries read the table snapshot lock-free. Validation
	// never takes it either (it reads the negotiated policies through
	// an atomic pointer), and no commit holds it across a journal
	// fsync.
	mu sync.RWMutex
	// Commit turns (commit in store.go): each journaled commit takes
	// turnNext when it writes its record, and publishes once turnDone
	// reaches it, so the table changes in journal order. turnCond, on
	// mu, is broadcast when turnDone advances.
	turnNext, turnDone uint64
	turnCond           sync.Cond

	filterPolicy   *policy.Policy
	resourcePolicy *policy.Policy
	// Cache keyers memoize the policy-side fingerprints, so keying a
	// binary costs one SHA-256 over its bytes.
	filterKeyer   *pcc.Keyer
	resourceKeyer *pcc.Keyer

	// table is the published installed-filter snapshot (table.go);
	// epochs is the grace-period domain that defers freeing retired
	// snapshots and filters past in-flight deliveries (epoch.go).
	table  atomic.Pointer[filterTable]
	epochs *epochs

	handlers map[int]*pcc.Extension // pid -> resource-access handler
	tables   map[int]*machine.Region
	budget   CycleBudget
	// negotiated holds the policies accepted by NegotiateFilterPolicy,
	// in negotiation order, each with its keyer. The slice is immutable
	// once published: a negotiation stores a new one under mu, and
	// validation loads it without a lock.
	negotiated atomic.Pointer[[]negotiatedPolicy]

	cache *proofCache
	stats counters
	// envSeq assigns counter shards to dispatch environments
	// round-robin; shardMask is len(stats.shards)-1.
	envSeq    atomic.Uint32
	shardMask uint32

	// events allocates the kernel's correlation EventIDs: one per
	// negotiate, install attempt, handler install, uninstall, config
	// change, packet delivery, and dispatch batch. Spans, audit
	// records, and flight events produced by the same operation all
	// carry the same EventID, which is what /debug/timeline joins on.
	// Tenant-scoped: a Registry seeds each kernel with a disjoint base
	// (SeedEventBase) so IDs identify their tenant.
	events atomic.Uint64
	// tel is the optional telemetry sink (telemetry.go); nil means
	// every instrumentation point is a no-op costing one atomic load.
	tel atomic.Pointer[telem]
	// audit is the optional structured audit sink (audit.go).
	audit atomic.Pointer[auditor]
	// profiling selects the profiled dispatch path (profile.go).
	profiling atomic.Bool
	// backend is the default execution backend (backend.go), read on
	// install commits; dispatch never consults it — each filter slot
	// carries its own compiled form or not.
	backend atomic.Int32
	// Adversarial-hardening configuration (robust.go): validation
	// resource budgets and admission gate. Both nil by default.
	limits atomic.Pointer[pcc.Limits]
	admit  atomic.Pointer[admitGate]
	// wal is the optional durability store (store.go in this package;
	// the on-disk format lives in internal/store). When attached,
	// install/uninstall/retrofit commits journal through it before they
	// publish — an acked install is on disk. nil (the default) keeps the
	// kernel purely in-memory.
	wal atomic.Pointer[store.Store]
	// Per-owner supervision (supervise.go): the circuit breaker's and
	// quarantine's configs (nil: disabled, the default) and one record
	// per owner, all guarded by supMu. brkArmed counts armed breakers;
	// it is dispatch's lock-free gate, which consults the breaker only
	// while it is nonzero. now is the clock every supervision decision
	// reads: time.Now, unless a test injects its own.
	supMu    sync.Mutex
	sup      map[string]*supRecord
	brkCfg   *BreakerConfig
	quarCfg  *QuarantineConfig
	brkArmed atomic.Int64
	now      func() time.Time
	// statePool recycles packet-delivery machine states so dispatch
	// does not allocate a fresh memory image per packet per filter.
	statePool sync.Pool
}

// New creates a kernel publishing the standard policies, with a proof
// cache of DefaultCacheSize entries.
func New() *Kernel { return NewWithCacheSize(DefaultCacheSize) }

// NewWithCacheSize creates a kernel whose proof cache holds up to size
// validated extensions; size <= 0 disables memoization (every install
// re-validates), which the latency benchmarks use to model an
// all-cold workload.
func NewWithCacheSize(size int) *Kernel {
	k := &Kernel{
		filterPolicy:   policy.PacketFilter(),
		resourcePolicy: policy.ResourceAccess(),
		handlers:       map[int]*pcc.Extension{},
		tables:         map[int]*machine.Region{},
		cache:          newProofCache(size),
		epochs:         newEpochs(),
		sup:            map[string]*supRecord{},
		now:            time.Now,
	}
	k.table.Store(newFilterTable())
	k.turnCond.L = &k.mu
	n := numShards()
	k.stats.shards = make([]dispatchShard, n)
	k.shardMask = uint32(n - 1)
	k.filterKeyer = pcc.NewKeyer(k.filterPolicy)
	k.resourceKeyer = pcc.NewKeyer(k.resourcePolicy)
	k.statePool.New = func() any {
		e := newPacketEnv()
		e.shard = k.envSeq.Add(1) & k.shardMask
		return e
	}
	// A pool's first use registers it under the runtime's global pool
	// lock; doing that here keeps concurrent first deliveries from
	// serializing on it.
	k.statePool.Put(k.statePool.Get())
	return k
}

// nextEvent allocates the correlation EventID for one kernel
// operation, or 0 when no observer — telemetry recorder or audit
// sink — is attached, so the unobserved path pays the
// loads it already paid and no shared-counter write. tel is the
// already-loaded telemetry bundle (callers on instrumented paths load
// it first).
func (k *Kernel) nextEvent(tel *telem) uint64 {
	if tel == nil && k.audit.Load() == nil {
		return 0
	}
	return k.events.Add(1)
}

// SeedEventBase sets the starting point of the kernel's EventID
// counter. A multi-tenant registry seeds each kernel with a disjoint
// base so an EventID identifies its tenant; call before the kernel
// observes traffic.
func (k *Kernel) SeedEventBase(base uint64) { k.events.Store(base) }

// FilterPolicy returns the published packet-filter policy (Figure 1:
// the consumer "defines and publicizes a safety policy").
func (k *Kernel) FilterPolicy() *policy.Policy { return k.filterPolicy }

// ResourcePolicy returns the published resource-access policy.
func (k *Kernel) ResourcePolicy() *policy.Policy { return k.resourcePolicy }

// CycleBudget is the per-packet worst-case cycle budget the kernel
// enforces at install time (the §2.1 "control over resource usage"
// policy dimension). Zero disables the check.
type CycleBudget int64

// SetCycleBudget configures the per-packet budget for subsequently
// installed filters.
func (k *Kernel) SetCycleBudget(b CycleBudget) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.budget = b
}

// negotiatedPolicy is one policy accepted by NegotiateFilterPolicy,
// with its keyer.
type negotiatedPolicy struct {
	pol   *policy.Policy
	keyer *pcc.Keyer
}

// NegotiateFilterPolicy implements the §4 protocol at the kernel
// boundary: a producer proposes a policy; the kernel accepts it —
// and from then on validates binaries naming it — only after proving
// that its own packet-filter guarantees cover the proposal.
func (k *Kernel) NegotiateFilterPolicy(proposed *policy.Policy) error {
	tel := k.tel.Load()
	eid := k.nextEvent(tel)
	span := tel.span(telemetry.StageNegotiate, "", proposed.Name, eid)
	aud := k.audit.Load()
	if err := pcc.NegotiatePolicy(k.filterPolicy, proposed); err != nil {
		aud.negotiate(proposed, nil, eid, err)
		span.End(err)
		return err
	}
	ky := pcc.NewKeyer(proposed)
	k.mu.Lock()
	defer k.mu.Unlock()
	// Copy on write: a policy negotiated again under its name replaces
	// the old one in place, a new name appends.
	var next []negotiatedPolicy
	if cur := k.negotiated.Load(); cur != nil {
		next = slices.Clone(*cur)
	}
	i := slices.IndexFunc(next, func(n negotiatedPolicy) bool { return n.pol.Name == proposed.Name })
	if i < 0 {
		next = append(next, negotiatedPolicy{proposed, ky})
	} else {
		next[i] = negotiatedPolicy{proposed, ky}
	}
	k.negotiated.Store(&next)
	aud.negotiate(proposed, ky, eid, nil)
	span.End(nil)
	return nil
}

// UninstallFilter removes an owner's filter and forgets its breaker
// state and its pcc_breaker_state series: a gone filter has no
// dispatch to supervise. The owner's quarantine strikes stay. The
// removed filter and the superseded snapshot are retired, not freed:
// an in-flight delivery that loaded the old snapshot finishes against
// it.
// With a store attached the removal is journaled before it is
// published, same write-ahead discipline as installs; a failed append
// aborts the uninstall (the filter stays installed) so the disk never
// disagrees with an acked removal.
func (k *Kernel) UninstallFilter(owner string) error {
	err := k.uninstall(owner)
	if err == nil {
		k.forgetBreaker(owner)
		k.tel.Load().dropBreakerState(owner)
	}
	return err
}

// errNotInstalled stops the commit of an uninstall whose owner has no
// filter: there is nothing to journal or publish.
var errNotInstalled = errors.New("kernel: no filter installed")

// uninstall is UninstallFilter without the breaker bookkeeping, for the
// breaker's own escalation, which keeps a terminal record.
func (k *Kernel) uninstall(owner string) error {
	var eid uint64
	err := k.commit(&store.Record{Kind: store.KindUninstall, Owner: owner}, func() error {
		if _, ok := k.table.Load().index[owner]; !ok {
			return errNotInstalled
		}
		eid = k.nextEvent(k.tel.Load())
		return nil
	}, func() {
		k.audit.Load().uninstall(owner, eid)
		// An uninstall of the same owner earlier in the journal may
		// have removed the filter since the check above.
		if nt, removed := k.table.Load().withoutFilter(owner); removed != nil {
			k.publishLocked(nt, removed)
			k.tel.Load().setFilters(len(nt.slots))
		}
	})
	if err == errNotInstalled {
		return nil
	}
	if err != nil {
		k.audit.Load().storeError("uninstall", owner, err, eid)
		return fmt.Errorf("kernel: uninstall of %q not journaled: %w", owner, err)
	}
	return nil
}

// Owners lists owners with installed filters, sorted. Lock-free: it
// reads the published snapshot, whose slots are already sorted.
func (k *Kernel) Owners() []string {
	rec := k.epochs.pin(0)
	defer rec.unpin()
	t := k.table.Load()
	out := make([]string, len(t.slots))
	for i := range t.slots {
		out[i] = t.slots[i].owner
	}
	return out
}

// packetBase/scratchBase lay out the per-delivery address space; a
// pooled packet region may grow up to the gap between them
// (maxPooledPacket) without overlapping scratch.
const (
	packetBase      = 0x10000
	scratchBase     = 0x20000
	maxPooledPacket = scratchBase - packetBase
)

// dispatchFuel is the per-filter step budget on the dispatch path. A
// validated filter never gets near it; it is the kernel's last-resort
// bound should validation ever be wrong about termination.
const dispatchFuel = 1 << 20

// packetEnv is a reusable delivery environment: one memory image
// (packet + scratch regions) and one machine state, recycled through
// the kernel's statePool so dispatch allocates nothing per packet.
// dirtyScratch tracks whether the last run could have written the
// scratch region: compiled filters report store-freedom statically
// (machine.Compiled.WritesMemory), and a store-free run lets the next
// reset skip the scratch wipe.
type packetEnv struct {
	state        machine.State
	pkt          *machine.Region
	tail         *machine.Region
	scratch      *machine.Region
	dirtyScratch bool
	// tailSrc, when non-nil, is the aliased packet whose unaligned
	// final word has not been copied into the tail region yet. The
	// copy is deferred until a filter actually touches the tail (see
	// materializeTail): filters read packet headers, so eagerly
	// copying the last few bytes would drag the packet's final cache
	// line in from memory on every delivery for bytes almost never
	// read.
	tailSrc []byte
	// shard is the environment's assigned slot in the kernel's sharded
	// dispatch counters (shard.go), fixed at creation. sync.Pool's
	// per-P caching gives the assignment natural processor affinity.
	shard uint32
	// Pooled per-call dispatch scratch (batch.go: owner offsets,
	// accepting-slot indices, per-filter accumulators parallel to the
	// snapshot's slots, and the prefetch sweep's sink), so a delivery
	// allocates only its result.
	offs         []int32
	aidx         []uint32
	prefetchSink byte
	cycles       []int64
	accepts      []int64
	runs         []int64
	bps          []*machine.BlockProfile
	// Observed-delivery scratch (telemetry.go): each slot's resolved
	// instruments, every run's simulated cycles in dispatch order, and
	// during the flush one owner's local latency-bucket counts and the
	// bucket bounds converted to cycles.
	own       []*ownerTel
	runCycles []uint32
	latCounts []int64
	latLimits []uint64
}

func newPacketEnv() *packetEnv {
	mem := machine.NewMemory()
	// The packet region aliases each delivered packet (setPacketAlias)
	// and owns no storage of its own.
	pkt := machine.NewRegion("packet", packetBase, 0, false)
	// The tail region is empty (matching nothing) except during
	// zero-copy dispatch of a packet whose length is not a multiple
	// of 8; an empty region never overlaps anything.
	tail := machine.NewRegion("packet-tail", packetBase, 0, false)
	scratch := machine.NewRegion("scratch", scratchBase, policy.ScratchLen, true)
	mem.MustAddRegion(pkt)
	mem.MustAddRegion(tail)
	mem.MustAddRegion(scratch)
	return &packetEnv{state: machine.State{Mem: mem}, pkt: pkt, tail: tail, scratch: scratch}
}

// releasePacket drops any zero-copy alias so a pooled environment
// never pins a caller's packet buffer while idle in the pool.
func (e *packetEnv) releasePacket() {
	e.pkt.AliasBytes(nil)
	e.tail.Clear()
	e.tailSrc = nil
}

// setPacketAlias maps the packet region directly onto the caller's
// buffer — no copy — leaving only an unaligned final word (at most 7
// bytes plus zero padding) to copy into the tail region. The visible
// address space is byte-identical to an eager copy (packetState's
// layout): same words at the same addresses, zero padding to the word
// boundary, unmapped beyond.
// The caller's buffer must stay unmodified for the duration of the
// run; the packet and tail regions are read-only, so validated filters
// cannot write through the alias.
func (e *packetEnv) setPacketAlias(data []byte) {
	floor := len(data) &^ 7
	e.pkt.AliasBytes(data[:floor])
	e.tail.Base = uint64(packetBase) + uint64(floor)
	e.tail.Clear()
	if len(data)-floor > 0 {
		e.tailSrc = data
	} else {
		e.tailSrc = nil
	}
}

// materializeTail copies the pending unaligned final word into the
// tail region, making the address space byte-identical to an eager
// copy. Called when a filter faults on the tail word (see
// tailFault); after it runs, the retried filter — and every later
// filter on the same packet — sees the mapped, zero-padded tail.
func (e *packetEnv) materializeTail() {
	src := e.tailSrc
	floor := len(src) &^ 7
	e.tail.Resize(len(src) - floor)
	// At most 7 bytes plus zero padding into the region's one word: an
	// explicit byte loop beats the general SetBytes (memmove + bounds
	// machinery) on the profiled dispatch path, where every unaligned
	// packet materializes its tail eagerly.
	dst := e.tail.Bytes()
	tb := src[floor:]
	i := 0
	for ; i < len(tb); i++ {
		dst[i] = tb[i]
	}
	for ; i < len(dst); i++ {
		dst[i] = 0
	}
	e.tailSrc = nil
}

// tailFault reports whether err is a fault that only happened because
// the tail word has not been materialized yet: an unmapped-address
// fault inside the tail region's one-word window while a copy is
// pending. Every other fault — unaligned access anywhere, any access
// past the padded length, a write that would hit the read-only tail —
// produces the same error the eager-copy layout would have.
func (e *packetEnv) tailFault(err error) bool {
	if e.tailSrc == nil {
		return false
	}
	var mf *machine.MemFault
	if !errors.As(err, &mf) {
		return false
	}
	return mf.Kind == machine.FaultUnmapped && mf.Addr >= e.tail.Base && mf.Addr < e.tail.Base+8
}

// reset re-establishes the packet-filter precondition between filters:
// zeroed registers, packet pointer/length in the convention registers.
// Scratch hygiene is the caller's half of the contract: dispatch loops
// check dirtyScratch and call wipeScratch before each reset, so each
// filter observes the same fresh state a dedicated allocation would
// have given it (scratch contents must not leak between filters).
// Keeping that branch out of reset leaves it inside the inlining
// budget of the dispatch loops. The packet region itself is read-only
// to the extension and is loaded once per delivery, not per filter.
func (e *packetEnv) reset(pktLen int) {
	e.state.R = [alpha.NumRegs]uint64{
		policy.RegPacket:  packetBase,
		policy.RegLen:     uint64(pktLen),
		policy.RegScratch: scratchBase,
	}
	e.state.PC = 0
}

// presetRegs is the register set reset establishes with non-stale
// values: the zeroed return register and the three convention
// registers. A filter whose LiveInRegs set is inside presetRegs
// provably cannot observe any other register, so dispatch may use
// resetLite for it.
const presetRegs = 1<<0 | 1<<policy.RegPacket | 1<<policy.RegLen | 1<<policy.RegScratch

// resetLite is reset for filters proven (by install-time liveness
// analysis, machine.Compiled.LiveInRegs) to read only the preset
// registers before writing anything else: it skips the full register
// wipe, writing just the four presets. Observable behavior is
// identical to reset for such filters — the skipped registers' stale
// values are provably dead. Like reset, it relies on the caller for
// the dirty-scratch wipe.
func (e *packetEnv) resetLite(pktLen int) {
	e.state.R[0] = 0
	e.state.R[policy.RegPacket] = packetBase
	e.state.R[policy.RegLen] = uint64(pktLen)
	e.state.R[policy.RegScratch] = scratchBase
	e.state.PC = 0
}

// wipeScratch zeroes the scratch region, out of line so the common
// clean-scratch reset stays small enough to inline into the dispatch
// loop. clear zeroes the region as one block, where a byte loop over
// it reloads the region's slice header after every store.
func (e *packetEnv) wipeScratch() {
	clear(e.scratch.Bytes())
	e.dirtyScratch = false
}

// packetState builds a freshly allocated precondition-satisfying
// machine state for one delivery: the fallback for packets too large
// for the pooled layout, and the baseline the state-pool benchmark
// (BenchmarkDeliverPacketState) measures against.
func (k *Kernel) packetState(pkt pktgen.Packet) *machine.State {
	mem := machine.NewMemory()
	pr := machine.NewRegion("packet", packetBase, len(pkt.Data), false)
	pr.SetBytes(pkt.Data)
	mem.MustAddRegion(pr)
	// An oversized packet spills past the pooled layout's scratch base;
	// relocate scratch above the packet end. Filters reach scratch only
	// through R[RegScratch], so its absolute base is free to move.
	sb := uint64(scratchBase)
	if end := uint64(packetBase) + uint64(len(pkt.Data)); end > sb {
		sb = (end + 7) &^ 7
	}
	mem.MustAddRegion(machine.NewRegion("scratch", sb, policy.ScratchLen, true))
	s := &machine.State{Mem: mem}
	s.R[policy.RegPacket] = packetBase
	s.R[policy.RegLen] = uint64(len(pkt.Data))
	s.R[policy.RegScratch] = sb
	return s
}

// Accepts returns the per-owner accept counters (including owners
// whose filter has since been uninstalled). Lock-free: it reads the
// published snapshot's persistent counter table and sums each
// counter's shards; every count is attributed to exactly one shard,
// so nothing is lost across concurrent deliveries or table swaps.
func (k *Kernel) Accepts() map[string]int {
	rec := k.epochs.pin(0)
	defer rec.unpin()
	t := k.table.Load()
	out := make(map[string]int, len(t.accepts))
	for o, c := range t.accepts {
		out[o] = int(c.total())
	}
	return out
}

// CreateTable creates the §2 {tag, data} entry for a process.
func (k *Kernel) CreateTable(pid int, tag, data uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	base := uint64(0x40000 + pid*16)
	r := machine.NewRegion(fmt.Sprintf("table-%d", pid), base, 16, true)
	r.SetWord(0, tag)
	r.SetWord(8, data)
	k.tables[pid] = r
}

// InstallHandler validates and installs a resource-access handler for
// a process through the same validation stage as filters, with the
// resource-access policy as the one candidate: lock-free, memoized by
// the proof cache, and traced when a recorder is attached. Its commit
// is a map assignment; handlers are not quarantined, admission-gated
// or journaled.
func (k *Kernel) InstallHandler(pid int, binary []byte) error {
	eid := k.nextEvent(k.tel.Load())
	slot, va, err := k.validate(context.Background(), "handler", fmt.Sprintf("pid-%d", pid), binary, eid, nil)
	if err != nil {
		err = fmt.Errorf("kernel: handler for pid %d rejected: %w", pid, err)
	} else {
		k.mu.Lock()
		k.handlers[pid] = slot.ext
		k.mu.Unlock()
	}
	return k.settle(va, slot, err)
}

// InvokeHandler runs a process's installed handler on its own table
// entry, per the §2 calling convention (entry address in r0). It holds
// the write lock: handlers mutate their table entry in place.
func (k *Kernel) InvokeHandler(pid int) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	ext, ok := k.handlers[pid]
	if !ok {
		return fmt.Errorf("kernel: pid %d has no handler", pid)
	}
	table, ok := k.tables[pid]
	if !ok {
		return fmt.Errorf("kernel: pid %d has no table entry", pid)
	}
	mem := machine.NewMemory()
	mem.MustAddRegion(table)
	s := &machine.State{Mem: mem}
	s.R[0] = table.Base
	res, err := machine.Interp(ext.Prog, s, machine.Unchecked, &machine.DEC21064, 10000)
	if err != nil {
		return fmt.Errorf("kernel: validated handler for pid %d faulted: %w", pid, err)
	}
	// Handlers run under the write lock (cold path); shard 0 is fine.
	k.stats.shards[0].cycles.Add(res.Cycles)
	return nil
}

// Table returns a process's {tag, data} entry.
func (k *Kernel) Table(pid int) (tag, data uint64, ok bool) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	r, found := k.tables[pid]
	if !found {
		return 0, 0, false
	}
	return r.Word(0), r.Word(8), true
}

// Stats returns a snapshot of the kernel accounting, aggregated on
// scrape: the hot dispatch counters (Packets, ExtensionCycles, and
// the per-owner accepts behind Accepts) are sharded per dispatch
// environment and summed here, so a delivery's increment costs one
// uncontended atomic add and a scrape costs one pass over the shards.
// The aggregation contract: every increment lands in exactly one
// shard, so no increment is ever lost — in particular not across a
// filter-table swap, since the shards live outside the swapped
// snapshot — and each counter is monotone across successive calls
// (each shard is non-decreasing, so the sum is). The snapshot as a
// whole still takes no lock: while installs or deliveries are in
// flight, counters that move together at rest may be momentarily
// inconsistent (e.g. a Validation counted whose hit, miss, or
// rejection is not yet recorded; a Packet counted whose cycles are
// not). Callers wanting exact cross-counter invariants must quiesce
// the kernel first, as the tests do; monitoring readers should treat
// the snapshot as approximate but never regressing.
func (k *Kernel) Stats() Stats {
	hits, misses, evictions := k.cache.counters()
	return Stats{
		Validations:      int(k.stats.validations.Load()),
		Rejections:       int(k.stats.rejections.Load()),
		ValidationMicros: float64(k.stats.validationNanos.Load()) / float64(time.Microsecond),
		Packets:          int(k.stats.packets()),
		ExtensionCycles:  k.stats.extensionCycles(),
		CacheHits:        int(hits),
		CacheMisses:      int(misses),
		CacheEvictions:   int(evictions),
		BatchInstalls:    int(k.stats.batchInstalls.Load()),
		QueueWaitMicros:  float64(k.stats.queueWaitNanos.Load()) / float64(time.Microsecond),
	}
}
