// Telemetry plumbing: the kernel optionally carries a
// *telemetry.Recorder and reports every pipeline stage through it —
// spans for negotiate/validate/commit/dispatch with child spans for
// the validation sub-stages, plus outcome counters and the installed-
// filter gauge. All hooks go through the nil-safe *telem bundle so
// the uninstrumented kernel pays exactly one atomic load and a nil
// check per operation (benchmarked at zero extra allocations on the
// dispatch path).
package kernel

import (
	"math"
	"math/bits"
	"sync"
	"time"

	pcc "repro"
	"repro/internal/telemetry"
)

// Telemetry metric names the kernel exports (the exposition page's
// contract; scripts/verify.sh greps for these).
const (
	MetricInstalled      = "pcc_install_installed_total"
	MetricRejected       = "pcc_install_rejected_total"
	MetricCacheHits      = "pcc_cache_hits_total"
	MetricCacheMisses    = "pcc_cache_misses_total"
	MetricCacheEvictions = "pcc_cache_evictions_total"
	MetricPackets        = "pcc_packets_total"
	MetricFiltersGauge   = "pcc_filters_installed"
	// Per-filter families, labeled by the installing owner (an
	// untrusted string — the exposition escapes it).
	MetricFilterAccepts = "pcc_filter_accepts_total"
	MetricFilterCycles  = "pcc_filter_cycles_total"
	// MetricFilterLatency is the per-owner filter-run latency histogram
	// family (both dispatch entry points; each run's cycles times its
	// delivery's measured ns per cycle, see observeRuns), on the sub-µs
	// log-scale dispatch buckets so tail latency per filter is
	// readable, not one giant first bucket.
	MetricFilterLatency = "pcc_filter_run_seconds"
	// Robustness metrics (robust.go): rejections classified by reason
	// (limit, deadline, panic, proof, quarantine, queue_full) and the
	// count of currently embargoed producers.
	MetricRejects         = "pcc_rejects_total"
	MetricQuarantineGauge = "pcc_quarantined_owners"
	// MetricBreakerState is the per-filter circuit-breaker state gauge
	// family (breaker.go): 0 closed, 1 open (demoted to interpreter),
	// 2 half-open (compiled on probation). Labeled by the owner — an
	// untrusted string the exposition escapes.
	MetricBreakerState = "pcc_breaker_state"
	// Certificate-cost value histograms (raw units, not seconds): the
	// proof's size on the wire in bytes and the generated VC's term
	// size in LF nodes, observed once per full (non-cached) successful
	// validation. This is the baseline proof-size engineering will
	// regress against.
	MetricProofBytes = "pcc_proof_bytes"
	MetricVCNodes    = "pcc_vc_nodes"
	// MetricProofReuse counts validations that skipped the LF check
	// because the policy's keyer had checked the same proof against
	// the same VC under the same limits (pcc.ValidationStats
	// ProofReused).
	MetricProofReuse = "pcc_proof_reuse_total"
)

// certSizeBounds is the bucket ladder for the certificate-cost value
// histograms: a 1-2-5 ladder from 8 to ~1M raw units (bytes or
// nodes), wide enough for a trivial accept proof and a proof bomb on
// the same axis.
var certSizeBounds = telemetry.LogBounds(8, 1<<20)

// telem bundles a recorder with its pre-registered instruments so hot
// paths never take the recorder's registration lock. A nil *telem is
// the disabled state; every method tolerates it.
type telem struct {
	rec            *telemetry.Recorder
	owners         sync.Map // owner -> *ownerTel
	installed      *telemetry.Counter
	rejected       *telemetry.Counter
	cacheHits      *telemetry.Counter
	cacheMisses    *telemetry.Counter
	cacheEvictions *telemetry.Counter
	proofReuse     *telemetry.Counter
	packets        *telemetry.Counter
	filters        *telemetry.Gauge
	quarantined    *telemetry.Gauge
}

func newTelem(rec *telemetry.Recorder) *telem {
	return &telem{
		rec:            rec,
		installed:      rec.Counter(MetricInstalled),
		rejected:       rec.Counter(MetricRejected),
		cacheHits:      rec.Counter(MetricCacheHits),
		cacheMisses:    rec.Counter(MetricCacheMisses),
		cacheEvictions: rec.Counter(MetricCacheEvictions),
		proofReuse:     rec.Counter(MetricProofReuse),
		packets:        rec.Counter(MetricPackets),
		filters:        rec.Gauge(MetricFiltersGauge),
		quarantined:    rec.Gauge(MetricQuarantineGauge),
	}
}

// span opens a root span for a stage, carrying the operation's owner
// and correlation EventID (no-op Span when disabled). Install stages
// pass the owner as detail too: exported spans' detail names the
// install's owner (docs/OBSERVABILITY.md, "Span taxonomy").
func (t *telem) span(stage, owner, detail string, eid uint64) telemetry.Span {
	if t == nil {
		return telemetry.Span{}
	}
	return t.rec.StartSpan(stage, owner, detail, eid)
}

// probe records the cache-probe child span, its verdict as detail, and
// the hit/miss counter.
func (t *telem) probe(parent telemetry.Span, start time.Time, hit bool) {
	if t == nil {
		return
	}
	verdict := "miss"
	ctr := t.cacheMisses
	if hit {
		verdict = "hit"
		ctr = t.cacheHits
	}
	ctr.Inc()
	parent.Record(telemetry.StageCacheProbe, verdict, start, time.Since(start), nil)
}

// validationStages replays pcc.Validate's stage breakdown as child
// spans of the validation span. The stages ran back to back inside
// Validate, so each child starts where the previous one ended. A
// validation that reused a checked proof ran no LF check, so it gets
// no lfcheck child and counts in pcc_proof_reuse_total.
func (t *telem) validationStages(parent telemetry.Span, owner string, start time.Time, st *pcc.ValidationStats) {
	if t == nil {
		return
	}
	if st.ProofReused {
		t.proofReuse.Inc()
	}
	cur := start
	for _, stage := range []struct {
		name string
		dur  time.Duration
	}{
		{telemetry.StageParse, st.Parse},
		{telemetry.StageLFSig, st.SigCheck},
		{telemetry.StageVCGen, st.VCGen},
		{telemetry.StageLFCheck, st.Check},
	} {
		if stage.name == telemetry.StageLFCheck && st.ProofReused {
			break
		}
		parent.Record(stage.name, owner, cur, stage.dur, nil)
		cur = cur.Add(stage.dur)
	}
}

// wcet records the static cost-bound analysis child span.
func (t *telem) wcet(parent telemetry.Span, owner string, start time.Time, err error) {
	if t == nil {
		return
	}
	parent.Record(telemetry.StageWCET, owner, start, time.Since(start), err)
}

// certCost records the certificate-cost value histograms for one full
// (non-cached) successful validation, with the install's EventID as
// the bucket exemplar.
func (t *telem) certCost(st *pcc.ValidationStats, eid uint64) {
	if t == nil || st == nil {
		return
	}
	t.rec.ValueHistogram(MetricProofBytes, certSizeBounds).ObserveValueEID(float64(st.ProofBytes), eid)
	t.rec.ValueHistogram(MetricVCNodes, certSizeBounds).ObserveValueEID(float64(st.VCNodes), eid)
}

// evicted bumps the eviction counter by n.
func (t *telem) evicted(n int64) {
	if t == nil || n == 0 {
		return
	}
	t.cacheEvictions.Add(n)
}

// outcome counts one install attempt's final verdict.
func (t *telem) outcome(ok bool) {
	if t == nil {
		return
	}
	if ok {
		t.installed.Inc()
	} else {
		t.rejected.Inc()
	}
}

// reject classifies one rejection into the pcc_rejects_total family.
// The reason string is kernel-controlled vocabulary, never attacker
// bytes, but the exposition escapes label values regardless.
func (t *telem) reject(reason string) {
	if t == nil || reason == "" {
		return
	}
	t.rec.LabeledCounter(MetricRejects, "reason", reason).Inc()
}

// setBreakerState publishes one filter's breaker-state gauge (0
// closed, 1 open, 2 half-open). Transitions are rare (fault-driven),
// so the registration-lock lookup is fine here.
func (t *telem) setBreakerState(owner string, state int) {
	if t == nil {
		return
	}
	t.rec.LabeledGauge(MetricBreakerState, "filter", owner).Set(int64(state))
}

// dropBreakerState removes an uninstalled filter's breaker-state
// series: a gone filter has no state to publish.
func (t *telem) dropBreakerState(owner string) {
	if t == nil {
		return
	}
	t.rec.DeleteLabeledGauge(MetricBreakerState, owner)
}

// setQuarantined publishes the embargoed-producer count gauge.
func (t *telem) setQuarantined(n int) {
	if t == nil {
		return
	}
	t.quarantined.Set(int64(n))
}

// packetBatch counts a whole delivered batch in one add.
func (t *telem) packetBatch(n int64) {
	if t == nil || n == 0 {
		return
	}
	t.packets.Add(n)
}

// ownerTel is one owner's per-filter instruments: the dispatch-latency
// histogram and the cycles and accepts counters, resolved together so
// a delivery pays one lookup per filter instead of three.
type ownerTel struct {
	hist    *telemetry.Histogram
	cycles  *telemetry.Counter
	accepts *telemetry.Counter
}

// owner returns the owner's instruments, nil when telemetry is off.
// After an owner's first delivery this is one lock-free map hit; the
// recorder's registration lock is taken only on first use.
func (t *telem) owner(name string) *ownerTel {
	if t == nil {
		return nil
	}
	if v, ok := t.owners.Load(name); ok {
		return v.(*ownerTel)
	}
	v, _ := t.owners.LoadOrStore(name, &ownerTel{
		hist:    t.rec.LabeledHistogram(MetricFilterLatency, "filter", name, telemetry.DispatchLatencyBounds),
		cycles:  t.rec.LabeledCounter(MetricFilterCycles, "filter", name),
		accepts: t.rec.LabeledCounter(MetricFilterAccepts, "filter", name),
	})
	return v.(*ownerTel)
}

// attribute charges one delivery's worth of a filter's runs (cycles
// and accepts summed over the delivery) to its counters.
func (o *ownerTel) attribute(cycles, accepts int64) {
	if o == nil {
		return
	}
	if cycles != 0 {
		o.cycles.Add(cycles)
	}
	if accepts != 0 {
		o.accepts.Add(accepts)
	}
}

// ownerTels resolves each slot's instruments into the environment's
// pooled per-slot array (all nil when telemetry is off).
func (e *packetEnv) ownerTels(t *telem, slots []tableSlot) []*ownerTel {
	if cap(e.own) < len(slots) {
		e.own = make([]*ownerTel, len(slots))
	}
	own := e.own[:len(slots)]
	for i := range slots {
		own[i] = t.owner(slots[i].owner)
	}
	return own
}

// observeRuns folds one delivery's filter runs into the per-owner
// latency histograms. runs holds every run's simulated cycles in
// dispatch order — packet-major, one entry per slot of own per packet,
// the last packet possibly cut short by a fault — and t0 is the clock
// read taken just before the first run. The delivery's wall time
// t0..now is spread over the runs in proportion to their cycles: one
// run's latency is its cycles times the delivery's measured host ns
// per simulated cycle. Counts are exact (one per run), each owner's sum
// is its cycle share of the wall time, rounded so the owners' sums add
// up to the wall time exactly, and every bucket a run lands in takes
// eid as its exemplar. It returns the pooled scratch to e and drops
// the instrument pointers so the idle environment pins nothing.
func (e *packetEnv) observeRuns(own []*ownerTel, runs []uint32, t0 time.Time, eid uint64) {
	end := time.Now()
	wall := uint64(max(end.Sub(t0), 0))
	e.runCycles = runs[:0]
	defer clear(own)
	if len(own) == 0 || len(runs) == 0 {
		return
	}
	// A run is charged at least one cycle so the apportioning never
	// divides by zero (a fault can retire nothing).
	var total uint64
	for _, c := range runs {
		total += uint64(max(c, 1))
	}
	// Every owner's histogram belongs to one family, so all share its
	// bounds; converted to cycles at this delivery's measured rate, a
	// run of c cycles lands in the first bucket with c <= limits[b].
	// The +Inf bucket's limit admits everything, and most runs land in
	// the first few buckets, so a linear integer scan finds the bucket.
	bounds := own[0].hist.Bounds()
	nb := len(bounds) + 1
	if cap(e.latCounts) < nb {
		e.latCounts = make([]int64, nb)
		e.latLimits = make([]uint64, nb)
	}
	counts, limits := e.latCounts[:nb], e.latLimits[:nb]
	cyclesPerSec := float64(total) * 1e9 / float64(wall) // +Inf when wall is 0
	for b, ub := range bounds {
		limits[b] = math.MaxUint64
		if x := ub * cyclesPerSec; x < 1<<63 {
			limits[b] = uint64(x)
		}
	}
	limits[nb-1] = math.MaxUint64
	var cum, lo uint64
	for si, o := range own {
		clear(counts)
		var sum uint64
		for i := si; i < len(runs); i += len(own) {
			c := uint64(max(runs[i], 1))
			b := 0
			for c > limits[b] {
				b++
			}
			counts[b]++
			sum += c
		}
		if sum == 0 {
			continue // the delivery faulted before this filter ran
		}
		cum += sum
		hi := mulDiv(wall, cum, total)
		o.hist.ObserveBuckets(counts, time.Duration(hi-lo), eid, end.UnixNano())
		lo = hi
	}
}

// mulDiv returns a*b/c without intermediate overflow; b <= c.
func mulDiv(a, b, c uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	q, _ := bits.Div64(hi, lo, c)
	return q
}

// setFilters publishes the installed-filter count gauge.
func (t *telem) setFilters(n int) {
	if t == nil {
		return
	}
	t.filters.Set(int64(n))
}

// SetRecorder attaches a telemetry recorder to the kernel (nil
// detaches). The swap is atomic, so it is safe while installs and
// deliveries are in flight; operations observe either the old or the
// new recorder. With no recorder attached the instrumented paths cost
// one atomic load + nil check and allocate nothing.
func (k *Kernel) SetRecorder(rec *telemetry.Recorder) {
	if rec == nil {
		k.tel.Store(nil)
		return
	}
	k.tel.Store(newTelem(rec))
}

// Recorder returns the attached telemetry recorder, or nil.
func (k *Kernel) Recorder() *telemetry.Recorder {
	t := k.tel.Load()
	if t == nil {
		return nil
	}
	return t.rec
}
