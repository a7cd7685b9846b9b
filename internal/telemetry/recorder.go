// Package telemetry is the observability layer of the PCC kernel: a
// span tracer over the install/dispatch pipeline, plus counters,
// gauges, and latency histograms with a Prometheus-style text
// exposition and a JSON snapshot. The paper's argument is a cost
// breakdown — one-time validation amortized against zero-check
// dispatch — and this package is how the running system exhibits that
// breakdown stage by stage: where an install's microseconds went
// (parse vs. VC generation vs. LF proof checking vs. WCET analysis),
// whether the proof cache absorbed it, and what dispatch latency the
// extensions see.
//
// Everything on the recording path is lock-free (atomics only) and
// every entry point tolerates a nil *Recorder, so instrumented code
// needs no "is telemetry on?" branches and the disabled path costs a
// nil check.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Pipeline stage names. Spans and stage histograms
// (pcc_stage_<name>_seconds) use these; the taxonomy is documented in
// docs/OBSERVABILITY.md.
const (
	// StageNegotiate is a §4 policy negotiation at the kernel boundary.
	StageNegotiate = "negotiate"
	// StageValidate is a whole install-time validation attempt (cache
	// probe included); parent of the child stages below.
	StageValidate = "validate"
	// StageCacheProbe is the proof-cache lookup within a validation.
	StageCacheProbe = "cacheprobe"
	// StageParse is PCC binary unmarshaling + native code decoding.
	StageParse = "parse"
	// StageVCGen is safety-predicate (verification condition)
	// generation from the decoded code.
	StageVCGen = "vcgen"
	// StageLFSig is LF signature construction and the rule-set
	// fingerprint comparison.
	StageLFSig = "lfsig"
	// StageLFCheck is LF typechecking of the enclosed proof.
	StageLFCheck = "lfcheck"
	// StageWCET is the static worst-case cycle-bound analysis.
	StageWCET = "wcet"
	// StageCommit is the short serialized install-commit section.
	StageCommit = "commit"
	// StageDispatch is one DeliverPacket pass over installed filters.
	StageDispatch = "dispatch"
	// StageDispatchBatch is one DeliverPackets pass: a whole packet
	// vector through every installed filter under a single span.
	StageDispatchBatch = "dispatch_batch"
	// StageConfig is an operator posture change (SetBackend,
	// SetProfiling, SetLimits, SetQuarantine). Config changes emit a
	// span so their correlation EventID exists in all three classes of
	// the event log — span, audit, flight.
	StageConfig = "config"
	// StageRecover is one boot-time store recovery pass: snapshot +
	// journal replay with every blob re-run through the full validation
	// pipeline. Individual records emit validate spans; the recover span
	// brackets the whole pass.
	StageRecover = "recover"
)

// Stages lists every built-in pipeline stage, in pipeline order.
var Stages = []string{
	StageNegotiate, StageValidate, StageCacheProbe, StageParse,
	StageVCGen, StageLFSig, StageLFCheck, StageWCET, StageCommit,
	StageDispatch, StageDispatchBatch, StageConfig, StageRecover,
}

// Options configures a Recorder.
type Options struct {
	// Buckets are the stage-histogram bucket bounds in seconds; nil
	// means DefaultLatencyBounds.
	Buckets []float64
	// Window, when non-nil, attaches a sliding window (see window.go)
	// to every counter and histogram the recorder builds, enabling
	// recent rates and windowed quantiles in the snapshot. Nil (the
	// default) keeps the cumulative-only behavior and its cost profile.
	Window *WindowOptions
}

// Recorder is the telemetry sink: one per kernel (or benchmark run).
// The zero value is not usable; build one with New or NewWith. A nil
// *Recorder is a valid no-op sink.
type Recorder struct {
	start time.Time
	log   *Log
	ids   atomic.Uint64

	// stageHists maps each built-in stage to its latency histogram.
	// Built once in NewWith and immutable after, so the span path
	// reads it without a lock.
	stageHists map[string]*Histogram
	bounds     []float64
	winOpts    *WindowOptions

	// Dynamically registered metrics (Counter/Gauge/Histogram lookups
	// by name). The lock guards registration only; the returned
	// instruments are lock-free. Callers on hot paths cache the
	// pointers.
	mu            sync.RWMutex
	counters      map[string]*Counter
	gauges        map[string]*Gauge
	hists         map[string]*Histogram
	labeled       map[string]*labeledFamily
	labeledHists  map[string]*labeledHistFamily
	labeledGauges map[string]*labeledGaugeFamily
}

// New builds a Recorder with default options.
func New() *Recorder { return NewWith(Options{}) }

// NewWith builds a Recorder with the given options.
func NewWith(o Options) *Recorder {
	r := &Recorder{
		start:         time.Now(),
		log:           newLog(spanCapacity, auditCapacity, flightCapacity),
		stageHists:    make(map[string]*Histogram, len(Stages)),
		bounds:        o.Buckets,
		winOpts:       o.Window,
		counters:      map[string]*Counter{},
		gauges:        map[string]*Gauge{},
		hists:         map[string]*Histogram{},
		labeled:       map[string]*labeledFamily{},
		labeledHists:  map[string]*labeledHistFamily{},
		labeledGauges: map[string]*labeledGaugeFamily{},
	}
	for _, s := range Stages {
		b := o.Buckets
		if b == nil && (s == StageDispatch || s == StageDispatchBatch) {
			// Dispatch retires in nanoseconds, not microseconds: without
			// sub-µs buckets every observation lands in the first bucket
			// and the quantiles are fiction. Explicit Buckets still win
			// for all stages.
			b = DispatchLatencyBounds
		}
		r.stageHists[s] = r.newHist(b)
	}
	return r
}

// newHist builds a latency histogram, attaching a sliding window when
// the recorder was configured with one.
func (r *Recorder) newHist(bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	if r.winOpts != nil {
		h.win = newWindow(*r.winOpts, len(h.buckets))
	}
	return h
}

// newCounter builds a counter, attaching a sliding window when the
// recorder was configured with one.
func (r *Recorder) newCounter() *Counter {
	c := &Counter{}
	if r.winOpts != nil {
		c.win = newWindow(*r.winOpts, 0)
	}
	return c
}

// Log returns the recorder's event log: its spans, and the audit
// records and anomalies its kernel records (nil for a nil recorder).
func (r *Recorder) Log() *Log {
	if r == nil {
		return nil
	}
	return r.log
}

// Counter returns the named counter, registering it on first use.
// Returns nil (a valid no-op counter) for a nil recorder.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = r.newCounter()
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, registering it on first use
// with the recorder's bucket bounds. Stage histograms are pre-named
// pcc_stage_<stage>_seconds; use StageHistogram for those.
func (r *Recorder) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = r.newHist(r.bounds)
		r.hists[name] = h
	}
	return h
}

// ValueHistogram returns the named raw-unit histogram (proof bytes, VC
// nodes — bounds in those units, sum the raw total), registering it on
// first use with the given bounds. The first registration fixes the
// bounds; later calls reuse the instrument. Returns nil (a valid no-op
// histogram) for a nil recorder.
func (r *Recorder) ValueHistogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewValueHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// StageHistogram returns the latency histogram for a built-in pipeline
// stage (nil for unknown stages or a nil recorder).
func (r *Recorder) StageHistogram(stage string) *Histogram {
	if r == nil {
		return nil
	}
	return r.stageHists[stage]
}

// Span is an in-progress stage measurement. The zero Span (from a nil
// recorder) is valid: Child returns another zero Span and End does
// nothing, so instrumented code never branches on "is telemetry on".
type Span struct {
	rec    *Recorder
	stage  string
	owner  string
	detail string
	parent uint64
	id     uint64
	event  uint64
	start  time.Time
}

// StartSpan opens a root span for a pipeline stage. owner is the
// filter owner the stage works for ("" when none), detail free-form
// context (e.g. a negotiated policy), and event the kernel-level
// correlation EventID (0 = uncorrelated); children inherit all three.
func (r *Recorder) StartSpan(stage, owner, detail string, event uint64) Span {
	if r == nil {
		return Span{}
	}
	return Span{rec: r, stage: stage, owner: owner, detail: detail, id: r.ids.Add(1), event: event, start: time.Now()}
}

// Child opens a sub-span of s for a nested stage; it inherits s's
// owner, detail and correlation EventID.
func (s Span) Child(stage string) Span {
	if s.rec == nil {
		return Span{}
	}
	return Span{rec: s.rec, stage: stage, owner: s.owner, detail: s.detail, parent: s.id, id: s.rec.ids.Add(1), event: s.event, start: time.Now()}
}

// ID returns the span's identifier (0 for a no-op span).
func (s Span) ID() uint64 { return s.id }

// End completes the span: it appends one span event and observes the
// stage's latency histogram. err, when non-nil, is recorded on the
// event.
func (s Span) End(err error) {
	if s.rec == nil {
		return
	}
	s.rec.finish(s, time.Since(s.start), err)
}

// Record records an externally measured child stage of s — one whose
// duration was clocked by code that does not hold a Recorder (e.g.
// pcc.Validate's stage breakdown). The child inherits s's owner and
// correlation EventID; detail replaces s's.
func (s Span) Record(stage, detail string, start time.Time, dur time.Duration, err error) {
	if s.rec == nil {
		return
	}
	s.rec.finish(Span{rec: s.rec, stage: stage, owner: s.owner, detail: detail, parent: s.id, id: s.rec.ids.Add(1), event: s.event, start: start}, dur, err)
}

// finish is the single sink for completed spans: exactly one span
// event plus one stage-histogram observation, so "sum of stage
// histogram counts == spans appended" is an invariant the tests
// assert. The event is the span path's one allocation.
func (r *Recorder) finish(s Span, dur time.Duration, err error) {
	e := &Event{
		Class:         ClassSpan,
		TimeUnixNanos: s.start.UnixNano(),
		Event:         s.event,
		Stage:         s.stage,
		Owner:         s.owner,
		Detail:        s.detail,
		ID:            s.id,
		Parent:        s.parent,
		StartNanos:    s.start.Sub(r.start).Nanoseconds(),
		DurNanos:      dur.Nanoseconds(),
	}
	if err != nil {
		e.Err = err.Error()
	}
	r.log.spans.add(e)
	if h := r.stageHists[s.stage]; h != nil {
		h.ObserveEID(dur, s.event)
	} else {
		r.Histogram("pcc_stage_"+s.stage+"_seconds").ObserveEID(dur, s.event)
	}
}

// StartTime returns the recorder's creation time — the wall-clock
// origin of every event's StartNanos (zero time for a nil recorder).
func (r *Recorder) StartTime() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.start
}
