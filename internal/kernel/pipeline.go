// The install path: the kernel's trust boundary. The paper's consumer
// makes its whole safety decision here, once: it validates the proof,
// then runs the code with no run-time checks. Every install — a filter
// alone or in a batch, a handler, a journal record replayed by
// Recover — goes through the same two stages:
//
//   - validate: the lock-free validation stage. Early rejections (a
//     shed admission, an expired context, an embargoed owner), the
//     proof-cache probe, full PCC validation on a miss, the static WCET
//     bound, and the cache put.
//   - commit: the short serial section. Filters take commitFilter
//     (backend compile, budget check, journal append, snapshot
//     publication); handlers take a map assignment. Both end in settle,
//     which counts the verdict and writes the one audit record.
//
// Proof checking is CPU-bound and embarrassingly parallel — each
// validation reads only the published policy and its own binary — so
// a batch fans its validations across GOMAXPROCS workers and
// serializes only the commits, which run in request order: a batch
// costs max(validation) instead of sum(validation), installs stay
// linearizable, and a dispatch observes each install atomically.
package kernel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	pcc "repro"
	"repro/internal/machine"
	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// InstallRequest names one binary to install for an owner.
type InstallRequest struct {
	Owner  string
	Binary []byte
}

// InstallFilter validates a PCC binary against the packet-filter
// policy and installs it for the owner. Invalid binaries — and, when a
// cycle budget is configured, binaries whose static worst-case cost
// exceeds it — are rejected and counted. Validation runs without the
// kernel lock (and is skipped entirely on a proof-cache hit); only the
// final commit of the validated extension is serialized.
func (k *Kernel) InstallFilter(owner string, binary []byte) error {
	return k.InstallFilterCtx(context.Background(), owner, binary)
}

// InstallFilterCtx is InstallFilter under a context and the kernel's
// configured admission control: an expired or canceled context rejects
// without running the proof checker (mid-check cancellation is honored
// within a bounded number of inference steps), and when an admission
// limit is set, an install arriving with all slots busy sheds
// immediately with a *QueueFullError. Both outcomes are ordinary
// rejections: audited, counted, and classified by reason.
func (k *Kernel) InstallFilterCtx(ctx context.Context, owner string, binary []byte) error {
	var shed error
	if gate := k.admit.Load(); gate != nil {
		if !gate.tryAcquire() {
			shed = &QueueFullError{Limit: gate.limit, RetryAfter: admissionRetryAfter}
		} else {
			defer gate.release()
		}
	}
	return k.installFilters(ctx, []InstallRequest{{owner, binary}}, shed)[0]
}

// InstallFilterBatch validates the requests concurrently and commits
// them in request order; errs[i] is the outcome of reqs[i], exactly
// what InstallFilter would have returned for it. When two requests
// name the same owner, the later one wins, as it would installing
// serially.
func (k *Kernel) InstallFilterBatch(reqs []InstallRequest) []error {
	return k.InstallFilterBatchCtx(context.Background(), reqs)
}

// InstallFilterBatchCtx is InstallFilterBatch under a context. When
// the context expires mid-batch, the workers drain cleanly: every
// not-yet-validated request is rejected deadline-classed before its
// proof is checked, in-flight validations are interrupted within a
// bounded number of checker steps, and every request still flows
// through the commit, so errs[i] is always populated and the audit log
// and counters reconcile (no phantom installs, one verdict per
// request). A batch is bounded by its workers, not by the admission
// gate.
func (k *Kernel) InstallFilterBatchCtx(ctx context.Context, reqs []InstallRequest) []error {
	if len(reqs) > 0 {
		k.stats.batchInstalls.Add(1)
	}
	return k.installFilters(ctx, reqs, nil)
}

// installFilters is the request engine behind every filter install
// entry point: one request validates inline; n requests fan out over
// min(GOMAXPROCS, n) workers. Either way the commits run in request
// order. A non-nil shed rejects every request before validation. Each
// request gets its own correlation EventID, allocated when its
// validation starts, so its spans, audit record, and flight events
// share an ID even when validations interleave.
func (k *Kernel) installFilters(ctx context.Context, reqs []InstallRequest, shed error) []error {
	n := len(reqs)
	slots := make([]*cacheSlot, n)
	vas := make([]*validationAudit, n)
	eids := make([]uint64, n)
	errs := make([]error, n)
	validateAt := func(i int) {
		eids[i] = k.nextEvent(k.tel.Load())
		slots[i], vas[i], errs[i] = k.validate(ctx, "filter", reqs[i].Owner, reqs[i].Binary, eids[i], shed)
	}
	if n == 1 {
		validateAt(0)
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
					// Queue wait: how long the request sat before a
					// validator picked it up.
					k.stats.queueWaitNanos.Add(time.Since(start).Nanoseconds())
					validateAt(i)
				}
			}()
		}
		wg.Wait()
	}
	for i, r := range reqs {
		errs[i] = k.commitFilter(r.Owner, r.Binary, slots[i], vas[i], errs[i], eids[i], true)
	}
	return errs
}

// candidate is one policy a binary may validate under, with the
// binary's proof-cache key under it.
type candidate struct {
	pol *policy.Policy
	key cacheKey
}

// candidates lists the policies a binary of the given kind validates
// under, in verdict order: a handler has the resource-access policy
// alone; a filter has the published packet-filter policy first, then
// every negotiated policy.
func (k *Kernel) candidates(kind string, binary []byte) []candidate {
	if kind == "handler" {
		return []candidate{{k.resourcePolicy, k.resourceKeyer.Key(binary)}}
	}
	k.mu.RLock()
	defer k.mu.RUnlock()
	cands := make([]candidate, 0, 1+len(k.negotiated))
	cands = append(cands, candidate{k.filterPolicy, k.filterKeyer.Key(binary)})
	for name, p := range k.negotiated {
		cands = append(cands, candidate{p, k.negotiatedKeyers[name].Key(binary)})
	}
	return cands
}

// validate is the lock-free validation stage of every install: it
// probes the proof cache under each candidate policy and, on a miss,
// runs full PCC validation and the static WCET analysis, caching the
// result. At most one cache hit or miss is recorded per attempt,
// however many candidates are probed. A shed admission, an expired
// context, or (for filters) an embargoed owner rejects before any byte
// of the binary is examined — in particular before the cache probe, so
// a canceled install cannot be served (and committed) from a hit.
// With a recorder attached, the attempt is traced as a validate span
// with cacheprobe / parse / lfsig / vcgen / lfcheck / wcet children;
// with an audit log attached, the attempt's forensic context rides
// along to the commit in the returned validationAudit (nil when
// auditing is off).
func (k *Kernel) validate(ctx context.Context, kind, owner string, binary []byte, eid uint64, shed error) (*cacheSlot, *validationAudit, error) {
	k.stats.validations.Add(1)
	tel := k.tel.Load()
	span := tel.span(telemetry.StageValidate, owner, owner, eid)
	va := k.audit.Load().newValidationAudit(kind, owner, binary, eid)
	err := shed
	if cerr := ctx.Err(); err == nil && cerr != nil {
		err = fmt.Errorf("kernel: install aborted: %w", cerr)
	}
	if err == nil && kind == "filter" {
		err = k.quarantineCheck(owner)
	}
	if err != nil {
		span.End(err)
		return nil, va, err
	}
	cands := k.candidates(kind, binary)
	va.setPolicy(cands[0].pol)

	probeStart := time.Now()
	for _, c := range cands {
		if slot := k.cache.lookup(c.key); slot != nil {
			k.cache.recordHit()
			va.setCacheHit()
			va.setPolicy(c.pol)
			tel.probe(span, probeStart, true)
			span.End(nil)
			return slot, va, nil
		}
	}
	k.cache.recordMiss()
	tel.probe(span, probeStart, false)

	err = fmt.Errorf("kernel: no policy matches")
	for i, c := range cands {
		valStart := time.Now()
		ext, stats, verr := pcc.ValidateCtx(ctx, binary, c.pol, k.limits.Load())
		if verr != nil {
			if i == 0 {
				err = verr // the first candidate's verdict leads
			}
			continue
		}
		k.stats.validationNanos.Add(stats.Time.Nanoseconds())
		tel.validationStages(span, owner, valStart, stats)
		tel.certCost(stats, eid)
		va.setPolicy(c.pol)
		va.setStats(stats)
		// The WCET pass analyzes untrusted code inside a recover fence:
		// a panic there rejects the one binary, never the kernel.
		wcetStart := time.Now()
		slot := &cacheSlot{key: c.key, ext: ext}
		slot.wcetErr = pcc.Fence("wcet", func() (werr error) {
			slot.wcet, werr = machine.DEC21064.MaxCost(ext.Prog)
			return werr
		})
		tel.wcet(span, owner, wcetStart, slot.wcetErr)
		slot, evicted := k.cache.put(slot)
		tel.evicted(evicted)
		k.audit.Load().evict(evicted, eid)
		span.End(nil)
		return slot, va, nil
	}
	span.End(err)
	return nil, va, err
}

// commitFilter is the commit stage of a filter install. Under
// BackendCompiled the threaded-code form is obtained (memoized on the
// slot) before the lock is taken, so compilation — like validation —
// never runs under the kernel write lock, and a filter that somehow
// fails to compile is rejected rather than silently interpreted. Then
// publishFilter runs the locked section. Whatever rejected the attempt
// — its validation, its compile, or the locked section — goes to the
// owner's quarantine record (noteRejection) and ends in the one tail,
// settle.
func (k *Kernel) commitFilter(owner string, binary []byte, slot *cacheSlot, va *validationAudit, err error, eid uint64, journal bool) error {
	var compiled *machine.Compiled
	if err == nil && k.Backend() == BackendCompiled {
		if compiled, err = slot.compiledForm(); err != nil {
			err = fmt.Errorf("backend compile: %w", err)
		}
	}
	if err != nil {
		err = fmt.Errorf("kernel: filter for %q rejected: %w", owner, err)
	} else {
		span := k.tel.Load().span(telemetry.StageCommit, owner, owner, eid)
		err = k.publishFilter(owner, binary, slot, compiled, journal)
		span.End(err)
	}
	if err != nil {
		k.noteRejection(owner, installRejectReason(err), eid)
	} else {
		k.noteSuccess(owner)
		// A fresh install is a fresh binary: its breaker history, if
		// any, belongs to the replaced filter.
		k.breakerForget(owner)
	}
	return k.settle(va, slot, err)
}

// publishFilter is the short serial section of a filter install:
// budget comparison (the WCET itself was computed lock-free at
// validation time), journal append, and table update.
//
// When a store is attached and journal is true, the install is
// journaled BEFORE the table swap: the write-ahead discipline. A
// successful return therefore implies the record is on disk (fsynced),
// and a failed append rejects the install — the kernel never acks an
// install a crash could lose. journal is false only on the recovery
// path, whose records are already in the journal. binary is the exact
// accepted blob; it is what recovery will re-validate, so it must be
// the bytes that were proof-checked, not a derived form.
func (k *Kernel) publishFilter(owner string, binary []byte, slot *cacheSlot, compiled *machine.Compiled, journal bool) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.budget > 0 {
		if slot.wcetErr != nil {
			return fmt.Errorf("kernel: filter for %q has no static cost bound: %w", owner, slot.wcetErr)
		}
		if slot.wcet > int64(k.budget) {
			// A typed resource-limit error, so the rejection lands in
			// the "limit" reason bucket alongside the validation-time
			// budgets.
			return fmt.Errorf("kernel: filter for %q exceeds the cycle budget: %w", owner,
				&pcc.ResourceLimitError{Axis: "cycle_budget", Actual: slot.wcet, Max: int64(k.budget)})
		}
	}
	if st := k.wal.Load(); journal && st != nil {
		if _, jerr := st.Append(store.KindInstall, owner, binary); jerr != nil {
			return fmt.Errorf("kernel: filter for %q not journaled: %w",
				owner, &StoreError{Op: "append", Err: jerr})
		}
	}
	// Copy-on-write publication: build the replacement snapshot, swap
	// the pointer, retire the old snapshot (and a replaced filter) past
	// in-flight deliveries. The persistent per-owner accept counter is
	// carried over or minted here.
	t := k.table.Load()
	ctr := t.accepts[owner]
	if ctr == nil {
		ctr = newOwnerCounter(len(k.stats.shards))
	}
	ins := &installed{ext: slot.ext, accepts: ctr, compiled: compiled}
	if k.profiling.Load() {
		ins.prof = newFilterProfile(slot.ext.Prog)
	}
	nt := t.withFilter(owner, ins)
	var retired []*installed
	if i, ok := t.index[owner]; ok {
		retired = append(retired, t.slots[i].f)
	}
	k.publishLocked(nt, retired...)
	k.tel.Load().setFilters(len(nt.slots))
	return nil
}

// settle is the one tail of every install attempt, filter or handler,
// accepted or rejected: it counts the verdict, classifies a rejection
// into pcc_rejects_total{reason}, and writes the attempt's one audit
// install record.
func (k *Kernel) settle(va *validationAudit, slot *cacheSlot, err error) error {
	tel := k.tel.Load()
	if err != nil {
		k.stats.rejections.Add(1)
		tel.reject(installRejectReason(err))
	}
	tel.outcome(err == nil)
	k.audit.Load().install(va, slot, err)
	return err
}
