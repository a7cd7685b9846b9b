// Adversarial-hardening layer: the knobs a kernel operator turns when
// the install interface is exposed to genuinely hostile producers.
//
// Three mechanisms compose here, all disabled or unbounded by default
// so the paper-faithful kernel is unchanged until an operator opts in:
//
//   - Validation budgets (SetLimits): every install validates under a
//     pcc.Limits, so proof bombs die as typed "limit" rejections
//     instead of exhausting the consumer (docs/ROBUSTNESS.md).
//   - Admission control (SetAdmissionLimit): a bounded count of
//     concurrent validations; excess installs shed immediately with a
//     typed *QueueFullError carrying a retry hint, rather than piling
//     up CPU-bound proof checks without bound.
//   - Producer quarantine (SetQuarantine): owners whose installs are
//     rejected repeatedly are embargoed with exponential backoff, so a
//     producer spraying garbage binaries cannot monopolize the
//     validator. Embargoed-owner count is exported as a gauge.
//
// Every rejection, whatever the mechanism, flows through commitFilter:
// it lands in the audit log with a reject_reason attribute and in the
// pcc_rejects_total{reason} counter family, and Validations ==
// installs + rejections still holds at rest.
package kernel

import (
	"context"
	"errors"
	"fmt"
	"time"

	pcc "repro"
	"repro/internal/telemetry"
)

// SetLimits configures the resource budgets every subsequent
// validation runs under. The zero Limits value means "no budget on any
// axis"; an unset kernel validates under pcc.DefaultLimits.
func (k *Kernel) SetLimits(lim pcc.Limits) {
	old := k.Limits()
	k.limits.Store(&lim)
	k.configChange("limits", fmt.Sprintf("%+v", old), fmt.Sprintf("%+v", lim))
}

// Limits returns the configured validation budgets (DefaultLimits when
// never set).
func (k *Kernel) Limits() pcc.Limits {
	if l := k.limits.Load(); l != nil {
		return *l
	}
	return pcc.DefaultLimits()
}

// admissionRetryAfter is the retry hint a shed install carries: long
// enough for an in-flight proof check to finish, short enough that a
// well-behaved producer retries promptly.
const admissionRetryAfter = 10 * time.Millisecond

// QueueFullError reports an install shed by admission control: the
// kernel refused to even start validating because Limit validations
// were already in flight. The caller should retry after RetryAfter.
type QueueFullError struct {
	Limit      int
	RetryAfter time.Duration
}

// Error implements the error interface.
func (e *QueueFullError) Error() string {
	return fmt.Sprintf("kernel: admission queue full (%d validations in flight); retry after %s",
		e.Limit, e.RetryAfter)
}

// admitGate is a semaphore bounding concurrent validations.
type admitGate struct {
	slots chan struct{}
	limit int
}

func (g *admitGate) tryAcquire() bool {
	select {
	case g.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

func (g *admitGate) release() { <-g.slots }

// SetAdmissionLimit bounds the number of concurrently admitted install
// validations; further InstallFilterCtx calls shed immediately with a
// *QueueFullError instead of queueing unbounded CPU-bound work. n <= 0
// removes the bound (the default). The swap is atomic; in-flight
// installs drain against the gate they were admitted under.
func (k *Kernel) SetAdmissionLimit(n int) {
	if n <= 0 {
		k.admit.Store(nil)
		return
	}
	k.admit.Store(&admitGate{slots: make(chan struct{}, n), limit: n})
}

// QuarantineConfig tunes producer quarantine. Threshold consecutive
// rejections embargo the owner for Base, doubling per further strike
// up to Max. Threshold <= 0 disables quarantine (the default).
type QuarantineConfig struct {
	Threshold int
	Base      time.Duration
	Max       time.Duration
}

// expBackoff is the kernel's one exponential backoff: base doubled
// doublings times, capped at ceiling. Quarantine embargoes pass
// strikes-Threshold doublings, breaker open intervals trips-1. base <= 0
// means one second; ceiling <= 0 means no cap.
func expBackoff(base, ceiling time.Duration, doublings int) time.Duration {
	d := base
	if d <= 0 {
		d = time.Second
	}
	for ; doublings > 0; doublings-- {
		d *= 2
		if ceiling > 0 && d >= ceiling {
			return ceiling
		}
	}
	if ceiling > 0 && d > ceiling {
		d = ceiling
	}
	return d
}

// QuarantineError reports an install refused because its owner is
// under embargo.
type QuarantineError struct {
	Owner   string
	Until   time.Time
	Strikes int
}

// Error implements the error interface.
func (e *QuarantineError) Error() string {
	return fmt.Sprintf("kernel: owner %q quarantined until %s after %d consecutive rejections",
		e.Owner, e.Until.Format(time.RFC3339Nano), e.Strikes)
}

// quarState is one owner's strike record.
type quarState struct {
	strikes int
	until   time.Time
}

// SetQuarantine configures producer quarantine; a Threshold <= 0
// disables it and clears all strike records.
func (k *Kernel) SetQuarantine(cfg QuarantineConfig) {
	oldCfg := "disabled"
	if old := k.quarCfg.Load(); old != nil {
		oldCfg = fmt.Sprintf("%+v", *old)
	}
	if cfg.Threshold <= 0 {
		k.quarCfg.Store(nil)
		k.quarMu.Lock()
		k.quar = nil
		k.quarMu.Unlock()
		k.tel.Load().setQuarantined(0)
		k.configChange("quarantine", oldCfg, "disabled")
		return
	}
	k.quarCfg.Store(&cfg)
	k.configChange("quarantine", oldCfg, fmt.Sprintf("%+v", cfg))
	// Publish the gauge immediately (normally zero) so a scrape sees
	// the series as soon as quarantine is enabled, not after the first
	// embargo.
	k.quarMu.Lock()
	n := k.embargoedLocked(time.Now())
	k.quarMu.Unlock()
	k.tel.Load().setQuarantined(n)
}

// Quarantined returns the currently embargoed owners and when each
// embargo lifts.
func (k *Kernel) Quarantined() map[string]time.Time {
	now := time.Now()
	k.quarMu.Lock()
	defer k.quarMu.Unlock()
	out := map[string]time.Time{}
	for o, st := range k.quar {
		if st.until.After(now) {
			out[o] = st.until
		}
	}
	return out
}

// embargoedLocked counts live embargoes; callers hold quarMu.
func (k *Kernel) embargoedLocked(now time.Time) int {
	n := 0
	for _, st := range k.quar {
		if st.until.After(now) {
			n++
		}
	}
	return n
}

// quarantineCheck is the validation-stage gate: a live embargo rejects
// the install before any byte of the binary is examined.
func (k *Kernel) quarantineCheck(owner string) error {
	cfg := k.quarCfg.Load()
	if cfg == nil {
		return nil
	}
	now := time.Now()
	k.quarMu.Lock()
	defer k.quarMu.Unlock()
	st := k.quar[owner]
	if st == nil || !st.until.After(now) {
		return nil
	}
	return &QuarantineError{Owner: owner, Until: st.until, Strikes: st.strikes}
}

// noteRejection records a strike against the owner. Rejections the
// owner's binary did not cause — an embargo already in force, a full
// admission queue, a journal-append failure, a replayed record failing
// re-validation during Recover — do not count, or a single embargo
// would extend itself forever (and a sick or bit-rotted disk would
// embargo innocent producers: a recovery skip means the journal's copy
// rotted, not that the owner ever submitted an unsound binary, and a
// strike here would block their post-recovery reinstall).
func (k *Kernel) noteRejection(owner, reason string, eid uint64) {
	cfg := k.quarCfg.Load()
	if cfg == nil || reason == "quarantine" || reason == "queue_full" ||
		reason == "store" || reason == "recovery" {
		return
	}
	now := time.Now()
	var embargo *QuarantineError
	k.quarMu.Lock()
	if k.quar == nil {
		k.quar = map[string]*quarState{}
	}
	st := k.quar[owner]
	if st == nil {
		st = &quarState{}
		k.quar[owner] = st
	}
	st.strikes++
	if st.strikes >= cfg.Threshold {
		st.until = now.Add(expBackoff(cfg.Base, cfg.Max, st.strikes-cfg.Threshold))
		embargo = &QuarantineError{Owner: owner, Until: st.until, Strikes: st.strikes}
	}
	n := k.embargoedLocked(now)
	k.quarMu.Unlock()
	k.tel.Load().setQuarantined(n)
	if embargo != nil {
		k.audit.Load().quarantine(embargo, eid)
		k.flight(telemetry.FlightQuarantine, owner,
			fmt.Sprintf("strikes=%d until=%s", embargo.Strikes, embargo.Until.Format(time.RFC3339Nano)), eid)
	}
}

// noteSuccess clears the owner's strike record: quarantine punishes
// consecutive failures only.
func (k *Kernel) noteSuccess(owner string) {
	if k.quarCfg.Load() == nil {
		return
	}
	k.quarMu.Lock()
	delete(k.quar, owner)
	n := k.embargoedLocked(time.Now())
	k.quarMu.Unlock()
	k.tel.Load().setQuarantined(n)
}

// installRejectReason extends pcc.RejectReason with the kernel's own
// rejection classes. The vocabulary is the label set of
// pcc_rejects_total: limit, deadline, panic, proof, quarantine,
// queue_full, recovery, store. Recovery is checked first: a replayed
// record that fails validation wraps the underlying proof error, and
// the boot-time bucket is the one operators alert on.
func installRejectReason(err error) string {
	var re *RecoveryError
	if errors.As(err, &re) {
		return "recovery"
	}
	var se *StoreError
	if errors.As(err, &se) {
		return "store"
	}
	var qe *QuarantineError
	if errors.As(err, &qe) {
		return "quarantine"
	}
	var fe *QueueFullError
	if errors.As(err, &fe) {
		return "queue_full"
	}
	return pcc.RejectReason(err)
}

// InstallFilterCtx is InstallFilter under a context and the kernel's
// configured admission control: an expired or canceled context rejects
// without running the proof checker (mid-check cancellation is honored
// within a bounded number of inference steps), and when an admission
// limit is set, an install arriving with all slots busy sheds
// immediately with a *QueueFullError. Both outcomes are ordinary
// rejections: audited, counted, and classified by reason.
func (k *Kernel) InstallFilterCtx(ctx context.Context, owner string, binary []byte) error {
	eid := k.nextEvent(k.tel.Load())
	if gate := k.admit.Load(); gate != nil {
		if !gate.tryAcquire() {
			k.stats.validations.Add(1)
			va := k.audit.Load().newValidationAudit("filter", owner, binary, eid)
			return k.commitFilter(owner, binary, nil, va,
				&QueueFullError{Limit: gate.limit, RetryAfter: admissionRetryAfter}, k.Backend(), eid, true)
		}
		defer gate.release()
	}
	slot, va, err := k.validateFilter(ctx, owner, binary, eid)
	return k.commitFilter(owner, binary, slot, va, err, k.Backend(), eid, true)
}
