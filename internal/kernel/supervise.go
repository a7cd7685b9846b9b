// Per-owner supervision: the dispatch circuit breaker and producer
// quarantine, one record per owner under one mutex and one clock.
//
// The paper's contract is that a validated filter never faults. Two
// supervisors contain what the proof does not cover, and both key on
// the owner:
//
//   - Producer quarantine (SetQuarantine): Threshold consecutive
//     rejections embargo the owner for a backoff that doubles per
//     further strike, so a producer spraying garbage binaries cannot
//     monopolize the validator. A successful install clears the record.
//   - The dispatch circuit breaker (SetBreaker): a dispatch fault
//     (memory fault, fuel exhaustion) means something outside the
//     proof's model is wrong. The breaker's premise is that the
//     threaded-code translation is the component the proof does NOT
//     cover (the interpreter is the verified reference semantics), so
//     a filter that keeps faulting is demoted to the interpreter
//     rather than taking the dispatch path down.
//
// Breaker states, the values of the pcc_breaker_state gauge:
//
//	closed (0)    normal dispatch. Threshold faults trip the breaker
//	              (faults accumulate rather than decay: a validated
//	              filter faulting at all is anomalous): the compiled
//	              form is unpublished (COW table rewrite; in-flight
//	              deliveries finish on the snapshot they pinned) and
//	              the state goes to
//	open (1)      interpreter-only, for a backoff that doubles per trip
//	              (Base, capped at Max). When it expires, the next
//	              delivery promotes the saved compiled form back:
//	half-open (2) compiled on probation; Threshold consecutive clean
//	              deliveries close the breaker, one fault re-opens it
//	              with the longer backoff.
//
// The MaxTrips'th trip escalates: the faults follow the filter, not
// the backend, so the filter is uninstalled and its owner struck up to
// the quarantine threshold (when quarantine is set). An escalation
// whose uninstall cannot be journaled leaves the filter installed, so
// the breaker holds open — demoted, armed, still probing — and retries
// on the next probation fault; the owner is not embargoed for a disk's
// misbehavior. Every transition is audited, flight-recorded and
// published on its gauge, joined on the EventID that drove it.
//
// Locking and time: all records and both configs live under supMu,
// which is taken before k.mu wherever both are held. SetBreaker and
// SetQuarantine swap their config while holding it, so no transition
// can act on a config a disable has already cleared. Every decision
// reads time through k.now. An install's tail drops the owner's whole
// record; an uninstall drops only the breaker half, because removing a
// filter says nothing about its producer.
//
// Cost model: a delivery pays one atomic load (brkArmed) unless some
// breaker is open or half-open; only then does dispatch take supMu.
package kernel

import (
	"fmt"
	"time"

	"repro/internal/machine"
	"repro/internal/telemetry"
)

// BreakerConfig tunes the dispatch circuit breaker. Threshold
// consecutive faults open a filter's breaker for Base, doubling per
// trip up to Max; Threshold consecutive clean deliveries in half-open
// close it. MaxTrips > 0 escalates the filter to uninstall (plus
// owner quarantine, when configured) on its MaxTrips'th trip; 0 never
// escalates. Threshold <= 0 disables the breaker entirely (the
// default).
type BreakerConfig struct {
	Threshold int
	Base      time.Duration
	Max       time.Duration
	MaxTrips  int
}

// QuarantineConfig tunes producer quarantine. Threshold consecutive
// rejections embargo the owner for Base, doubling per further strike
// up to Max. Threshold <= 0 disables quarantine (the default).
type QuarantineConfig struct {
	Threshold int
	Base      time.Duration
	Max       time.Duration
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

// Breaker states, the values of the pcc_breaker_state gauge.
const (
	breakerClosed   = 0
	breakerOpen     = 1
	breakerHalfOpen = 2
)

// supRecord is one owner's supervision record. Guarded by supMu; a
// record with no strikes and a zero breaker half is deleted.
type supRecord struct {
	strikes int       // consecutive rejections
	until   time.Time // when the embargo lifts
	brk     breakerRec
}

// breakerRec is a record's breaker half. The zero value means the
// breaker has not touched the filter since its install (or since the
// breaker was disabled).
type breakerRec struct {
	state  int
	faults int       // accumulated closed-state faults (never decay)
	clean  int       // consecutive clean deliveries in half-open
	trips  int       // lifetime opens
	probe  time.Time // open: when the half-open probe is allowed; zero: never
	// armed mirrors whether this record counts in k.brkArmed, so arm
	// and disarm stay balanced across every path.
	armed bool
	// compiled is the demoted threaded-code form, saved across the
	// open interval so re-admission does not recompile. The object is
	// immutable and safe to hold: retirement poisons only the retired
	// installed struct's fields, never the Compiled it pointed to.
	compiled *machine.Compiled
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

// cfgString renders a config for the config-change audit record.
func cfgString[T any](cfg *T) string {
	if cfg == nil {
		return "disabled"
	}
	return fmt.Sprintf("%+v", *cfg)
}

// SetBreaker configures dispatch supervision. A Threshold <= 0
// disables it: every demoted filter is promoted back to its compiled
// form and all breaker state is dropped.
func (k *Kernel) SetBreaker(cfg BreakerConfig) {
	var next *BreakerConfig
	if cfg.Threshold > 0 {
		next = &cfg
	}
	k.supMu.Lock()
	old := cfgString(k.brkCfg)
	k.brkCfg = next
	if next == nil {
		for owner, r := range k.sup {
			if r.brk == (breakerRec{}) {
				continue
			}
			if r.brk.compiled != nil {
				k.setCompiled(owner, r.brk.compiled)
			}
			k.tel.Load().setBreakerState(owner, breakerClosed)
			k.dropBreakerLocked(owner, r)
		}
	}
	k.supMu.Unlock()
	k.configChange("breaker", old, cfgString(next))
}

// SetQuarantine configures producer quarantine; a Threshold <= 0
// disables it and clears all strike records. Either way the gauge is
// published at once, so a scrape sees the series as soon as
// quarantine is enabled.
func (k *Kernel) SetQuarantine(cfg QuarantineConfig) {
	var next *QuarantineConfig
	if cfg.Threshold > 0 {
		next = &cfg
	}
	k.supMu.Lock()
	old := cfgString(k.quarCfg)
	k.quarCfg = next
	if next == nil {
		for owner, r := range k.sup {
			r.strikes, r.until = 0, time.Time{}
			k.tidyLocked(owner, r)
		}
	}
	k.tel.Load().setQuarantined(k.embargoedLocked(k.now()))
	k.supMu.Unlock()
	k.configChange("quarantine", old, cfgString(next))
}

// Breakers reports the current per-filter breaker states (only filters
// the breaker has touched since their install appear).
func (k *Kernel) Breakers() map[string]int {
	k.supMu.Lock()
	defer k.supMu.Unlock()
	out := map[string]int{}
	for o, r := range k.sup {
		if r.brk != (breakerRec{}) {
			out[o] = r.brk.state
		}
	}
	return out
}

// Quarantined returns the currently embargoed owners and when each
// embargo lifts, and publishes their count on the
// pcc_quarantined_owners gauge (an embargo lapses without an event, so
// readers of the gauge call this first).
func (k *Kernel) Quarantined() map[string]time.Time {
	now := k.now()
	out := map[string]time.Time{}
	k.supMu.Lock()
	defer k.supMu.Unlock()
	for o, r := range k.sup {
		if r.until.After(now) {
			out[o] = r.until
		}
	}
	k.tel.Load().setQuarantined(len(out))
	return out
}

// record returns owner's record, creating it. Caller holds supMu.
func (k *Kernel) record(owner string) *supRecord {
	r := k.sup[owner]
	if r == nil {
		r = &supRecord{}
		k.sup[owner] = r
	}
	return r
}

// tidyLocked deletes owner's record once both halves are empty.
// Caller holds supMu.
func (k *Kernel) tidyLocked(owner string, r *supRecord) {
	if r.strikes == 0 && r.brk == (breakerRec{}) {
		delete(k.sup, owner)
	}
}

// setArmed keeps b.armed and k.brkArmed in step. Caller holds supMu.
func (k *Kernel) setArmed(b *breakerRec, on bool) {
	if b.armed == on {
		return
	}
	b.armed = on
	if on {
		k.brkArmed.Add(1)
	} else {
		k.brkArmed.Add(-1)
	}
}

// dropBreakerLocked clears owner's breaker half. Caller holds supMu.
func (k *Kernel) dropBreakerLocked(owner string, r *supRecord) {
	k.setArmed(&r.brk, false)
	r.brk = breakerRec{}
	k.tidyLocked(owner, r)
}

// embargoedLocked counts live embargoes. Caller holds supMu.
func (k *Kernel) embargoedLocked(now time.Time) int {
	n := 0
	for _, r := range k.sup {
		if r.until.After(now) {
			n++
		}
	}
	return n
}

// forgetOwner drops owner's whole record after a successful install:
// a fresh binary has no breaker history, and quarantine punishes
// consecutive failures only.
func (k *Kernel) forgetOwner(owner string) {
	k.supMu.Lock()
	defer k.supMu.Unlock()
	if r := k.sup[owner]; r != nil {
		if r.brk.state != breakerClosed {
			k.tel.Load().setBreakerState(owner, breakerClosed)
		}
		k.setArmed(&r.brk, false)
		delete(k.sup, owner)
	}
	k.tel.Load().setQuarantined(k.embargoedLocked(k.now()))
}

// forgetBreaker drops owner's breaker half after an uninstall; the
// strikes stay.
func (k *Kernel) forgetBreaker(owner string) {
	k.supMu.Lock()
	defer k.supMu.Unlock()
	if r := k.sup[owner]; r != nil {
		k.dropBreakerLocked(owner, r)
	}
}

// quarantineCheck is the validation-stage gate: a live embargo rejects
// the install before any byte of the binary is examined.
func (k *Kernel) quarantineCheck(owner string) error {
	now := k.now()
	k.supMu.Lock()
	defer k.supMu.Unlock()
	r := k.sup[owner]
	if r == nil || !r.until.After(now) {
		return nil
	}
	return &QuarantineError{Owner: owner, Until: r.until, Strikes: r.strikes}
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
	if reason == "quarantine" || reason == "queue_full" || reason == "store" || reason == "recovery" {
		return
	}
	k.supMu.Lock()
	defer k.supMu.Unlock()
	k.strikeLocked(owner, 1, eid, "")
}

// strikeLocked adds n strikes to owner's record when quarantine is on
// and, once the record reaches the threshold, embargoes the owner for
// a backoff that doubles per strike beyond it. The gauge is
// republished; a new embargo is audited and flight-recorded, its
// detail prefixed with cause. Caller holds supMu.
func (k *Kernel) strikeLocked(owner string, n int, eid uint64, cause string) {
	cfg := k.quarCfg
	if cfg == nil {
		return
	}
	r := k.record(owner)
	r.strikes += n
	if r.strikes < cfg.Threshold {
		return
	}
	now := k.now()
	r.until = now.Add(expBackoff(cfg.Base, cfg.Max, r.strikes-cfg.Threshold))
	k.tel.Load().setQuarantined(k.embargoedLocked(now))
	embargo := &QuarantineError{Owner: owner, Until: r.until, Strikes: r.strikes}
	k.audit.Load().quarantine(embargo, eid)
	k.flight(telemetry.FlightQuarantine, owner,
		fmt.Sprintf("%sstrikes=%d until=%s", cause, embargo.Strikes, embargo.Until.Format(time.RFC3339Nano)), eid)
}

// setCompiled republishes owner's filter with compiled form c (nil
// demotes it to the interpreter) and returns the form it replaced. It
// does nothing when the filter is gone or already in that form: a
// filter uninstalled or reinstalled while open keeps its current form,
// because a saved pointer would belong to a stale binary. Takes k.mu;
// callers hold supMu.
func (k *Kernel) setCompiled(owner string, c *machine.Compiled) *machine.Compiled {
	k.mu.Lock()
	defer k.mu.Unlock()
	t := k.table.Load()
	i, ok := t.index[owner]
	if !ok || (t.slots[i].c == nil) == (c == nil) {
		return nil
	}
	old := t.slots[i].c
	nt, replaced := t.mapped(func(o string, f *installed) *installed {
		if o != owner {
			return f
		}
		nf := *f
		nf.compiled = c
		return &nf
	})
	k.publishLocked(nt, replaced...)
	return old
}

// breakerEvent publishes one breaker transition on the gauge, the
// audit log and the flight recorder.
func (k *Kernel) breakerEvent(owner string, state int, transition, kind string, trips int, detail string, eid uint64) {
	k.tel.Load().setBreakerState(owner, state)
	k.audit.Load().breaker(transition, owner, trips, detail, eid)
	k.flight(kind, owner, detail, eid)
}

// holdOpen demotes owner's compiled form, restarts the backoff at the
// current trip count and arms the breaker. Caller holds supMu.
func (k *Kernel) holdOpen(owner string, b *breakerRec, cfg *BreakerConfig) time.Duration {
	if c := k.setCompiled(owner, nil); c != nil {
		b.compiled = c
	}
	b.state, b.faults, b.clean = breakerOpen, 0, 0
	d := expBackoff(cfg.Base, cfg.Max, b.trips-1)
	b.probe = k.now().Add(d)
	k.setArmed(b, true)
	return d
}

// breakerFault is the dispatch-path hook: one filter faulted during a
// delivery. Only faults the proof's model can't explain away as kernel
// misuse count — memory faults and fuel exhaustion — and only when a
// breaker is configured. Called without k.mu held.
func (k *Kernel) breakerFault(owner, kind string, eid uint64) {
	if kind != telemetry.FlightMemoryFault && kind != telemetry.FlightFuelExhausted {
		return
	}
	k.supMu.Lock()
	cfg := k.brkCfg
	if cfg == nil {
		k.supMu.Unlock()
		return
	}
	b := &k.record(owner).brk
	escalate := false
	switch b.state {
	case breakerClosed:
		if b.faults++; b.faults < cfg.Threshold {
			break
		}
		fallthrough
	case breakerHalfOpen:
		// Threshold closed-state faults, or one on probation, trip the
		// breaker with the longer backoff.
		b.trips++
		if escalate = cfg.MaxTrips > 0 && b.trips >= cfg.MaxTrips; escalate {
			// Parked open, never probing, so a racing fault lands in
			// the open case instead of re-escalating; escalate
			// resolves the state once the uninstall's outcome is known.
			b.state, b.probe = breakerOpen, time.Time{}
			break
		}
		d := k.holdOpen(owner, b, cfg)
		k.breakerEvent(owner, breakerOpen, "open", telemetry.FlightBreakerOpen, b.trips,
			fmt.Sprintf("trips=%d backoff=%s", b.trips, d), eid)
	case breakerOpen:
		// Already demoted; an interpreter fault just restarts the
		// backoff clock at the current trip count.
		b.probe = k.now().Add(expBackoff(cfg.Base, cfg.Max, b.trips-1))
	}
	trips := b.trips
	k.supMu.Unlock()
	if escalate {
		k.escalate(owner, trips, eid)
	}
}

// escalate retires a filter whose faults survived MaxTrips demotion
// cycles: uninstall (journaled and audited like any other) plus
// Threshold strikes under the quarantine config, when one is set. The
// uninstall runs without supMu. If it fails — a journal append against
// a sick or closed store — the filter stays installed, so the breaker
// must NOT stand down: it holds open (the closed-state escalation path
// never demoted the compiled form) and armed, so probation and
// re-escalation continue until an uninstall commits. A store failure
// is audited as such, and the owner is not embargoed for it.
func (k *Kernel) escalate(owner string, trips int, eid uint64) {
	uerr := k.uninstall(owner)
	k.supMu.Lock()
	defer k.supMu.Unlock()
	r := k.sup[owner]
	if uerr != nil {
		// A disable (or a reinstall) that ran meanwhile already stood
		// the breaker down; only a live record is held open.
		if cfg := k.brkCfg; cfg != nil && r != nil && r.brk != (breakerRec{}) {
			k.holdOpen(owner, &r.brk, cfg)
			k.breakerEvent(owner, breakerOpen, "escalate_failed", telemetry.FlightBreakerOpen, trips,
				fmt.Sprintf("trips=%d: uninstall failed, filter still installed, breaker held open: %v", trips, uerr), eid)
		}
		return
	}
	// The filter is gone; its breaker half becomes terminal: open,
	// disarmed, never probing again.
	if r != nil && r.brk != (breakerRec{}) {
		k.setArmed(&r.brk, false)
		r.brk.state, r.brk.compiled, r.brk.probe = breakerOpen, nil, time.Time{}
	}
	detail := fmt.Sprintf("trips=%d: uninstalled", trips)
	k.audit.Load().breaker("escalate", owner, trips, detail, eid)
	k.flight(telemetry.FlightBreakerOpen, owner, detail, eid)
	k.tel.Load().dropBreakerState(owner)
	if cfg := k.quarCfg; cfg != nil {
		k.strikeLocked(owner, cfg.Threshold, eid, "breaker escalation: ")
	}
}

// breakerTick runs at the delivery preamble while any breaker is
// armed: every open breaker whose backoff has expired is promoted to
// half-open — compiled form back on probation — before the delivery
// loads its snapshot.
func (k *Kernel) breakerTick(eid uint64) {
	now := k.now()
	k.supMu.Lock()
	defer k.supMu.Unlock()
	for owner, r := range k.sup {
		b := &r.brk
		if b.state != breakerOpen || b.probe.IsZero() || now.Before(b.probe) {
			continue
		}
		if b.compiled != nil {
			k.setCompiled(owner, b.compiled)
		}
		b.state, b.clean, b.faults = breakerHalfOpen, 0, 0
		k.breakerEvent(owner, breakerHalfOpen, "halfopen", telemetry.FlightBreakerHalfOpen, b.trips,
			fmt.Sprintf("trips=%d: compiled on probation", b.trips), eid)
	}
}

// breakerClean is the dispatch-path hook for a fault-free delivery:
// one clean observation for each filter of its snapshot, counted
// toward closing by half-open breakers. Closed-state faults are
// deliberately NOT reset here — they accumulate until Threshold —
// both because a validated filter faulting at all is anomalous, and
// because this hook only runs while some breaker is armed, so any
// closed-state decay would depend on whether an unrelated filter
// happens to be open. Called only while armed.
func (k *Kernel) breakerClean(slots []tableSlot, eid uint64) {
	k.supMu.Lock()
	defer k.supMu.Unlock()
	cfg := k.brkCfg
	if cfg == nil {
		return
	}
	for i := range slots {
		owner := slots[i].owner
		r := k.sup[owner]
		if r == nil || r.brk.state != breakerHalfOpen {
			continue
		}
		b := &r.brk
		if b.clean++; b.clean < cfg.Threshold {
			continue
		}
		b.state, b.faults, b.clean, b.compiled = breakerClosed, 0, 0, nil // the live table holds it again
		k.setArmed(b, false)
		k.breakerEvent(owner, breakerClosed, "close", telemetry.FlightBreakerClose, b.trips,
			fmt.Sprintf("trips=%d: re-admitted", b.trips), eid)
	}
}
