// Self-healing dispatch supervision: a per-filter circuit breaker.
//
// A validated filter cannot fault when the kernel meets its
// precondition — that is the paper's contract — so a dispatch-path
// fault (memory fault, fuel exhaustion) means something outside the
// proof's model is wrong: a kernel bug, cosmic-ray corruption of the
// compiled form, a miscompile. The breaker's premise is that the
// threaded-code translation is the component the proof does NOT cover
// (the interpreter is the verified reference semantics), so a filter
// that keeps faulting is demoted from compiled to interpreted
// execution rather than taking the whole dispatch path down.
//
// Per-filter state machine (the pcc_breaker_state gauge):
//
//	closed (0)    normal dispatch. Threshold faults trip the breaker
//	              (a validated filter faulting at all is anomalous, so
//	              closed-state faults accumulate rather than decaying):
//	              the filter's compiled form is unpublished
//	              (COW table rewrite; in-flight deliveries finish on the
//	              snapshot they pinned) and the state goes to
//	open (1)      interpreter-only, for a backoff interval that doubles
//	              per trip (Base, capped at Max). When it expires, the
//	              next delivery promotes the saved compiled form back
//	              on probation:
//	half-open (2) compiled again; Threshold consecutive clean deliveries
//	              close the breaker, one fault re-opens it with the
//	              longer backoff.
//
// A filter that trips MaxTrips times has exhausted the "blame the
// compiled form" hypothesis — the faults follow the filter, not the
// backend — so the breaker escalates: the filter is uninstalled and
// its owner embargoed under the kernel's quarantine config (when one
// is set). An escalation whose uninstall cannot be journaled (sick
// disk, store closed mid-shutdown) leaves the filter installed, so the
// breaker holds open — demoted, armed, still probing — and retries the
// escalation on the next probation fault. Every transition is audited,
// flight-recorded
// (breaker_open / breaker_halfopen / breaker_close), and published on
// the pcc_breaker_state gauge, all joined on the EventID of the
// delivery that drove the transition. An uninstalled filter, whether
// by UninstallFilter or by a committed escalation, has no series.
//
// Cost model: the unconfigured kernel pays nothing. A configured but
// untripped kernel pays one atomic load per delivery (brkArmed). Only
// while some breaker is open or half-open does dispatch consult the
// supervisor's mutex — and by then the hot path is already degraded.
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

// Breaker states, the values of the pcc_breaker_state gauge.
const (
	breakerClosed   = 0
	breakerOpen     = 1
	breakerHalfOpen = 2
)

// breakerState is one filter's supervision record. Guarded by brkMu.
type breakerState struct {
	state  int
	faults int       // accumulated closed-state faults (never decay; see package comment)
	clean  int       // consecutive clean deliveries in half-open
	trips  int       // lifetime opens
	until  time.Time // open: when the half-open probe is allowed
	// armed mirrors whether this record contributes to k.brkArmed, so
	// arm/disarm stays balanced across every path (open, close,
	// escalate, forget, disable).
	armed bool
	// compiled is the demoted threaded-code form, saved across the
	// open interval so re-admission does not recompile. The object is
	// immutable and safe to hold: retirement poisons only the retired
	// installed struct's fields, never the Compiled it pointed to.
	compiled *machine.Compiled
}

// SetBreaker configures dispatch supervision. A Threshold <= 0
// disables it: every demoted filter is promoted back to its compiled
// form and all state is dropped.
func (k *Kernel) SetBreaker(cfg BreakerConfig) {
	oldCfg := "disabled"
	if old := k.brkCfg.Load(); old != nil {
		oldCfg = fmt.Sprintf("%+v", *old)
	}
	if cfg.Threshold <= 0 {
		k.brkCfg.Store(nil)
		k.brkMu.Lock()
		for owner, st := range k.brk {
			if st.compiled != nil {
				k.promoteCompiled(owner, st.compiled)
			}
			if st.armed {
				k.brkArmed.Add(-1)
			}
			k.tel.Load().setBreakerState(owner, breakerClosed)
		}
		k.brk = nil
		k.brkMu.Unlock()
		k.configChange("breaker", oldCfg, "disabled")
		return
	}
	k.brkCfg.Store(&cfg)
	k.configChange("breaker", oldCfg, fmt.Sprintf("%+v", cfg))
}

// Breakers reports the current per-filter breaker states (only filters
// the supervisor has ever touched appear).
func (k *Kernel) Breakers() map[string]int {
	k.brkMu.Lock()
	defer k.brkMu.Unlock()
	out := make(map[string]int, len(k.brk))
	for o, st := range k.brk {
		out[o] = st.state
	}
	return out
}

// demoteCompiled unpublishes owner's compiled form (COW rewrite) and
// returns it for safekeeping. Takes k.mu; callers hold brkMu (lock
// order: brkMu before k.mu, everywhere).
func (k *Kernel) demoteCompiled(owner string) *machine.Compiled {
	k.mu.Lock()
	defer k.mu.Unlock()
	t := k.table.Load()
	i, ok := t.index[owner]
	if !ok || t.slots[i].c == nil {
		return nil
	}
	saved := t.slots[i].c
	nt, replaced := t.mapped(func(o string, f *installed) *installed {
		if o != owner || f.compiled == nil {
			return f
		}
		nf := *f
		nf.compiled = nil
		return &nf
	})
	if nt != t {
		k.publishLocked(nt, replaced...)
	}
	return saved
}

// promoteCompiled re-attaches a saved compiled form to owner's filter.
// A filter that was uninstalled or reinstalled while open keeps its
// current form — the saved pointer would belong to a stale binary.
func (k *Kernel) promoteCompiled(owner string, c *machine.Compiled) {
	k.mu.Lock()
	defer k.mu.Unlock()
	t := k.table.Load()
	i, ok := t.index[owner]
	if !ok || t.slots[i].c != nil {
		return
	}
	nt, replaced := t.mapped(func(o string, f *installed) *installed {
		if o != owner || f.compiled != nil {
			return f
		}
		nf := *f
		nf.compiled = c
		return &nf
	})
	if nt != t {
		k.publishLocked(nt, replaced...)
	}
}

// breakerFault is the dispatch-path hook: one filter faulted during a
// delivery. Only faults the proof's model can't explain away as kernel
// misuse count — memory faults and fuel exhaustion — and only when a
// breaker is configured. Called without k.mu held.
func (k *Kernel) breakerFault(owner, kind string, eid uint64) {
	cfg := k.brkCfg.Load()
	if cfg == nil {
		return
	}
	if kind != telemetry.FlightMemoryFault && kind != telemetry.FlightFuelExhausted {
		return
	}
	var escalate bool
	k.brkMu.Lock()
	if k.brk == nil {
		k.brk = map[string]*breakerState{}
	}
	st := k.brk[owner]
	if st == nil {
		st = &breakerState{}
		k.brk[owner] = st
	}
	switch st.state {
	case breakerClosed:
		st.faults++
		if st.faults >= cfg.Threshold {
			st.trips++
			if cfg.MaxTrips > 0 && st.trips >= cfg.MaxTrips {
				escalate = true
				break
			}
			k.openBreaker(owner, st, cfg, eid)
		}
	case breakerHalfOpen:
		// One fault on probation re-opens with the longer backoff.
		st.trips++
		if cfg.MaxTrips > 0 && st.trips >= cfg.MaxTrips {
			escalate = true
			break
		}
		k.openBreaker(owner, st, cfg, eid)
	case breakerOpen:
		// Already demoted; an interpreter fault just restarts the
		// backoff clock at the current trip count.
		st.until = time.Now().Add(expBackoff(cfg.Base, cfg.Max, st.trips-1))
	}
	if escalate {
		// Tentatively parked open (so a racing fault lands in the
		// breakerOpen case instead of re-escalating); escalateBreaker
		// resolves the terminal state once the uninstall's journal
		// outcome is known.
		st.state = breakerOpen
		st.until = time.Time{}
	}
	trips := st.trips
	k.brkMu.Unlock()
	if escalate {
		k.escalateBreaker(owner, trips, eid)
	}
}

// openBreaker demotes owner and starts the backoff clock. Caller holds
// brkMu.
func (k *Kernel) openBreaker(owner string, st *breakerState, cfg *BreakerConfig, eid uint64) {
	if c := k.demoteCompiled(owner); c != nil {
		st.compiled = c
	}
	st.state = breakerOpen
	st.faults = 0
	st.clean = 0
	d := expBackoff(cfg.Base, cfg.Max, st.trips-1)
	st.until = time.Now().Add(d)
	if !st.armed {
		st.armed = true
		k.brkArmed.Add(1)
	}
	detail := fmt.Sprintf("trips=%d backoff=%s", st.trips, d)
	k.tel.Load().setBreakerState(owner, breakerOpen)
	k.audit.Load().breaker("open", owner, st.trips, detail, eid)
	k.flight(telemetry.FlightBreakerOpen, owner, detail, eid)
}

// escalateBreaker retires a filter whose faults survived MaxTrips
// demotion cycles: uninstall (journaled and audited like any other)
// plus an owner embargo under the quarantine config, when one is set.
// The uninstall can fail — a journal append against a sick or closed
// store aborts it, and the filter stays installed — and then the
// breaker must NOT stand down: the compiled form is demoted (the
// closed-state escalation path never went through openBreaker) and the
// record stays open and armed, so ticking, probation, and
// re-escalation continue until an uninstall finally commits. Only a
// committed uninstall is recorded as an escalation; a store failure is
// audited as such, and the owner is not embargoed for a disk's
// misbehavior. Called without brkMu held — the uninstall takes k.mu
// and the embargo takes quarMu.
func (k *Kernel) escalateBreaker(owner string, trips int, eid uint64) {
	if uerr := k.uninstall(owner); uerr != nil {
		k.brkMu.Lock()
		if st := k.brk[owner]; st != nil {
			if c := k.demoteCompiled(owner); c != nil {
				st.compiled = c
			}
			st.state = breakerOpen
			st.faults = 0
			st.clean = 0
			if cfg := k.brkCfg.Load(); cfg != nil {
				st.until = time.Now().Add(expBackoff(cfg.Base, cfg.Max, st.trips-1))
			}
			if !st.armed {
				st.armed = true
				k.brkArmed.Add(1)
			}
		}
		k.brkMu.Unlock()
		detail := fmt.Sprintf("trips=%d: uninstall failed, filter still installed, breaker held open: %v",
			trips, uerr)
		k.tel.Load().setBreakerState(owner, breakerOpen)
		k.audit.Load().breaker("escalate_failed", owner, trips, detail, eid)
		k.flight(telemetry.FlightBreakerOpen, owner, detail, eid)
		return
	}
	// The filter is gone (journaled and audited by the uninstall); the
	// supervision record becomes terminal: open, disarmed, never probing
	// again.
	k.brkMu.Lock()
	if st := k.brk[owner]; st != nil {
		st.state = breakerOpen
		st.compiled = nil
		st.until = time.Time{}
		if st.armed {
			st.armed = false
			k.brkArmed.Add(-1)
		}
	}
	k.brkMu.Unlock()
	detail := fmt.Sprintf("trips=%d: uninstalled", trips)
	k.audit.Load().breaker("escalate", owner, trips, detail, eid)
	k.flight(telemetry.FlightBreakerOpen, owner, detail, eid)
	k.tel.Load().dropBreakerState(owner)
	if qcfg := k.quarCfg.Load(); qcfg != nil {
		k.strike(qcfg, owner, qcfg.Threshold, eid, "breaker escalation: ")
	}
}

// breakerTick runs at the delivery preamble while any breaker is
// armed: every open breaker whose backoff has expired is promoted to
// half-open — compiled form back on probation — before the delivery
// loads its snapshot.
func (k *Kernel) breakerTick(eid uint64) {
	cfg := k.brkCfg.Load()
	if cfg == nil {
		return
	}
	now := time.Now()
	k.brkMu.Lock()
	for owner, st := range k.brk {
		if st.state != breakerOpen || st.until.IsZero() || now.Before(st.until) {
			continue
		}
		if st.compiled != nil {
			k.promoteCompiled(owner, st.compiled)
		}
		st.state = breakerHalfOpen
		st.clean = 0
		st.faults = 0
		detail := fmt.Sprintf("trips=%d: compiled on probation", st.trips)
		k.tel.Load().setBreakerState(owner, breakerHalfOpen)
		k.audit.Load().breaker("halfopen", owner, st.trips, detail, eid)
		k.flight(telemetry.FlightBreakerHalfOpen, owner, detail, eid)
	}
	k.brkMu.Unlock()
}

// breakerClean is the dispatch-path hook for a fault-free run (or
// batch of runs) of one filter: half-open breakers count it toward
// closing. Closed-state faults are deliberately NOT reset here — they
// accumulate until Threshold, as the package comment promises — both
// because a validated filter faulting at all is anomalous, and because
// this hook only runs while some breaker is armed, so any closed-state
// decay would depend on whether an unrelated filter happens to be
// open. Called only while armed.
func (k *Kernel) breakerClean(owner string, eid uint64) {
	cfg := k.brkCfg.Load()
	if cfg == nil {
		return
	}
	k.brkMu.Lock()
	st := k.brk[owner]
	if st == nil {
		k.brkMu.Unlock()
		return
	}
	switch st.state {
	case breakerHalfOpen:
		st.clean++
		if st.clean >= cfg.Threshold {
			st.state = breakerClosed
			st.faults = 0
			st.clean = 0
			st.compiled = nil // the live table holds it again
			if st.armed {
				st.armed = false
				k.brkArmed.Add(-1)
			}
			detail := fmt.Sprintf("trips=%d: re-admitted", st.trips)
			k.tel.Load().setBreakerState(owner, breakerClosed)
			k.audit.Load().breaker("close", owner, st.trips, detail, eid)
			k.flight(telemetry.FlightBreakerClose, owner, detail, eid)
		}
	}
	k.brkMu.Unlock()
}

// breakerForget drops owner's supervision record (fresh install: new
// binary, new history). Called after a successful install commit,
// without k.mu held.
func (k *Kernel) breakerForget(owner string) {
	if k.brkCfg.Load() == nil {
		return
	}
	k.brkMu.Lock()
	if st := k.brk[owner]; st != nil {
		if st.armed {
			k.brkArmed.Add(-1)
		}
		if st.state != breakerClosed {
			k.tel.Load().setBreakerState(owner, breakerClosed)
		}
		delete(k.brk, owner)
	}
	k.brkMu.Unlock()
}
