// Structured audit trail. Every security-relevant kernel decision —
// policy negotiation, filter/handler install or rejection, proof-cache
// eviction, uninstall — is recorded through a log/slog.Logger with
// enough context to reconstruct the decision from the log alone: the
// policy's content digest, the binary's SHA-256 and size, the VC size
// and LF check steps, the per-stage validation durations, the static
// WCET, and — when a proof fails to check — the first failing LF
// subterm the checker rejected.
//
// Like the telemetry recorder, the sink hangs off an atomic pointer
// and every hook tolerates the disabled state, so a kernel without an
// audit log pays one atomic load per decision and nothing on the
// dispatch path (dispatch is deliberately not audited: millions of
// packets per second belong in metrics, not logs).
package kernel

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"log/slog"
	"time"

	pcc "repro"
	"repro/internal/lf"
	"repro/internal/policy"
)

// auditor wraps the configured logger. A nil *auditor is the disabled
// state.
type auditor struct {
	log *slog.Logger
}

// SetAuditLog attaches a structured audit logger to the kernel (nil
// detaches). The swap is atomic and safe while installs are in
// flight.
func (k *Kernel) SetAuditLog(l *slog.Logger) {
	if l == nil {
		k.audit.Store(nil)
		return
	}
	k.audit.Store(&auditor{log: l})
}

// AuditLog returns the attached audit logger, or nil.
func (k *Kernel) AuditLog() *slog.Logger {
	a := k.audit.Load()
	if a == nil {
		return nil
	}
	return a.log
}

// validationAudit carries the forensic context of one validation
// attempt from the lock-free validation stage to the commit section,
// where the final verdict is known and the install record is written.
type validationAudit struct {
	event      uint64 // correlation EventID shared with spans and flight events
	owner      string
	kind       string // "filter" or "handler"
	binSHA     string // hex SHA-256 of the binary bytes
	binBytes   int
	policyName string
	policyKey  *pcc.Keyer // the policy's keyer, which holds its digest
	cacheHit   bool
	stats      *pcc.ValidationStats // nil on cache hit or parse-level failure
	started    time.Time
}

// newValidationAudit starts an audit record for one install attempt.
// Returns nil when auditing is disabled, and every later hook
// tolerates that.
func (a *auditor) newValidationAudit(kind, owner string, binary []byte, eid uint64) *validationAudit {
	if a == nil {
		return nil
	}
	sum := sha256.Sum256(binary)
	return &validationAudit{
		event:    eid,
		owner:    owner,
		kind:     kind,
		binSHA:   hex.EncodeToString(sum[:]),
		binBytes: len(binary),
		started:  time.Now(),
	}
}

// setPolicy records which policy the verdict was reached under. The
// digest comes from the candidate's keyer, which computed it once when
// the policy was published.
func (va *validationAudit) setPolicy(c candidate) {
	if va == nil {
		return
	}
	va.policyName = c.pol.Name
	va.policyKey = c.keyer
}

// setStats attaches the stage breakdown of a full (non-cached)
// validation.
func (va *validationAudit) setStats(st *pcc.ValidationStats) {
	if va == nil {
		return
	}
	va.stats = st
}

// setCacheHit marks the attempt as served from the proof cache.
func (va *validationAudit) setCacheHit() {
	if va == nil {
		return
	}
	va.cacheHit = true
}

// install writes the final install record: one line per decision,
// Info for installs, Warn for rejections.
func (a *auditor) install(va *validationAudit, slot *cacheSlot, err error) {
	if a == nil || va == nil {
		return
	}
	cache := "miss"
	if va.cacheHit {
		cache = "hit"
	}
	var policyDigest string
	if va.policyKey != nil {
		d := va.policyKey.PolicyDigest()
		policyDigest = hex.EncodeToString(d[:])
	}
	attrs := []any{
		slog.String("event", "install"),
		slog.Uint64("event_id", va.event),
		slog.String("kind", va.kind),
		slog.String("owner", va.owner),
		slog.String("policy", va.policyName),
		slog.String("policy_digest", policyDigest),
		slog.String("binary_sha256", va.binSHA),
		slog.Int("binary_bytes", va.binBytes),
		slog.String("cache", cache),
		slog.Duration("decision_time", time.Since(va.started)),
	}
	if st := va.stats; st != nil {
		attrs = append(attrs,
			slog.Int("vc_nodes", st.VCNodes),
			slog.Int("check_steps", st.CheckSteps),
			slog.Int64("parse_us", st.Parse.Microseconds()),
			slog.Int64("lfsig_us", st.SigCheck.Microseconds()),
			slog.Int64("vcgen_us", st.VCGen.Microseconds()),
			slog.Int64("lfcheck_us", st.Check.Microseconds()),
			slog.Bool("proof_reused", st.ProofReused),
		)
	}
	if slot != nil && slot.wcetErr == nil {
		attrs = append(attrs, slog.Int64("wcet_cycles", slot.wcet))
	}
	if err == nil {
		attrs = append(attrs, slog.String("verdict", "installed"))
		a.log.Info("pcc install", attrs...)
		return
	}
	attrs = append(attrs,
		slog.String("verdict", "rejected"),
		slog.String("reject_reason", installRejectReason(err)),
		slog.String("error", err.Error()),
	)
	// On a proof-check failure, surface the first failing LF subterm:
	// the exact point in the proof the checker rejected.
	var te *lf.TypeError
	if errors.As(err, &te) && te.Subterm != "" {
		attrs = append(attrs, slog.String("lf_failing_subterm", te.Subterm))
	}
	// On a contained panic, surface the stage and the panic value —
	// the forensic trail for a crash-grade bug an adversarial blob
	// found in the validator.
	var pe *pcc.PanicError
	if errors.As(err, &pe) {
		attrs = append(attrs,
			slog.String("panic_stage", pe.Stage),
			slog.String("panic_value", pe.Value),
		)
	}
	a.log.Warn("pcc install", attrs...)
}

// quarantine records the start (or extension) of a producer embargo.
func (a *auditor) quarantine(qe *QuarantineError, eid uint64) {
	if a == nil {
		return
	}
	a.log.Warn("pcc quarantine",
		slog.String("event", "quarantine"),
		slog.Uint64("event_id", eid),
		slog.String("owner", qe.Owner),
		slog.Time("until", qe.Until),
		slog.Int("strikes", qe.Strikes),
	)
}

// configChange records an operator changing the kernel's posture:
// backend, profiling, validation limits, quarantine policy. The old
// and new values make the log a self-contained timeline of what the
// kernel was running with at any moment.
func (a *auditor) configChange(setting, oldVal, newVal string, eid uint64) {
	if a == nil {
		return
	}
	a.log.Info("pcc config",
		slog.String("event", "config"),
		slog.Uint64("event_id", eid),
		slog.String("setting", setting),
		slog.String("old", oldVal),
		slog.String("new", newVal),
	)
}

// negotiate records a §4 policy-negotiation verdict. An accepted
// proposal's digest comes from the keyer it is published with; a
// refused one (ky nil) is never published, so only its record digests
// it.
func (a *auditor) negotiate(pol *policy.Policy, ky *pcc.Keyer, eid uint64, err error) {
	if a == nil {
		return
	}
	var dig [sha256.Size]byte
	if ky != nil {
		dig = ky.PolicyDigest()
	} else {
		dig = pol.Digest()
	}
	attrs := []any{
		slog.String("event", "negotiate"),
		slog.Uint64("event_id", eid),
		slog.String("policy", pol.Name),
		slog.String("policy_digest", hex.EncodeToString(dig[:])),
	}
	if err == nil {
		a.log.Info("pcc negotiate", append(attrs, slog.String("verdict", "accepted"))...)
		return
	}
	a.log.Warn("pcc negotiate", append(attrs,
		slog.String("verdict", "rejected"), slog.String("error", err.Error()))...)
}

// evict records proof-cache evictions caused by one install.
func (a *auditor) evict(n int64, eid uint64) {
	if a == nil || n == 0 {
		return
	}
	a.log.Info("pcc cache evict", slog.String("event", "evict"),
		slog.Uint64("event_id", eid), slog.Int64("entries", n))
}

// uninstall records a filter removal.
func (a *auditor) uninstall(owner string, eid uint64) {
	if a == nil {
		return
	}
	a.log.Info("pcc uninstall", slog.String("event", "uninstall"),
		slog.Uint64("event_id", eid), slog.String("owner", owner))
}

// storeError records a durability-store failure outside the install
// path (install-path append failures land in the install record with
// reject_reason=store).
func (a *auditor) storeError(op, owner string, err error, eid uint64) {
	if a == nil {
		return
	}
	a.log.Error("pcc store",
		slog.String("event", "store_error"),
		slog.Uint64("event_id", eid),
		slog.String("op", op),
		slog.String("owner", owner),
		slog.String("error", err.Error()),
	)
}

// recoverySkip records one journal record recovery could not restore:
// either the frame itself was corrupt (owner unknown, seq possibly
// unknown) or the record decoded but its binary no longer proves safe.
// The companion install record (reject_reason=recovery) carries the
// full validation forensics; this line is the recovery-scoped summary
// an operator greps for after a crash.
func (a *auditor) recoverySkip(seq uint64, owner string, err error, eid uint64) {
	if a == nil {
		return
	}
	a.log.Warn("pcc recovery",
		slog.String("event", "recovery_skip"),
		slog.Uint64("event_id", eid),
		slog.Uint64("seq", seq),
		slog.String("owner", owner),
		slog.String("error", err.Error()),
	)
}

// recovered records the boot-time recovery summary.
func (a *auditor) recovered(dir string, restored, skipped, stale int, torn bool, eid uint64) {
	if a == nil {
		return
	}
	a.log.Info("pcc recovery",
		slog.String("event", "recovered"),
		slog.Uint64("event_id", eid),
		slog.String("dir", dir),
		slog.Int("restored", restored),
		slog.Int("skipped", skipped),
		slog.Int("stale", stale),
		slog.Bool("torn_tail", torn),
	)
}

// breaker records a circuit-breaker state transition for one filter:
// open (demoted to interpreter), halfopen (compiled on probation),
// close (re-admitted), or escalate (uninstalled after MaxTrips).
func (a *auditor) breaker(transition, owner string, trips int, detail string, eid uint64) {
	if a == nil {
		return
	}
	a.log.Warn("pcc breaker",
		slog.String("event", "breaker_"+transition),
		slog.Uint64("event_id", eid),
		slog.String("owner", owner),
		slog.Int("trips", trips),
		slog.String("detail", detail),
	)
}
