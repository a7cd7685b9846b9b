// Durability and verified recovery. The kernel can attach an
// internal/store write-ahead journal (SetStore): once attached, every
// install, uninstall, and backend retrofit goes through one journaled
// commit (commit, below) and is durable before it becomes visible, so
// an acked operation survives a crash at any instant. The commit
// writes its record under the kernel lock but waits for the fsync
// without it, so the next install can validate and write meanwhile,
// and one fsync covers every record written before it began. Commits
// publish in journal order, so the live table is always the fold of
// the journal, even for concurrent operations on one owner; a commit
// whose fsync failed publishes nothing, and the store cuts its record
// back out of the journal.
//
// Recovery (Recover) inverts the arrow, and this is where the paper's
// thesis bites: the disk is just another untrusted code producer. The
// journal's checksums classify corruption — a torn tail, a flipped
// length word — but they never vouch for content; a record that frames
// perfectly may still carry a bit-rotted (or maliciously rewritten)
// proof. So recovery re-runs every replayed binary through the
// validation pipeline — parse, VC generation, LF proof check, WCET —
// exactly as if a hostile process had just submitted it. Each
// record's VC is recomputed from its own code; an identical proof
// against an identical VC is checked once per boot (the policy keyer
// remembers the checks it made, see pcc.Keyer). A record that no
// longer proves safe is skipped with a typed *RecoveryError, audited,
// flight-recorded, and counted under
// pcc_rejects_total{reason="recovery"}; the rest of the set restores.
// The kernel that finishes Recover holds only extensions whose proofs
// this kernel checked against the VC of their own code, never ones an
// earlier boot vouched for.
package kernel

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/store"
	"repro/internal/telemetry"
)

// retrofitBackend is the owner key under which backend retrofits are
// journaled (KindRetrofit records are keyed by setting name, not by a
// producer).
const retrofitBackend = "backend"

// StoreError reports a durability-store failure during a journaled
// kernel operation. On the install path it surfaces as a rejection
// with reason "store": the filter was valid, but the kernel refused to
// ack an install the disk does not hold.
type StoreError struct {
	Op  string // "append", "close", ...
	Err error
}

// Error implements the error interface.
func (e *StoreError) Error() string { return fmt.Sprintf("kernel: store %s failed: %v", e.Op, e.Err) }

// Unwrap exposes the underlying store error.
func (e *StoreError) Unwrap() error { return e.Err }

// RecoveryError reports a journaled record that failed re-validation
// during Recover: the frame was intact (checksummed), but the binary
// inside no longer proves safe against the published policy. It wraps
// the validation verdict, so errors.As still reaches the typed
// pcc/lf errors underneath and the audit record carries the failing
// LF subterm.
type RecoveryError struct {
	Seq uint64
	Err error
}

// Error implements the error interface.
func (e *RecoveryError) Error() string {
	return fmt.Sprintf("kernel: journal record seq=%d failed re-validation: %v", e.Seq, e.Err)
}

// Unwrap exposes the validation verdict.
func (e *RecoveryError) Unwrap() error { return e.Err }

// commit is the one journaled commit of installs, uninstalls and
// backend retrofits:
//
//  1. Under k.mu it runs pre, the operation's own checks (a failure
//     is returned as is), writes rec to the attached store, and takes
//     the next turn.
//  2. Without k.mu it waits for the record to be durable (store.Sync).
//  3. Back under k.mu it waits for its turn: every commit that wrote
//     before it has published or failed.
//  4. Only if the record is durable it runs publish, which builds the
//     new table from the table as it is now. Either way it passes the
//     turn on.
//
// A durable record is thus visible only after every record before it
// in the journal, and a record that is not durable is never visible. A
// nil rec (Recover's replays, which are already in the journal) or no
// attached store skips the journal but still publishes in turn. A
// store failure is returned as a *StoreError.
func (k *Kernel) commit(rec *store.Record, pre func() error, publish func()) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if err := pre(); err != nil {
		return err
	}
	st := k.wal.Load()
	if rec == nil {
		st = nil
	}
	var tok store.Token
	if st != nil {
		var err error
		if tok, err = st.Write(rec.Kind, rec.Owner, rec.Binary); err != nil {
			return &StoreError{Op: "append", Err: err}
		}
	}
	turn := k.turnNext
	k.turnNext++
	var serr error
	if st != nil {
		k.mu.Unlock()
		serr = st.Sync(tok)
		k.mu.Lock()
	}
	for k.turnDone != turn {
		k.turnCond.Wait()
	}
	if serr == nil {
		publish()
	}
	k.turnDone++
	k.turnCond.Broadcast()
	if serr != nil {
		return &StoreError{Op: "append", Err: serr}
	}
	return nil
}

// SetStore attaches a durability store to the kernel (nil detaches).
// From the attach on, installs ack only after their journal record is
// on disk. Attaching does NOT replay the store — use Recover for a
// boot-time restore, which attaches the store itself after replaying
// it. The caller keeps ownership of the store's lifetime (Close).
func (k *Kernel) SetStore(s *store.Store) {
	old := "detached"
	if k.wal.Load() != nil {
		old = "attached"
	}
	k.wal.Store(s)
	nv := "detached"
	if s != nil {
		nv = "attached:" + s.Dir()
	}
	k.configChange("store", old, nv)
}

// Store returns the attached durability store, or nil.
func (k *Kernel) Store() *store.Store { return k.wal.Load() }

// RecoverySkip is one journal record Recover could not restore.
type RecoverySkip struct {
	Seq   uint64 // 0 when the frame was too corrupt to carry a sequence
	Owner string // "" when the frame did not decode
	Err   error
}

// RecoveryReport summarizes one Recover run.
type RecoveryReport struct {
	// Restored counts filters re-validated and re-installed.
	Restored int
	// Skipped lists every record that did not restore: corrupt frames
	// (from the replay layer) and intact frames whose binaries failed
	// re-validation (typed *RecoveryError inside).
	Skipped []RecoverySkip
	// Stale counts records superseded by the snapshot (evidence of a
	// crash between compaction's rename and the journal truncate —
	// harmless, the snapshot wins).
	Stale int
	// TornTail reports whether the journal ended mid-record (a crash
	// during an append; everything before the tear restored normally).
	TornTail bool
	// RecordNanos holds per-record restore latencies (validation +
	// commit) in replay order, the raw series behind the recovery
	// benchmark's p99.
	RecordNanos []int64
	// Duration is the wall-clock cost of the whole Recover call.
	Duration time.Duration
}

// Recover replays the store into the kernel and then attaches it. The
// journal is read through the checksummed replay layer (corrupt and
// out-of-order frames are skipped, a torn tail truncates the replay),
// folded to the live set — last install per owner wins, uninstalls
// erase, the last backend retrofit is re-applied first — and every
// surviving binary is re-validated through the PCC pipeline before it
// is re-installed (its VC recomputed from its own code; a proof the
// keyer already checked against that VC is not checked again). No journal writes happen during replay
// (the records being replayed are already on disk); the store attaches
// for write-ahead duty only once replay finishes, so Recover composes
// with an empty directory as "cold boot".
//
// The skip policy is deliberate: recovery restores what still proves
// safe and drops the rest, rather than refusing to boot. A kernel that
// halts on one rotten record is a denial-of-service amplifier; a
// kernel that silently accepts it is unsound. Every skip is audited,
// flight-recorded (recovery_skip), and counted, so a partial restore
// is loud. The error return is reserved for environmental failure
// (unreadable journal, canceled context) — individual record verdicts
// never fail the call.
func (k *Kernel) Recover(ctx context.Context, s *store.Store) (*RecoveryReport, error) {
	start := time.Now()
	tel := k.tel.Load()
	eid := k.nextEvent(tel)
	span := tel.span(telemetry.StageRecover, "", s.Dir(), eid)
	rep := &RecoveryReport{}

	recs, rr, err := s.Replay()
	if err != nil {
		err = fmt.Errorf("kernel: recovery replay: %w", err)
		span.End(err)
		return nil, err
	}
	rep.Stale = rr.Stale
	rep.TornTail = rr.TornTail != nil
	aud := k.audit.Load()
	// Framing-level skips: the record never decoded, so there is no
	// binary to judge and no install attempt to account — these are
	// audited and flight-recorded under the recovery EventID but do not
	// touch the Validations/Rejections counters.
	for _, serr := range rr.Skipped {
		tel.reject("recovery")
		aud.recoverySkip(0, "", serr, eid)
		k.flight(telemetry.FlightRecoverySkip, "", serr.Error(), eid)
		rep.Skipped = append(rep.Skipped, RecoverySkip{Err: serr})
	}

	// Fold to the live set: last install per owner wins, uninstalls
	// erase, the last backend retrofit is what the kernel was running.
	live := map[string]store.Record{}
	var backendRec *store.Record
	for i := range recs {
		r := recs[i]
		switch r.Kind {
		case store.KindInstall:
			live[r.Owner] = r
		case store.KindUninstall:
			delete(live, r.Owner)
		case store.KindRetrofit:
			if r.Owner == retrofitBackend {
				backendRec = &recs[i]
			}
		}
	}
	if backendRec != nil {
		b, perr := ParseBackend(string(backendRec.Binary))
		if perr == nil {
			perr = k.SetBackend(b)
		}
		if perr != nil {
			serr := &RecoveryError{Seq: backendRec.Seq, Err: perr}
			tel.reject("recovery")
			aud.recoverySkip(backendRec.Seq, retrofitBackend, serr, eid)
			k.flight(telemetry.FlightRecoverySkip, retrofitBackend, serr.Error(), eid)
			rep.Skipped = append(rep.Skipped, RecoverySkip{Seq: backendRec.Seq, Owner: retrofitBackend, Err: serr})
		}
	}

	ordered := make([]store.Record, 0, len(live))
	for _, r := range live {
		ordered = append(ordered, r)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Seq < ordered[j].Seq })

	for _, r := range ordered {
		if cerr := ctx.Err(); cerr != nil {
			span.End(cerr)
			return rep, fmt.Errorf("kernel: recovery aborted: %w", cerr)
		}
		// Each record's restore is its own install attempt with its own
		// EventID: the validate span tree, the audit install record, and
		// any recovery_skip flight event all join on it.
		reid := k.nextEvent(tel)
		t0 := time.Now()
		slot, va, verr := k.validate(ctx, "filter", r.Owner, r.Binary, reid, nil)
		if verr != nil {
			verr = &RecoveryError{Seq: r.Seq, Err: verr}
		}
		ierr := k.commitFilter(r.Owner, r.Binary, slot, va, verr, reid, false)
		rep.RecordNanos = append(rep.RecordNanos, time.Since(t0).Nanoseconds())
		if ierr != nil {
			aud.recoverySkip(r.Seq, r.Owner, ierr, reid)
			k.flight(telemetry.FlightRecoverySkip, r.Owner, ierr.Error(), reid)
			rep.Skipped = append(rep.Skipped, RecoverySkip{Seq: r.Seq, Owner: r.Owner, Err: ierr})
			continue
		}
		rep.Restored++
	}

	// Only now does the store go live for write-ahead duty: replayed
	// records were already durable, and attaching earlier would have
	// re-journaled every restore.
	k.wal.Store(s)
	rep.Duration = time.Since(start)
	aud.recovered(s.Dir(), rep.Restored, len(rep.Skipped), rep.Stale, rep.TornTail, eid)
	span.End(nil)
	return rep, nil
}
