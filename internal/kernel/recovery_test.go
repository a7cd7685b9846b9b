package kernel

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/filters"
	"repro/internal/pktgen"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// TestStoreJournalsCommits: with a store attached, every acked
// install, uninstall, and backend retrofit is on disk — the exact
// binary bytes, in commit order — before the call returns.
func TestStoreJournalsCommits(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bins := certAll(t)
	k := New()
	k.SetStore(s)

	if err := k.InstallFilter("alice", bins[filters.Filter1]); err != nil {
		t.Fatal(err)
	}
	if err := k.InstallFilter("bob", bins[filters.Filter2]); err != nil {
		t.Fatal(err)
	}
	if err := k.UninstallFilter("alice"); err != nil {
		t.Fatal(err)
	}
	if err := k.SetBackend(BackendCompiled); err != nil {
		t.Fatal(err)
	}

	recs, _ := store.ReplayDir(dir)
	if len(recs) != 4 {
		t.Fatalf("journal holds %d records, want 4", len(recs))
	}
	wantKinds := []store.Kind{store.KindInstall, store.KindInstall, store.KindUninstall, store.KindRetrofit}
	wantOwners := []string{"alice", "bob", "alice", "backend"}
	for i, r := range recs {
		if r.Kind != wantKinds[i] || r.Owner != wantOwners[i] {
			t.Fatalf("record %d = %s/%q, want %s/%q", i, r.Kind, r.Owner, wantKinds[i], wantOwners[i])
		}
	}
	if !bytes.Equal(recs[1].Binary, bins[filters.Filter2]) {
		t.Fatal("journaled binary differs from the installed bytes")
	}
	if string(recs[3].Binary) != "compiled" {
		t.Fatalf("retrofit record carries %q, want \"compiled\"", recs[3].Binary)
	}
}

// TestRecoverRestoresVerdictEquivalent: a kernel recovered from the
// journal of a crashed one — no Close, the fsynced bytes are all that
// survives — must dispatch verdict-identically, honor uninstalls, and
// come back on the journaled backend.
func TestRecoverRestoresVerdictEquivalent(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bins := certAll(t)
	ka := New()
	ka.SetStore(s)
	for f, bin := range bins {
		if err := ka.InstallFilter(fmt.Sprintf("f-%d", f), bin); err != nil {
			t.Fatal(err)
		}
	}
	if err := ka.UninstallFilter(fmt.Sprintf("f-%d", filters.Filter3)); err != nil {
		t.Fatal(err)
	}
	if err := ka.SetBackend(BackendCompiled); err != nil {
		t.Fatal(err)
	}
	// Crash: the Store goroutine-local handle is simply abandoned.

	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	kb := New()
	rep, err := kb.Recover(context.Background(), s2)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(bins) - 1; rep.Restored != want || len(rep.Skipped) != 0 {
		t.Fatalf("recovery restored %d (skipped %d), want %d/0", rep.Restored, len(rep.Skipped), want)
	}
	if kb.Backend() != BackendCompiled {
		t.Fatalf("recovered backend %v, want compiled", kb.Backend())
	}
	if fmt.Sprint(kb.Owners()) != fmt.Sprint(ka.Owners()) {
		t.Fatalf("owners diverged: %v vs %v", kb.Owners(), ka.Owners())
	}
	for _, p := range pktgen.Generate(200, pktgen.Config{Seed: 9}) {
		va, err1 := ka.DeliverPacket(p)
		vb, err2 := kb.DeliverPacket(p)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if fmt.Sprint(va) != fmt.Sprint(vb) {
			t.Fatalf("verdicts diverged after recovery: %v vs %v", va, vb)
		}
	}

	// The recovered kernel's store is attached: new installs journal.
	if err := kb.InstallFilter("post-crash", bins[filters.Filter3]); err != nil {
		t.Fatal(err)
	}
	recs, _ := store.ReplayDir(dir)
	last := recs[len(recs)-1]
	if last.Kind != store.KindInstall || last.Owner != "post-crash" {
		t.Fatalf("post-recovery install not journaled: %+v", last)
	}
}

// TestRecoverRejectsTamperedProof is the PR's acceptance gate: flip
// one bit in a journaled record's proof section — recomputing the CRC,
// so the framing layer vouches for the corruption — and recovery must
// reject that record through the real LF checker while restoring the
// untouched ones. The rejection must be fully observable: audit
// records, a recovery_skip flight event, and the
// pcc_rejects_total{reason="recovery"} counter, all joined on one
// EventID across all three classes of the event log.
func TestRecoverRejectsTamperedProof(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bins := certAll(t)
	ka := New()
	ka.SetStore(s)
	if err := ka.InstallFilter("victim", bins[filters.Filter1]); err != nil {
		t.Fatal(err)
	}
	if err := ka.InstallFilter("bystander", bins[filters.Filter2]); err != nil {
		t.Fatal(err)
	}

	// Hostile disk: one bit of the first record's proof flips at rest.
	tampered, err := store.TamperBinaryByte(dir, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tampered != "victim" {
		t.Fatalf("tampered record belongs to %q, want victim", tampered)
	}

	kb := New()
	rec := telemetry.New()
	kb.SetRecorder(rec)
	kb.SetAuditLog(slog.New(rec.Log().Handler(nil)))
	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rep, err := kb.Recover(context.Background(), s2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 1 || len(rep.Skipped) != 1 {
		t.Fatalf("restored %d / skipped %d, want 1/1", rep.Restored, len(rep.Skipped))
	}
	skip := rep.Skipped[0]
	if skip.Owner != "victim" {
		t.Fatalf("skipped owner %q, want victim", skip.Owner)
	}
	var re *RecoveryError
	if !errors.As(skip.Err, &re) {
		t.Fatalf("skip error %v is not a *RecoveryError", skip.Err)
	}
	if got := fmt.Sprint(kb.Owners()); got != "[bystander]" {
		t.Fatalf("owners after recovery = %s, want [bystander]", got)
	}

	// The rejection is counted under reason=recovery.
	snap := rec.Snapshot(false)
	if snap.Labeled[MetricRejects]["recovery"] == 0 {
		t.Fatalf("pcc_rejects_total{reason=recovery} not incremented: %+v", snap.Labeled)
	}

	// One EventID selects all three classes: the recovery_skip flight
	// event, the audit records (the install rejection and the recovery
	// summary line), and the validate span of the re-check that failed.
	var eid uint64
	for _, e := range flightEvents(rec) {
		if e.Kind == telemetry.FlightRecoverySkip && e.Owner == "victim" {
			eid = e.Event
		}
	}
	if eid == 0 {
		t.Fatalf("no recovery_skip flight event for victim: %+v", flightEvents(rec))
	}
	tl := rec.Log().Timeline(telemetry.Query{Event: eid})
	var auditSkip, auditInstall bool
	for _, r := range tl.Audit {
		switch r.Kind {
		case "recovery_skip":
			auditSkip = true
		case "install":
			if r.Attrs["reject_reason"] == "recovery" {
				auditInstall = true
			}
		}
	}
	if !auditSkip || !auditInstall {
		t.Fatalf("audit records for event %d incomplete (skip=%v install=%v):\n%+v",
			eid, auditSkip, auditInstall, tl.Audit)
	}
	var spanJoined bool
	for _, e := range tl.Spans {
		if e.Stage == telemetry.StageValidate {
			spanJoined = true
		}
	}
	if !spanJoined {
		t.Fatalf("no validate span carries event %d", eid)
	}
}

// TestRecoverySkipDoesNotQuarantine: a record that fails re-validation
// during Recover means the journal's copy rotted, not that its owner
// ever submitted an unsound binary — so with quarantine configured
// (pccmon configures it before attaching the store), the skip must not
// add strikes, and the owner's post-recovery reinstall of the genuine
// binary must go straight through.
func TestRecoverySkipDoesNotQuarantine(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	bins := certAll(t)
	ka := New()
	ka.SetStore(s)
	if err := ka.InstallFilter("victim", bins[filters.Filter1]); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := store.TamperBinaryByte(dir, 0, 10); err != nil {
		t.Fatal(err)
	}

	kb := New()
	// Threshold 1: a single strike would embargo immediately.
	kb.SetQuarantine(QuarantineConfig{Threshold: 1, Base: time.Minute})
	s2, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rep, err := kb.Recover(context.Background(), s2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 0 || len(rep.Skipped) != 1 {
		t.Fatalf("restored %d / skipped %d, want 0/1", rep.Restored, len(rep.Skipped))
	}
	if _, embargoed := kb.Quarantined()["victim"]; embargoed {
		t.Fatal("recovery skip embargoed the innocent owner")
	}
	if err := kb.InstallFilter("victim", bins[filters.Filter1]); err != nil {
		t.Fatalf("post-recovery reinstall blocked: %v", err)
	}
}

// TestRecoverSkipsCorruptFrame: a frame whose CRC no longer matches is
// skipped at the framing layer — audited and flight-recorded under the
// recovery EventID — without disturbing the surrounding records, and
// without touching the install/rejection counters (no install attempt
// was made for bytes that never decoded).
func TestRecoverSkipsCorruptFrame(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bins := certAll(t)
	ka := New()
	ka.SetStore(s)
	if err := ka.InstallFilter("a", bins[filters.Filter1]); err != nil {
		t.Fatal(err)
	}
	if err := ka.InstallFilter("b", bins[filters.Filter2]); err != nil {
		t.Fatal(err)
	}

	// Flip a payload bit WITHOUT fixing the CRC: framing-level corruption.
	jpath := filepath.Join(dir, store.JournalName)
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	frames, _, err := store.ScanJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("journal has %d frames, want 2", len(frames))
	}
	data[frames[0].PayloadOff+20] ^= 0x01
	if err := os.WriteFile(jpath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	kb := New()
	rec := telemetry.New()
	kb.SetRecorder(rec)
	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rep, err := kb.Recover(context.Background(), s2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 1 || len(rep.Skipped) != 1 {
		t.Fatalf("restored %d / skipped %d, want 1/1", rep.Restored, len(rep.Skipped))
	}
	var ce *store.CorruptRecordError
	if !errors.As(rep.Skipped[0].Err, &ce) {
		t.Fatalf("skip error %v is not a *store.CorruptRecordError", rep.Skipped[0].Err)
	}
	var flagged bool
	for _, e := range flightEvents(rec) {
		if e.Kind == telemetry.FlightRecoverySkip {
			flagged = true
		}
	}
	if !flagged {
		t.Fatal("corrupt frame left no recovery_skip flight event")
	}
	st := kb.Stats()
	if st.Validations != st.Rejections+1 {
		t.Fatalf("accounting skew after framing skip: validations=%d rejections=%d",
			st.Validations, st.Rejections)
	}
}

// TestStoreAppendFailureRejectsInstall: when the journal cannot take
// the record, the install is REJECTED — the kernel never acks an
// install the disk does not hold — with reason "store", and the filter
// table is unchanged.
func TestStoreAppendFailureRejectsInstall(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bins := certAll(t)
	k := New()
	rec := telemetry.New()
	k.SetRecorder(rec)
	k.SetStore(s)
	s.Close() // the disk goes away

	err = k.InstallFilter("alice", bins[filters.Filter1])
	if err == nil {
		t.Fatal("install acked with a dead journal")
	}
	var se *StoreError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a *StoreError", err)
	}
	if len(k.Owners()) != 0 {
		t.Fatalf("filter published despite journal failure: %v", k.Owners())
	}
	if rec.Snapshot(false).Labeled[MetricRejects]["store"] == 0 {
		t.Fatal("store rejection not counted under reason=store")
	}
	// An uninstall against the dead journal must also refuse (and leave
	// nothing to refuse here — but the error path must not panic).
	if err := k.UninstallFilter("alice"); err != nil {
		t.Fatalf("uninstall of absent filter errored: %v", err)
	}
}

// TestRecoveryAtScale is the crash-consistency suite's volume test
// (run under -race in CI): 200 filters installed through the batch
// pipeline with a store attached, a crash that tears the journal
// mid-append, recovery into a fresh kernel — which must be
// verdict-equivalent to the pre-crash kernel over a packet sweep and
// reconcile its install accounting exactly after a quiesce.
func TestRecoveryAtScale(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{NoSync: true}) // fsync×200 is test time, not coverage
	if err != nil {
		t.Fatal(err)
	}
	bins := certAll(t)
	all := make([][]byte, 0, len(bins))
	for _, f := range filters.All {
		all = append(all, bins[f])
	}
	const n = 200
	reqs := make([]InstallRequest, n)
	for i := range reqs {
		reqs[i] = InstallRequest{Owner: fmt.Sprintf("o-%03d", i), Binary: all[i%len(all)]}
	}
	ka := New()
	ka.SetStore(s)
	for i, err := range ka.InstallFilterBatch(reqs) {
		if err != nil {
			t.Fatalf("install %d: %v", i, err)
		}
	}
	// Crash mid-append of record 201: a frame header promising more
	// bytes than the file holds.
	jf, err := os.OpenFile(filepath.Join(dir, store.JournalName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	var torn [13]byte
	binary.LittleEndian.PutUint32(torn[0:4], 300) // length the tail doesn't have
	if _, err := jf.Write(torn[:]); err != nil {
		t.Fatal(err)
	}
	jf.Close()
	// The tear is real on disk; Open heals it (truncating to the last
	// frame boundary) so recovery proper replays a clean journal.
	if _, rr := store.ReplayDir(dir); rr.TornTail == nil {
		t.Fatal("torn tail not visible on the raw journal")
	}

	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	kb := New()
	rep, err := kb.Recover(context.Background(), s2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != n || len(rep.Skipped) != 0 {
		t.Fatalf("restored %d / skipped %d, want %d/0", rep.Restored, len(rep.Skipped), n)
	}

	pkts := pktgen.Generate(100, pktgen.Config{Seed: 41})
	raw := make([][]byte, len(pkts))
	for i := range pkts {
		raw[i] = pkts[i].Data
	}
	va, err1 := ka.DeliverPackets(raw)
	vb, err2 := kb.DeliverPackets(raw)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if fmt.Sprint(va) != fmt.Sprint(vb) {
		t.Fatal("batch verdicts diverged after recovery at scale")
	}

	kb.Quiesce()
	st := kb.Stats()
	if st.Validations != n || st.Rejections != 0 {
		t.Fatalf("recovered kernel accounting: validations=%d rejections=%d, want %d/0",
			st.Validations, st.Rejections, n)
	}
	if st.Packets != len(pkts) {
		t.Fatalf("recovered kernel saw %d packets, want %d", st.Packets, len(pkts))
	}
}

// TestTenantAttachStore: the registry wiring — per-tenant store
// directories, recovery at attach, journaling after, closed cleanly.
func TestTenantAttachStore(t *testing.T) {
	base := t.TempDir()
	bins := certAll(t)

	reg := NewRegistry()
	ta, err := reg.Create("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AttachStores(context.Background(), base, store.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := ta.Kernel.InstallFilter("a1", bins[filters.Filter1]); err != nil {
		t.Fatal(err)
	}
	if err := reg.CloseStores(); err != nil {
		t.Fatal(err)
	}

	// Reboot: a fresh registry over the same directory recovers.
	reg2 := NewRegistry()
	tb, err := reg2.Create("alpha")
	if err != nil {
		t.Fatal(err)
	}
	reps, err := reg2.AttachStores(context.Background(), base, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reps["alpha"].Restored != 1 {
		t.Fatalf("tenant recovery restored %d, want 1", reps["alpha"].Restored)
	}
	if got := fmt.Sprint(tb.Kernel.Owners()); got != "[a1]" {
		t.Fatalf("tenant owners after reboot = %s", got)
	}
	if err := reg2.CloseStores(); err != nil {
		t.Fatal(err)
	}
}
