package kernel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"testing"

	pcc "repro"
	"repro/internal/filters"
	"repro/internal/policy"
)

// auditRecords parses a JSON-handler slog buffer into one map per
// line.
func auditRecords(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var recs []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("audit line is not JSON: %v\n%s", err, line)
		}
		recs = append(recs, m)
	}
	return recs
}

func findRecord(recs []map[string]any, want map[string]any) map[string]any {
outer:
	for _, r := range recs {
		for k, v := range want {
			if fmt.Sprint(r[k]) != fmt.Sprint(v) {
				continue outer
			}
		}
		return r
	}
	return nil
}

// TestAuditTrail drives one of every decision through a kernel with a
// JSON audit logger attached and checks that each record carries
// enough context to reconstruct the decision: policy digest, binary
// SHA-256, VC size, per-stage durations, WCET, and the verdict.
func TestAuditTrail(t *testing.T) {
	var buf bytes.Buffer
	k := New()
	k.SetAuditLog(slog.New(slog.NewJSONHandler(&buf, nil)))
	if k.AuditLog() == nil {
		t.Fatal("AuditLog lost the attached logger")
	}

	pol := policy.PacketFilter()
	cert, err := pcc.Certify(filters.SrcFilter1, pol, nil)
	if err != nil {
		t.Fatal(err)
	}

	if err := k.NegotiateFilterPolicy(pol); err != nil {
		t.Fatal(err)
	}
	if err := k.InstallFilter("good", cert.Binary); err != nil {
		t.Fatal(err)
	}
	if err := k.InstallFilter("warm", cert.Binary); err != nil { // cache hit
		t.Fatal(err)
	}
	if err := k.InstallFilter("junk", []byte("not a pcc binary")); err == nil {
		t.Fatal("garbage installed")
	}
	k.UninstallFilter("good")

	recs := auditRecords(t, &buf)

	neg := findRecord(recs, map[string]any{"event": "negotiate"})
	if neg == nil {
		t.Fatalf("no negotiate record in %d records", len(recs))
	}
	if neg["verdict"] != "accepted" || len(fmt.Sprint(neg["policy_digest"])) != 64 {
		t.Fatalf("bad negotiate record: %v", neg)
	}

	inst := findRecord(recs, map[string]any{"event": "install", "owner": "good"})
	if inst == nil {
		t.Fatal("no install record for owner good")
	}
	if inst["verdict"] != "installed" || inst["kind"] != "filter" || inst["cache"] != "miss" {
		t.Fatalf("bad install record: %v", inst)
	}
	if len(fmt.Sprint(inst["policy_digest"])) != 64 || len(fmt.Sprint(inst["binary_sha256"])) != 64 {
		t.Fatalf("install record missing digests: %v", inst)
	}
	if n, ok := inst["vc_nodes"].(float64); !ok || n <= 0 {
		t.Fatalf("install record missing vc_nodes: %v", inst)
	}
	if n, ok := inst["check_steps"].(float64); !ok || n <= 0 {
		t.Fatalf("install record missing check_steps: %v", inst)
	}
	for _, stage := range []string{"parse_us", "lfsig_us", "vcgen_us", "lfcheck_us"} {
		if _, ok := inst[stage]; !ok {
			t.Fatalf("install record missing stage duration %s: %v", stage, inst)
		}
	}
	if w, ok := inst["wcet_cycles"].(float64); !ok || w <= 0 {
		t.Fatalf("install record missing wcet_cycles: %v", inst)
	}

	warm := findRecord(recs, map[string]any{"event": "install", "owner": "warm"})
	if warm == nil || warm["cache"] != "hit" || warm["verdict"] != "installed" {
		t.Fatalf("bad cache-hit record: %v", warm)
	}
	if _, hasStats := warm["vc_nodes"]; hasStats {
		t.Fatalf("cache-hit record carries validation stats: %v", warm)
	}

	rej := findRecord(recs, map[string]any{"event": "install", "owner": "junk"})
	if rej == nil || rej["verdict"] != "rejected" || rej["error"] == nil {
		t.Fatalf("bad rejection record: %v", rej)
	}

	if un := findRecord(recs, map[string]any{"event": "uninstall", "owner": "good"}); un == nil {
		t.Fatal("no uninstall record")
	}
}

// TestAuditFailingSubterm: a proof that fails LF typechecking must
// yield a rejection record naming the first failing LF subterm, the
// forensic hook the issue asks for.
func TestAuditFailingSubterm(t *testing.T) {
	pol := policy.PacketFilter()
	cert, err := pcc.Certify(filters.SrcFilter1, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	k := New()
	k.SetAuditLog(slog.New(slog.NewJSONHandler(&buf, nil)))

	// Flip single bytes across the proof region until one produces a
	// proof-level (LF) failure; different offsets fail at different
	// layers (parse vs. typecheck), so scan a range.
	found := false
	for off := cert.Layout.ProofOff; off < len(cert.Binary) && !found; off++ {
		tampered := bytes.Clone(cert.Binary)
		tampered[off] ^= 0x55
		owner := fmt.Sprintf("evil-%d", off)
		if err := k.InstallFilter(owner, tampered); err == nil {
			t.Fatalf("tampered proof at offset %d installed", off)
		}
		for _, r := range auditRecords(t, &buf) {
			if r["owner"] == owner && r["lf_failing_subterm"] != nil &&
				fmt.Sprint(r["lf_failing_subterm"]) != "" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no rejection record carried lf_failing_subterm")
	}
}

// TestAuditHandlerInstall: §5.2 handler installs are audited with
// kind "handler".
func TestAuditHandlerInstall(t *testing.T) {
	cert, err := pcc.Certify(`
        ADDQ  r0, 8, r1
        LDQ   r0, 8(r0)
L1:     RET
	`, pcc.ResourceAccessPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	k := New()
	k.SetAuditLog(slog.New(slog.NewJSONHandler(&buf, nil)))
	k.CreateTable(7, 1, 2)
	if err := k.InstallHandler(7, cert.Binary); err != nil {
		t.Fatal(err)
	}
	rec := findRecord(auditRecords(t, &buf), map[string]any{"event": "install", "kind": "handler"})
	if rec == nil {
		t.Fatal("no handler install record")
	}
	if rec["owner"] != "pid-7" || rec["verdict"] != "installed" {
		t.Fatalf("bad handler record: %v", rec)
	}
}

// TestAuditDisabledZeroOverhead: with no logger attached every hook
// must be inert (nil auditor, nil validationAudit).
func TestAuditDisabledZeroOverhead(t *testing.T) {
	k := New()
	if k.AuditLog() != nil {
		t.Fatal("fresh kernel has an audit logger")
	}
	var a *auditor
	va := a.newValidationAudit("filter", "x", nil, 5)
	if va != nil {
		t.Fatal("disabled auditor produced a record")
	}
	// All hooks must tolerate nil receivers without panicking.
	va.setPolicy(k.candidates("filter", nil)[0])
	va.setStats(nil)
	va.setCacheHit()
	a.install(va, nil, nil)
	a.evict(3, 7)
	a.uninstall("x", 8)
}
