// Event-log export: `tracegen -export DIR` replays the generated trace
// through a fully observed kernel and writes its event log — spans,
// audit records and flight events, one JSON object per line — to
// DIR/events.jsonl (decoded by telemetry.ReadJSONL).
//
// Every event carries the kernel's correlation EventID, so one filter
// on that key selects an operation's whole story offline: the same
// query /debug/timeline answers live, but against an artifact a bug
// report can attach.
package main

import (
	"log/slog"
	"os"
	"path/filepath"

	pcc "repro"
	"repro/internal/filters"
	"repro/internal/kernel"
	"repro/internal/pktgen"
	"repro/internal/telemetry"
)

// exportStreams installs the paper filters into an instrumented
// kernel, delivers pkts through the vectorized dispatch path, and
// writes the kernel's event log into dir/events.jsonl.
func exportStreams(dir string, pkts []pktgen.Packet) error {
	k := kernel.New()
	rec := telemetry.New()
	k.SetRecorder(rec)
	k.SetAuditLog(slog.New(rec.Log().Handler(nil)))

	var reqs []kernel.InstallRequest
	for _, f := range filters.All {
		cert, err := pcc.Certify(filters.Source(f), k.FilterPolicy(), nil)
		if err != nil {
			return err
		}
		reqs = append(reqs, kernel.InstallRequest{Owner: f.String(), Binary: cert.Binary})
	}
	for _, err := range k.InstallFilterBatch(reqs) {
		if err != nil {
			return err
		}
	}
	// A config change is the one operation that lands in all three
	// classes by construction (span + audit record + flight event on
	// one EventID), so the export always demonstrates a three-class
	// selection even over a clean trace with no dispatch anomalies.
	if err := k.SetBackend(kernel.BackendCompiled); err != nil {
		return err
	}

	raw := make([][]byte, 0, 1024)
	for lo := 0; lo < len(pkts); lo += 1024 {
		hi := lo + 1024
		if hi > len(pkts) {
			hi = len(pkts)
		}
		raw = raw[:0]
		for _, p := range pkts[lo:hi] {
			raw = append(raw, p.Data)
		}
		if _, err := k.DeliverPackets(raw); err != nil {
			return err
		}
	}

	f, err := os.Create(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		return err
	}
	if err := telemetry.WriteJSONL(f, rec.Log().Events(telemetry.Query{})); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
