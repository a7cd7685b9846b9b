package bench

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
	"time"
)

// TestBuildReport runs the whole -json path over a short trace and
// checks the document round-trips with every row it promises: the
// paper tables as deterministic counts, the cost columns and the
// host-timed matrix as Trials-sample summaries with ordered quartiles.
func TestBuildReport(t *testing.T) {
	now := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	rep, err := BuildReport(40, now)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ReportSchema || rep.Packets != 40 || rep.Timestamp != "2026-08-06T12:00:00Z" ||
		rep.Trials != Trials || rep.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Fatalf("bad header: %+v", rep)
	}
	want := map[string]int{ // row → N
		"table1/filter1/instructions":   1,
		"table1/filter4/validation_us":  validationRuns,
		"stages/filter3/lfcheck_us":     validationRuns,
		"cert_cost/filter2/proof_bytes": 1,
		"cert_cost/filter4/vc_nodes":    1,
		"fig8/filter4/PCC":              1,
		"checksum/speedup_vs_c":         1,
	}
	for _, c := range matrix {
		want[c.name] = Trials
	}
	for _, r := range ratios {
		want[r.name] = Trials
	}
	want["recovery/cold"], want["recovery/warm"] = Trials, Trials
	for name, n := range want {
		r, ok := rep.Row(name)
		if !ok {
			t.Errorf("row %s missing", name)
			continue
		}
		if r.N != n || r.Unit == "" || r.Layer == "" || r.Q1 > r.Median || r.Median > r.Q3 {
			t.Errorf("implausible row: %+v (want n=%d)", r, n)
		}
		if r.Unit != "%" && r.Median <= 0 {
			t.Errorf("non-positive row: %+v", r)
		}
	}
	if r, _ := rep.Row("checksum/speedup_vs_c"); r.Median <= 1 {
		t.Errorf("checksum speedup %.2f, want > 1", r.Median)
	}
	pcc, _ := rep.Row("fig8/filter1/PCC")
	bpf, _ := rep.Row("fig8/filter1/BPF")
	if pcc.Median >= bpf.Median {
		t.Errorf("fig8: PCC %.3f µs/pkt not below BPF %.3f", pcc.Median, bpf.Median)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if len(back.Rows) != len(rep.Rows) || back.Rows[0] != rep.Rows[0] {
		t.Fatal("round-trip lost rows")
	}

	if got, want := ReportFilename(now), "BENCH_20260806T120000Z.json"; got != want {
		t.Fatalf("ReportFilename = %q, want %q", got, want)
	}
}
