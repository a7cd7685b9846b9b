package bench

import (
	"strings"
	"testing"
)

// TestProfilingOverheadPct pins the overhead arithmetic on synthetic
// samples: the share of the base configuration's throughput the
// compared one loses, in percent (1 µs vs 1.1 µs per packet: 9.09%).
// A faster compared run is noise and reads negative, as measured.
func TestProfilingOverheadPct(t *testing.T) {
	r := ratio{"observability/profiling_overhead_pct", "%", "plain", "prof", overheadPct}
	row := ratioRow(r, map[string][]float64{"plain": {1000, 1000}, "prof": {1100, 1100}})
	if row.Median < 9.0 || row.Median > 9.2 || row.N != 2 {
		t.Fatalf("profiling overhead = %+v, want ≈ 9.09 over 2 trials", row)
	}
	row = ratioRow(r, map[string][]float64{"plain": {1000}, "prof": {950}})
	if row.Median >= 0 {
		t.Fatalf("faster profiled run reads %.2f%%, want negative", row.Median)
	}
}

// TestObservabilityMeasures runs the observability section over a tiny
// trace: every instrumented configuration dispatches with the
// reference verdicts (checked inside Matrix), alongside the plain
// compiled base, and all three overhead rows are reported.
func TestObservabilityMeasures(t *testing.T) {
	rows, err := Matrix(64, "observability")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]Row{}
	for _, r := range rows {
		got[r.Name] = r
		if r.N != Trials {
			t.Errorf("row %s has %d samples, want %d", r.Name, r.N, Trials)
		}
		if !strings.HasPrefix(r.Name, "observability/") && r.Name != "dispatch/compiled/batch" {
			t.Errorf("unexpected row %s", r.Name)
		}
	}
	for _, name := range []string{"dispatch/compiled/batch", "observability/interp+prof",
		"observability/compiled+prof", "observability/compiled+prof+obs", "observability/compiled+prof+obs+win",
		"observability/profiling_overhead_pct", "observability/observed_overhead_pct", "observability/window_overhead_pct"} {
		if _, ok := got[name]; !ok {
			t.Errorf("row %s missing", name)
		}
	}
	if text := FormatRows(rows); !strings.Contains(text, "compiled+prof+obs+win") || !strings.Contains(text, "[q1, q3]") {
		t.Errorf("FormatRows output:\n%s", text)
	}
}
