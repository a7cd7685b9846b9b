package bench

import "testing"

// TestDispatchScaling runs the scaling section over a short trace: the
// rungs share one kernel each, and the verdict census is cross-checked
// inside Matrix, so an error return is the real gate.
func TestDispatchScaling(t *testing.T) {
	rows, err := Matrix(400, "scaling")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range rows {
		names = append(names, r.Name)
		if r.N != Trials || r.Median <= 0 {
			t.Errorf("implausible row: %+v", r)
		}
	}
	want := []string{"dispatch/compiled/batch", "scaling/g2", "scaling/g4", "scaling/g8", "scaling/parallel_speedup"}
	if len(names) != len(want) {
		t.Fatalf("rows %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("rows %v, want %v", names, want)
		}
	}
}

// TestParallelSpeedupEdges pins the speedup arithmetic and the
// degenerate input: no samples make an empty row, not a number.
func TestParallelSpeedupEdges(t *testing.T) {
	r := ratio{"scaling/parallel_speedup", "x", "g1", "g8", speedup}
	if row := ratioRow(r, nil); row.N != 0 || row.Median != 0 {
		t.Errorf("speedup over no samples = %+v, want an empty row", row)
	}
	if row := ratioRow(r, map[string][]float64{"g1": {200}, "g8": {50}}); row.Median < 3.99 || row.Median > 4.01 {
		t.Errorf("speedup = %v, want 4.0", row.Median)
	}
}
