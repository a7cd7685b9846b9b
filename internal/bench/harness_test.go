package bench

import (
	"strings"
	"testing"
)

// TestHarness checks the summary arithmetic the whole report rests on,
// on synthetic samples, and that a run that diverges from the reference
// is an error rather than a sample.
func TestHarness(t *testing.T) {
	t.Run("ratio is the median of per-trial ratios", func(t *testing.T) {
		row := ratioRow(ratio{"x", "x", "base", "of", speedup}, map[string][]float64{
			"base": {100, 40, 100},
			"of":   {100, 20, 10},
		})
		// Trials: 100/100 = 1, 40/20 = 2, 100/10 = 10, median 2; the
		// ratio of the medians would be 100/20 = 5.
		if row.Median != 2 || row.N != 3 {
			t.Fatalf("ratio row = %+v, want median 2 of 3", row)
		}
	})
	t.Run("one quantile function serves q1, median and q3", func(t *testing.T) {
		xs := []float64{7, 1, 3, 5, 9}
		row := summarize("r", "l", "u", xs)
		sorted := []float64{1, 3, 5, 7, 9}
		if row.Q1 != quantile(sorted, 0.25) || row.Median != quantile(sorted, 0.5) || row.Q3 != quantile(sorted, 0.75) {
			t.Fatalf("summary %+v disagrees with quantile", row)
		}
		if row.Q1 != 3 || row.Median != 5 || row.Q3 != 7 || xs[0] != 7 {
			t.Fatalf("summary %+v of %v, want [3, 5, 7] and the samples untouched", row, xs)
		}
		if got := quantile([]float64{1, 2}, 0.25); got != 1.25 {
			t.Fatalf("interpolated quartile = %v, want 1.25", got)
		}
	})
	t.Run("census mismatch is an error", func(t *testing.T) {
		bins, err := certifyAll()
		if err != nil {
			t.Fatal(err)
		}
		batches, census := traceBatches(300)
		for _, c := range matrix {
			k, err := c.boot(bins)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.measure(k, batches, census); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if _, err := c.measure(k, batches, census+1); err == nil || !strings.Contains(err.Error(), "reference says") {
				t.Fatalf("%s: census mismatch returned %v", c.name, err)
			}
		}
	})
	t.Run("lossy replay is an error", func(t *testing.T) {
		// Every other journaled binary fails re-validation, so a replay
		// restores half the records.
		bins, err := certifyAll()
		if err != nil {
			t.Fatal(err)
		}
		runs, err := recoveryRuns(t.TempDir(), [][]byte{bins[0], []byte("not a PCC binary")})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range runs {
			if _, err := r.run(); err == nil || !strings.Contains(err.Error(), "losslessly") {
				t.Fatalf("%s: lossy replay returned %v", r.name, err)
			}
		}
	})
}
