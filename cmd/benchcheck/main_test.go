package main

import (
	"encoding/json"
	"io"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

func TestParallelFloor(t *testing.T) {
	cases := []struct {
		flag             float64
		goroutines, cpus int
		want             float64
	}{
		{3.0, 8, 8, 3.0},  // wide host: the flag binds
		{3.0, 8, 16, 3.0}, // more cores than goroutines: still the flag
		{3.0, 8, 1, 0.85}, // single core: no-convoy floor
		{3.0, 8, 2, 1.7},  // two cores: 85% of 2
		{3.0, 4, 8, 3.0},  // ladder narrower than the host
		{0.5, 8, 1, 0.5},  // flag below the cap: flag binds
	}
	for _, c := range cases {
		if got := parallelFloor(c.flag, c.goroutines, c.cpus); got != c.want {
			t.Errorf("parallelFloor(%v, %d, %d) = %v, want %v",
				c.flag, c.goroutines, c.cpus, got, c.want)
		}
	}
}

// passingReport is a current-schema report every rule passes, each row
// a single point (median = q1 = q3).
func passingReport() *bench.Report {
	rep := &bench.Report{Schema: bench.ReportSchema, GOMAXPROCS: 8, Trials: 12}
	for name, v := range map[string]float64{
		"dispatch/interp/single":               1000,
		"dispatch/interp/batch":                800,
		"dispatch/compiled/single":             500,
		"dispatch/compiled/batch":              100,
		"dispatch/speedup":                     10,
		"observability/profiling_overhead_pct": 5,
		"observability/observed_overhead_pct":  8,
		"observability/window_overhead_pct":    2.2,
		"scaling/g2":                           52,
		"scaling/g4":                           30,
		"scaling/g8":                           29,
		"scaling/parallel_speedup":             3.4,
		"recovery/cold":                        400,
		"recovery/warm":                        10,
		"recovery/warm_speedup":                39,
		"cert_cost/filter1/proof_bytes":        300,
		"cert_cost/filter1/vc_nodes":           120,
	} {
		rep.Rows = append(rep.Rows, bench.Row{Name: name, N: 12, Median: v, Q1: v, Q3: v})
	}
	return rep
}

// set gives every row matching pattern the median v (quartiles too).
func set(rep *bench.Report, pattern string, v float64) {
	for i, r := range rep.Rows {
		if ok, _ := path.Match(pattern, r.Name); ok {
			rep.Rows[i].Median, rep.Rows[i].Q1, rep.Rows[i].Q3 = v, v, v
		}
	}
}

// drop removes every row matching pattern.
func drop(rep *bench.Report, pattern string) {
	kept := rep.Rows[:0]
	for _, r := range rep.Rows {
		if ok, _ := path.Match(pattern, r.Name); !ok {
			kept = append(kept, r)
		}
	}
	rep.Rows = kept
}

// writeReport drops passingReport, changed by mutate, into dir and
// returns its path.
func writeReport(t *testing.T, dir string, mutate func(*bench.Report)) string {
	t.Helper()
	rep := passingReport()
	if mutate != nil {
		mutate(rep)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "BENCH_20260807T000000Z.json")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// check runs checkFile on a mutated passing report under the committed
// bounds.
func check(t *testing.T, mutate func(*bench.Report)) []string {
	t.Helper()
	return checkFile(writeReport(t, t.TempDir(), mutate), false, io.Discard)
}

// wantOne fails unless msgs is exactly one failure mentioning substr.
func wantOne(t *testing.T, msgs []string, substr string) {
	t.Helper()
	if len(msgs) != 1 || !strings.Contains(msgs[0], substr) {
		t.Fatalf("want one failure mentioning %q, got %v", substr, msgs)
	}
}

// TestRules judges every rule, under both bound columns, on a report
// whose matching row sits exactly at the bound (passes: bounds are
// inclusive) and on one whose row is just past it (fails, naming the
// row).
func TestRules(t *testing.T) {
	for _, r := range rules {
		for col, fresh := range []bool{false, true} {
			bound := r.bound[col]
			if r.limit != nil {
				var err error
				if bound, err = r.limit(passingReport(), bound); err != nil {
					t.Fatalf("%s: %v", r.row, err)
				}
			}
			worse := bound + 0.01*bound + 0.01
			if r.atLeast {
				worse = bound - 0.01*bound - 0.01
			}
			for _, c := range []struct {
				v    float64
				pass bool
			}{{bound, true}, {worse, false}} {
				name := strings.ReplaceAll(r.row, "*", "any")
				if fresh {
					name += "/fresh"
				}
				if c.pass {
					name += "/passes"
				} else {
					name += "/fails"
				}
				t.Run(name, func(t *testing.T) {
					p := writeReport(t, t.TempDir(), func(rep *bench.Report) { set(rep, r.row, c.v) })
					msgs := checkFile(p, fresh, io.Discard)
					if c.pass && len(msgs) != 0 {
						t.Fatalf("median %v at the bound %v failed: %v", c.v, bound, msgs)
					}
					if !c.pass {
						wantOne(t, msgs, strings.Split(r.row, "*")[0])
					}
				})
			}
		}
	}
}

// TestCheckFileRejectsOldSchema: rows are schema 7; an older report has
// none of them and is rejected by name rather than judged.
func TestCheckFileRejectsOldSchema(t *testing.T) {
	wantOne(t, check(t, func(r *bench.Report) { r.Schema = 6 }), "schema 6")
}

func TestCheckFileParallelGate(t *testing.T) {
	t.Run("passes", func(t *testing.T) {
		if msgs := check(t, nil); len(msgs) != 0 {
			t.Fatalf("unexpected failures: %v", msgs)
		}
	})
	t.Run("slow ladder fails on a wide host", func(t *testing.T) {
		// 8 cores available: a convoy.
		wantOne(t, check(t, func(r *bench.Report) { set(r, "scaling/parallel_speedup", 1.1) }), "parallel_speedup")
	})
	t.Run("same ratio passes on a single core", func(t *testing.T) {
		msgs := check(t, func(r *bench.Report) {
			set(r, "scaling/parallel_speedup", 1.1)
			r.GOMAXPROCS = 1 // floor degrades to 0.85
		})
		if len(msgs) != 0 {
			t.Fatalf("unexpected failures: %v", msgs)
		}
	})
	t.Run("convoy fails even on a single core", func(t *testing.T) {
		wantOne(t, check(t, func(r *bench.Report) {
			set(r, "scaling/parallel_speedup", 0.4)
			r.GOMAXPROCS = 1
		}), "parallel_speedup")
	})
	t.Run("schema 4 requires the section", func(t *testing.T) {
		wantOne(t, check(t, func(r *bench.Report) { drop(r, "scaling/*") }), "scaling/parallel_speedup: no such row")
	})
	t.Run("older schema skips the gate", func(t *testing.T) {
		// A convoy the gate would fail goes unjudged: the one failure
		// is the schema, not the row.
		wantOne(t, check(t, func(r *bench.Report) {
			set(r, "scaling/parallel_speedup", 0.4)
			r.Schema = 3
		}), "schema 3 predates")
	})
}

func TestCheckFileSchema5Gate(t *testing.T) {
	t.Run("missing cert_cost fails", func(t *testing.T) {
		msgs := check(t, func(r *bench.Report) { drop(r, "cert_cost/*/*") })
		if len(msgs) != 2 || !strings.Contains(msgs[0], "cert_cost") || !strings.Contains(msgs[1], "cert_cost") {
			t.Fatalf("want the two cert_cost rules to fail, got %v", msgs)
		}
	})
	t.Run("vanished proof sizes fail", func(t *testing.T) {
		wantOne(t, check(t, func(r *bench.Report) { set(r, "cert_cost/filter1/proof_bytes", 0) }),
			"cert_cost/filter1/proof_bytes")
	})
	t.Run("missing windowed config fails", func(t *testing.T) {
		wantOne(t, check(t, func(r *bench.Report) { drop(r, "observability/window_overhead_pct") }), "no such row")
	})
	t.Run("window overhead above ceiling fails", func(t *testing.T) {
		// The median decides even when the quartiles straddle the
		// ceiling; the line says so.
		msgs := check(t, func(r *bench.Report) {
			for i := range r.Rows {
				if r.Rows[i].Name == "observability/window_overhead_pct" {
					r.Rows[i].Median, r.Rows[i].Q1, r.Rows[i].Q3 = 21, 18, 24
				}
			}
		})
		wantOne(t, msgs, "window_overhead_pct")
		if !strings.Contains(msgs[0], "[18, 24]") || !strings.Contains(msgs[0], "straddles") {
			t.Fatalf("failure line lacks the quartiles or the straddle mark: %q", msgs[0])
		}
	})
	t.Run("negative overhead is noise, passes", func(t *testing.T) {
		// The windowed run measured faster.
		if msgs := check(t, func(r *bench.Report) { set(r, "observability/window_overhead_pct", -1.5) }); len(msgs) != 0 {
			t.Fatalf("unexpected failures: %v", msgs)
		}
	})
}

func TestCheckFileSchema6Gate(t *testing.T) {
	t.Run("missing recovery pair fails", func(t *testing.T) {
		wantOne(t, check(t, func(r *bench.Report) { drop(r, "recovery/*") }), "recovery/warm_speedup: no such row")
	})
	t.Run("slow warm replay fails", func(t *testing.T) {
		wantOne(t, check(t, func(r *bench.Report) { set(r, "recovery/warm_speedup", 2.0) }), "warm_speedup")
	})
	t.Run("schema 5 skips the gate", func(t *testing.T) {
		// A missing recovery pair goes unjudged: the one failure is
		// the schema, not the row.
		wantOne(t, check(t, func(r *bench.Report) {
			drop(r, "recovery/*")
			r.Schema = 5
		}), "schema 5 predates")
	})
}
