// Command benchcheck is the performance regression gate over the
// schema-7 BENCH_<timestamp>.json reports paperbench -json writes. It
// is a table of rules: each names a row of the report (or a pattern of
// rows) and a bound, and is judged on the row's median. Every judged
// row is printed with its median and quartiles, and marked
// "straddles" when the quartiles lie on both sides of the bound: the
// verdict then rests on which half of the host's spread the median
// landed in.
//
// Usage:
//
//	benchcheck [-fresh] [BENCH_file.json ...]
//
// With no file arguments, the newest BENCH_*.json in the current
// directory is checked. Each rule has two bounds: one for a committed
// baseline, and a looser one for a fresh measurement on a possibly
// loaded host, which -fresh selects. The rules are ratios and
// orderings, not absolute nanoseconds, so the gate is portable across
// hosts of different speeds:
//
//   - dispatch/speedup: batch-compiled over single-interpreted dispatch;
//   - compiled dispatch costs no more than interpreted, in both shapes;
//   - observability/profiling_overhead_pct: compiled throughput lost to
//     always-on per-block profiling;
//   - observability/observed_overhead_pct: throughput the recorder and
//     its event log cost on top of profiling (the served posture);
//   - observability/window_overhead_pct: the sliding-window recorder
//     layer on top of the observed posture;
//   - scaling/parallel_speedup: the widest goroutine rung over one
//     goroutine, floor capped by the report's core budget (parallelFloor);
//   - recovery/warm_speedup: journal replay with the proof cache over
//     without it — the cache is what keeps reboot time bounded;
//   - cert_cost sizes: every filter's proof bytes and VC nodes are
//     positive, so the proof-size baseline cannot silently vanish.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path"
	"sort"

	"repro/internal/bench"
)

// rule is one gate: every row matching row must have its median at or
// beyond the bound.
type rule struct {
	row     string     // a row name, or a path.Match pattern
	atLeast bool       // the median must be ≥ the bound; otherwise ≤
	bound   [2]float64 // for a committed baseline, and for -fresh
	// limit, when set, derives the bound actually applied from the
	// report (and the table's bound).
	limit func(rep *bench.Report, bound float64) (float64, error)
}

var rules = []rule{
	{row: "dispatch/speedup", atLeast: true, bound: [2]float64{5.0, 2.0}},
	{row: "dispatch/compiled/single", limit: medianOf("dispatch/interp/single")},
	{row: "dispatch/compiled/batch", limit: medianOf("dispatch/interp/batch")},
	{row: "observability/profiling_overhead_pct", bound: [2]float64{15, 30}},
	{row: "observability/observed_overhead_pct", bound: [2]float64{15, 30}},
	{row: "observability/window_overhead_pct", bound: [2]float64{20, 35}},
	{row: "scaling/parallel_speedup", atLeast: true, bound: [2]float64{3.0, 3.0}, limit: coreAware},
	{row: "recovery/warm_speedup", atLeast: true, bound: [2]float64{5.0, 5.0}},
	{row: "cert_cost/*/proof_bytes", atLeast: true, bound: [2]float64{1, 1}},
	{row: "cert_cost/*/vc_nodes", atLeast: true, bound: [2]float64{1, 1}},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchcheck: ")
	fresh := flag.Bool("fresh", false,
		"apply the fresh-measurement bounds (a report just measured on this host) instead of the committed-baseline ones")
	flag.Parse()

	files := flag.Args()
	if len(files) == 0 {
		newest, err := newestReport(".")
		if err != nil {
			log.Fatal(err)
		}
		files = []string{newest}
	}

	failures := 0
	for _, file := range files {
		fmt.Printf("== %s\n", file)
		failures += len(checkFile(file, *fresh, os.Stdout))
	}
	if failures > 0 {
		log.Fatalf("%d check(s) failed", failures)
	}
	fmt.Printf("benchcheck: OK (%d report(s))\n", len(files))
}

// newestReport finds the lexicographically last BENCH_*.json in dir —
// the filenames embed a UTC timestamp, so last sorts newest.
func newestReport(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && len(n) > 6 && n[:6] == "BENCH_" && n[len(n)-5:] == ".json" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return "", fmt.Errorf("no BENCH_*.json in %s (run paperbench -json first)", dir)
	}
	sort.Strings(names)
	return names[len(names)-1], nil
}

// checkFile judges every rule against one report, printing a line per
// judged row to w, and returns the failures.
func checkFile(file string, fresh bool, w io.Writer) []string {
	data, err := os.ReadFile(file)
	if err != nil {
		return fail(w, err.Error())
	}
	var rep bench.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return fail(w, fmt.Sprintf("not a benchmark report: %v", err))
	}
	if rep.Schema < bench.ReportSchema {
		return fail(w, fmt.Sprintf("schema %d predates the rows the rules read (need ≥ %d; re-run paperbench -json)",
			rep.Schema, bench.ReportSchema))
	}
	col := 0
	if fresh {
		col = 1
	}
	var fails []string
	for _, r := range rules {
		matched := 0
		for _, row := range rep.Rows {
			if ok, _ := path.Match(r.row, row.Name); !ok {
				continue
			}
			matched++
			bound := r.bound[col]
			if r.limit != nil {
				if bound, err = r.limit(&rep, bound); err != nil {
					fails = append(fails, fail(w, fmt.Sprintf("%s: %v", row.Name, err))...)
					continue
				}
			}
			pass, op := row.Median >= bound, "≥"
			if !r.atLeast {
				pass, op = row.Median <= bound, "≤"
			}
			line := fmt.Sprintf("%-38s %10.4g %-9s %-22s %s %.4g", row.Name, row.Median, row.Unit,
				fmt.Sprintf("[%.4g, %.4g]", row.Q1, row.Q3), op, bound)
			if row.Q1 < bound && bound < row.Q3 {
				line += "  straddles"
			}
			if !pass {
				fails = append(fails, fail(w, line)...)
				continue
			}
			fmt.Fprintf(w, "PASS %s\n", line)
		}
		if matched == 0 {
			fails = append(fails, fail(w, fmt.Sprintf("%s: no such row", r.row))...)
		}
	}
	return fails
}

// fail prints msg as a failure and returns it as the only one.
func fail(w io.Writer, msg string) []string {
	fmt.Fprintf(w, "FAIL %s\n", msg)
	return []string{msg}
}

// medianOf is a limit that replaces the bound with another row's median.
func medianOf(name string) func(*bench.Report, float64) (float64, error) {
	return func(rep *bench.Report, _ float64) (float64, error) {
		row, ok := rep.Row(name)
		if !ok {
			return 0, fmt.Errorf("no %s row to compare with", name)
		}
		return row.Median, nil
	}
}

// coreAware caps the parallel-speedup bound by what the report's host
// could show: its widest scaling/g<N> rung and its GOMAXPROCS.
func coreAware(rep *bench.Report, bound float64) (float64, error) {
	widest := 0
	for _, row := range rep.Rows {
		var g int
		if _, err := fmt.Sscanf(row.Name, "scaling/g%d", &g); err == nil && g > widest {
			widest = g
		}
	}
	if widest == 0 || rep.GOMAXPROCS < 1 {
		return 0, fmt.Errorf("no scaling/g<N> rungs or gomaxprocs %d: the floor cannot be capped", rep.GOMAXPROCS)
	}
	return parallelFloor(bound, widest, rep.GOMAXPROCS), nil
}

// parallelFloor is the effective parallel-speedup floor: the bound,
// capped at 85% of the physically achievable ceiling
// min(goroutines, cores). The cap is what keeps the gate honest on
// narrow hosts — a single-core runner cannot show 3x parallelism, but
// it CAN show a lock convoy (speedup well below 1), which the capped
// floor of 0.85 still catches.
func parallelFloor(bound float64, goroutines, cores int) float64 {
	ceiling := goroutines
	if cores < ceiling {
		ceiling = cores
	}
	capped := 0.85 * float64(ceiling)
	if capped < bound {
		return capped
	}
	return bound
}
