// Command perfbench is the repository's benchmark. It runs one workload
// in-process against the kernel's public API, in the posture
// `pccmon -serve` boots, checks every output against a reference that
// does not come from the code under test, and prints one JSON result as
// the last line of standard output. README.md says why each workload
// exists and what each metric means.
//
//	perfbench -workload dispatch -seed 1 -seconds 15 -trace 0
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1
// it holds the per-layer metrics of a traced run. Set-up, inputs, and
// traces live under .bench_build/perfbench in the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command line of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // scratch root: corpora, stores, trace files
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: dispatch, dispatch_observed, install, reboot")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is made from")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 for a traced run reporting per-layer metrics")
	fs.StringVar(&o.work, "work", filepath.Join(".bench_build", "perfbench"), "scratch directory")
	gen := fs.String("gen-pool", "", "certify the variant pool into `FILE` and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	if *gen != "" {
		if err := writePool(*gen, runtime.GOMAXPROCS(0)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	res, err := runWorkload(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
