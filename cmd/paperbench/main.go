// Command paperbench regenerates every table and figure of Necula &
// Lee (OSDI '96): Table 1, Figures 7, 8 and 9, the §4 checksum-loop
// experiment, and the §3.1 SFI-hybrid experiment. Paper values are
// printed alongside for comparison.
//
// Usage:
//
//	paperbench [-packets N] [-fig7] [-table1] [-stages] [-certcost] [-fig8] [-fig9] [-checksum] [-sfipcc] [-ablation]
//	paperbench [-packets N] [-dispatch] [-observability] [-scaling] [-recovery]
//	paperbench -json [-packets N]   # write BENCH_<timestamp>.json
//
// -dispatch, -observability, -scaling and -recovery select sections of
// one host-timed matrix (internal/bench/harness.go): every row is the
// median and quartiles of bench.Trials interleaved trials over the
// -packets trace. With no selection flags, everything runs (the full
// Figure 8/9 pass over 200,000 packets takes a few minutes of
// simulation).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/alpha"
	"repro/internal/bench"
	"repro/internal/filters"
	"repro/internal/policy"
	"repro/internal/prover"
	"repro/internal/sfi"
	"repro/internal/vcgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperbench: ")
	packets := flag.Int("packets", bench.TraceSize, "trace length for Figures 8 and 9 and the host-timed matrix")
	fig7 := flag.Bool("fig7", false, "Figure 7: PCC binary layout")
	table1 := flag.Bool("table1", false, "Table 1: proof size and validation cost")
	stages := flag.Bool("stages", false, "Table 1 split: validation cost by pipeline stage")
	fig8 := flag.Bool("fig8", false, "Figure 8: per-packet run time")
	fig9 := flag.Bool("fig9", false, "Figure 9: startup-cost amortization")
	checksum := flag.Bool("checksum", false, "§4 checksum-loop experiment")
	sfipcc := flag.Bool("sfipcc", false, "§3.1 PCC-for-SFI hybrid experiment")
	ablation := flag.Bool("ablation", false, "design-choice ablations (proof encoding, cost-model sensitivity)")
	dispatch := flag.Bool("dispatch", false, "dispatch cost: backend × shape (host-timed matrix)")
	observability := flag.Bool("observability", false, "observability overhead: dispatch cost with profiling/observers toggled (host-timed matrix)")
	certcost := flag.Bool("certcost", false, "certificate cost: proof bytes/nodes and VC nodes per filter")
	scaling := flag.Bool("scaling", false, "dispatch scaling: goroutines sharing one lock-free kernel (host-timed matrix)")
	recovery := flag.Bool("recovery", false, "verified recovery: journal replay, cold vs warm proof cache (host-timed matrix)")
	jsonOut := flag.Bool("json", false, "write machine-readable results to BENCH_<timestamp>.json and exit")
	flag.Parse()

	if *jsonOut {
		now := time.Now()
		rep, err := bench.BuildReport(*packets, now)
		if err != nil {
			log.Fatal(err)
		}
		name := bench.ReportFilename(now)
		f, err := os.Create(name)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d-packet trace)\n", name, *packets)
		return
	}

	var sections []string
	for name, on := range map[string]bool{"dispatch": *dispatch, "observability": *observability,
		"scaling": *scaling, "recovery": *recovery} {
		if on {
			sections = append(sections, name)
		}
	}
	all := !(*fig7 || *table1 || *stages || *fig8 || *fig9 || *checksum || *sfipcc || *ablation || *certcost || len(sections) > 0)

	if all || *fig7 {
		cert, err := bench.Fig7()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(bench.FormatFig7(cert.Layout))
	}
	// Figure 9's PCC startup cost is Table 1's Filter 4 median, so the
	// table is measured once for either.
	var rows []bench.Table1Row
	if all || *table1 || *stages || *certcost || *fig9 {
		var err error
		if rows, err = bench.Table1(); err != nil {
			log.Fatal(err)
		}
		if all || *table1 {
			fmt.Println(bench.FormatTable1(rows))
		}
		if all || *stages {
			fmt.Println(bench.FormatStages(rows))
		}
		if all || *certcost {
			fmt.Println(bench.FormatCertCost(rows))
		}
	}
	if all || *fig8 {
		rows, err := bench.Fig8(*packets)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(bench.FormatFig8(rows))
		if bad := bench.ShapeCheck(rows); len(bad) != 0 {
			fmt.Println("SHAPE WARNINGS:")
			for _, s := range bad {
				fmt.Println("  " + s)
			}
			os.Exit(1)
		}
	}
	if all || *fig9 {
		n := *packets
		if n > 20000 {
			n = 20000 // calibration trace; the curve extrapolates
		}
		res, err := bench.Fig9(rows[filters.Filter4-1], n, 50000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(bench.FormatFig9(res))
	}
	if all || *checksum {
		n := *packets
		if n > 2000 {
			n = 2000
		}
		res, err := bench.Checksum(n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(bench.FormatChecksum(res))
	}
	if all || *sfipcc {
		runSFIPCC()
	}
	if all || len(sections) > 0 {
		rows, err := bench.Matrix(*packets, sections...)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Host-timed matrix: %d-packet trace, median [q1, q3] of %d interleaved trials, GOMAXPROCS=%d\n",
			*packets, bench.Trials, runtime.GOMAXPROCS(0))
		fmt.Println(bench.FormatRows(rows))
	}
	if all || *ablation {
		rows, err := bench.EncodingAblation()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(bench.FormatEncodingAblation(rows))
		n := *packets
		if n > 5000 {
			n = 5000
		}
		sens, err := bench.CostModelSensitivity(n, []int{10, 18, 25, 40})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(bench.FormatCostSensitivity(sens))
		ce, err := bench.M3CheckElimAblation(n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(bench.FormatM3CheckElim(ce))
	}
}

// runSFIPCC reproduces the §3.1 hybrid: prove the SFI-rewritten
// filters safe under the sfi-segment policy, reporting proof sizes
// next to the plain-PCC ones.
func runSFIPCC() {
	fmt.Println("PCC for SFI (§3.1): certifying the rewritten binaries")
	segPol := policy.SFISegment()
	pktPol := policy.PacketFilter()
	for _, f := range filters.All {
		plain := certSize(filters.Prog(f), pktPol)
		rw, err := sfi.Rewrite(filters.Prog(f))
		if err != nil {
			log.Fatal(err)
		}
		hybrid := certSize(rw, segPol)
		fmt.Printf("  %-10s plain-PCC proof %6d nodes | SFI-PCC proof %6d nodes\n",
			f, plain, hybrid)
	}
	fmt.Println("  (the paper: \"proof sizes and validation times are very similar" +
		" to those for plain PCC packets\")")
	fmt.Println()
}

func certSize(prog []alpha.Instr, pol *policy.Policy) int {
	res, err := vcgen.Gen(prog, pol.Pre, pol.Post, nil)
	if err != nil {
		log.Fatal(err)
	}
	proof, err := prover.Prove(res.SP)
	if err != nil {
		log.Fatal(err)
	}
	return proof.Size()
}
