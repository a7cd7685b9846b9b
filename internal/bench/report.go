package bench

import (
	"fmt"
	"strings"
)

// Paper reference values, for side-by-side reporting. Figure 8 values
// are read off the published bar chart; Figure 9 crossovers and Table 1
// are stated in the text.

// PaperFig8 holds the paper's Figure 8 per-packet microseconds,
// indexed [filter-1][approach].
var PaperFig8 = [4][numApproaches]float64{
	{0.78, 0.33, 0.11, 0.08}, // Filter 1
	{1.46, 0.24, 0.18, 0.15}, // Filter 2
	{1.71, 0.31, 0.25, 0.20}, // Filter 3
	{1.92, 0.33, 0.23, 0.17}, // Filter 4
}

// PaperTable1 holds the paper's Table 1 rows: instructions, binary
// size (bytes), validation time (µs), heap cost (KB).
var PaperTable1 = [4][4]float64{
	{8, 385, 780, 5.5},
	{15, 516, 1070, 8.7},
	{47, 1024, 2350, 24.6},
	{28, 814, 1710, 15.1},
}

// PaperFig9Crossovers holds the paper's Figure 9 amortization points
// for Filter 4 (packets until PCC beats each approach).
var PaperFig9Crossovers = map[Approach]int{BPF: 1200, M3View: 10500, SFI: 28000}

// Paper checksum experiment (§4).
const (
	PaperChecksumInstrs     = 39
	PaperChecksumLoop       = 8
	PaperChecksumBinary     = 1610
	PaperChecksumValidateMS = 3.6
	PaperChecksumSpeedup    = 2.0
)

// FormatFig8 renders the Figure 8 reproduction with the paper's values
// alongside.
func FormatFig8(rows []Fig8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: average per-packet run time (µs, modeled 175-MHz Alpha)\n")
	fmt.Fprintf(&b, "%-10s", "")
	for _, a := range Approaches {
		fmt.Fprintf(&b, "  %8s (paper)", a)
	}
	fmt.Fprintf(&b, "   accepted\n")
	for i, row := range rows {
		fmt.Fprintf(&b, "%-10s", row.Filter)
		for _, a := range Approaches {
			fmt.Fprintf(&b, "  %8.2f (%5.2f)", row.Micros[a], PaperFig8[i][a])
		}
		fmt.Fprintf(&b, "   %d\n", row.Accepted)
	}
	fmt.Fprintf(&b, "ratios vs PCC:\n")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-10s", row.Filter)
		for _, a := range Approaches {
			fmt.Fprintf(&b, "  %8.2fx", row.Micros[a]/row.Micros[PCC])
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// FormatTable1 renders the Table 1 reproduction.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: proof size and validation cost for PCC packet filters\n")
	fmt.Fprintf(&b, "%-10s %14s %20s %22s %16s %12s\n",
		"", "instructions", "binary size (B)", "validation (µs)", "heap (KB)", "proof/code")
	for i, r := range rows {
		fmt.Fprintf(&b, "%-10s %6d (%3.0f) %12d (%4.0f) %14.0f (%4.0f) %9.1f (%4.1f) %11.1fx\n",
			r.Filter,
			r.Instructions, PaperTable1[i][0],
			r.BinarySize, PaperTable1[i][1],
			r.Cost[costValidate].Median, PaperTable1[i][2],
			r.HeapKB, PaperTable1[i][3],
			float64(r.ProofBytes)/float64(r.CodeBytes))
	}
	fmt.Fprintf(&b, "(parenthesized: the paper's values; host validation time, median of %d, vs 175-MHz Alpha; heap is the mean)\n",
		validationRuns)
	return b.String()
}

// FormatStages renders the per-stage validation-cost medians with each
// stage's share of the total (validation plus WCET), showing where the
// paper's one-time cost goes (LF proof checking dominates).
func FormatStages(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Validation cost by pipeline stage (µs, host, median of %d; Table 1 split)\n", validationRuns)
	fmt.Fprintf(&b, "%-10s %9s %9s %9s %9s %9s %9s\n",
		"", "parse", "lfsig", "vcgen", "lfcheck", "wcet", "total")
	stages := []int{costParse, costSig, costVCGen, costCheck, costWCET}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s", r.Filter)
		for _, c := range stages {
			fmt.Fprintf(&b, " %9.0f", r.Cost[c].Median)
		}
		fmt.Fprintf(&b, " %9.0f\n", r.total())
	}
	fmt.Fprintf(&b, "shares of total:\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s", r.Filter)
		for _, c := range stages {
			fmt.Fprintf(&b, " %8.1f%%", 100*r.Cost[c].Median/r.total())
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// total is the median validation plus the median WCET analysis (µs).
func (r Table1Row) total() float64 { return r.Cost[costValidate].Median + r.Cost[costWCET].Median }

// FormatCertCost renders the size of the safety evidence per filter:
// the baseline proof-size engineering (ACC-style certificate
// compression, see PAPERS.md) must regress against.
func FormatCertCost(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Certificate cost: size of the safety evidence per filter\n")
	fmt.Fprintf(&b, "%-10s %10s %12s %12s %10s %12s %12s\n",
		"", "code (B)", "proof (B)", "proof/code", "VC nodes", "proof nodes", "check steps")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10d %12d %11.1fx %10d %12d %12d\n",
			r.Filter, r.CodeBytes, r.ProofBytes, float64(r.ProofBytes)/float64(r.CodeBytes),
			r.VCNodes, r.ProofNodes, r.CheckSteps)
	}
	fmt.Fprintf(&b, "(live counterparts: pcc_proof_bytes / pcc_vc_nodes value histograms per install)\n")
	return b.String()
}

// FormatFig9 renders the Figure 9 reproduction.
func FormatFig9(r *Fig9Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: startup cost amortization for Filter 4\n")
	fmt.Fprintf(&b, "startup (ms):   ")
	for _, a := range Approaches {
		fmt.Fprintf(&b, "  %s %.3f", a, r.StartupMS[a])
	}
	fmt.Fprintf(&b, "\nper packet (µs):")
	for _, a := range Approaches {
		fmt.Fprintf(&b, "  %s %.2f", a, r.PerPacketUS[a])
	}
	fmt.Fprintf(&b, "\n\n%10s", "packets")
	for _, a := range Approaches {
		fmt.Fprintf(&b, "%12s", a)
	}
	fmt.Fprintf(&b, "\n")
	for _, pt := range r.Curve {
		fmt.Fprintf(&b, "%10d", pt.Packets)
		for _, a := range Approaches {
			fmt.Fprintf(&b, "%12.2f", pt.MS[a])
		}
		fmt.Fprintf(&b, "\n")
	}
	// A small ASCII rendering of the published plot: cumulative cost
	// (ms) against packets processed.
	fmt.Fprintf(&b, "\n")
	maxMS := 0.0
	for _, pt := range r.Curve {
		for _, a := range Approaches {
			if pt.MS[a] > maxMS {
				maxMS = pt.MS[a]
			}
		}
	}
	const width = 60
	glyph := [numApproaches]byte{'b', 'm', 's', 'P'}
	fmt.Fprintf(&b, "cumulative cost, 0..%.0f ms (b=BPF m=M3 s=SFI P=PCC):\n", maxMS)
	for _, pt := range r.Curve {
		row := make([]byte, width+1)
		for i := range row {
			row[i] = ' '
		}
		for _, a := range Approaches {
			col := int(pt.MS[a] / maxMS * width)
			if col > width {
				col = width
			}
			if row[col] == ' ' {
				row[col] = glyph[a]
			} else {
				row[col] = '*' // overlapping series
			}
		}
		fmt.Fprintf(&b, "%7d |%s\n", pt.Packets, string(row))
	}

	fmt.Fprintf(&b, "\ncrossover points (packets until PCC wins):\n")
	for _, a := range Approaches {
		if a == PCC {
			continue
		}
		fmt.Fprintf(&b, "  vs %-8s %8d   (paper: %d)\n",
			a, r.CrossoverPackets[a], PaperFig9Crossovers[a])
	}
	return b.String()
}

// FormatFig7 renders the Figure 7 layout reproduction.
func FormatFig7(cert interface{ String() string }) string {
	return "Figure 7: PCC binary layout for the resource access example\n" +
		"  ours:  " + cert.String() + "\n" +
		"  paper: native code [0,45) | relocation [45,220) | proof [220,340) | total 340 bytes\n"
}

// FormatChecksum renders the §4 checksum experiment.
func FormatChecksum(r *ChecksumResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "IP-checksum loop experiment (§4)\n")
	fmt.Fprintf(&b, "  instructions:      %d (paper: %d)\n", r.Instructions, PaperChecksumInstrs)
	fmt.Fprintf(&b, "  core loop:         %d (paper: %d)\n", r.LoopInstrs, PaperChecksumLoop)
	fmt.Fprintf(&b, "  PCC binary bytes:  %d (paper: %d)\n", r.BinarySize, PaperChecksumBinary)
	fmt.Fprintf(&b, "  validation:        %.2f ms (paper: %.1f ms)\n",
		r.Validation.Seconds()*1000, PaperChecksumValidateMS)
	fmt.Fprintf(&b, "  speedup vs C loop: %.2fx (paper: %.1fx)\n", r.SpeedupVsC, PaperChecksumSpeedup)
	return b.String()
}

// ShapeCheck verifies the qualitative claims of the evaluation hold in
// a Fig8 reproduction; it returns a list of violated claims (empty
// when the shape matches the paper).
func ShapeCheck(rows []Fig8Row) []string {
	var bad []string
	for _, row := range rows {
		if !(row.Micros[PCC] <= row.Micros[SFI] &&
			row.Micros[SFI] <= row.Micros[M3View] &&
			row.Micros[M3View] <= row.Micros[BPF]) {
			bad = append(bad, fmt.Sprintf("%v: ordering PCC ≤ SFI ≤ M3 ≤ BPF violated: %v",
				row.Filter, row.Micros))
		}
		bpfRatio := row.Micros[BPF] / row.Micros[PCC]
		if bpfRatio < 5 || bpfRatio > 25 {
			bad = append(bad, fmt.Sprintf("%v: BPF/PCC = %.1fx, expected ~10x", row.Filter, bpfRatio))
		}
		sfiRatio := row.Micros[SFI] / row.Micros[PCC]
		if sfiRatio < 1.02 || sfiRatio > 2.6 {
			bad = append(bad, fmt.Sprintf("%v: SFI/PCC = %.2fx, expected ~1.25x", row.Filter, sfiRatio))
		}
		m3Ratio := row.Micros[M3View] / row.Micros[PCC]
		if m3Ratio < 1.3 || m3Ratio > 8 {
			bad = append(bad, fmt.Sprintf("%v: M3/PCC = %.2fx, expected ~2-4x", row.Filter, m3Ratio))
		}
	}
	// Per-packet cost must grow with filter complexity for PCC.
	if len(rows) == 4 && !(rows[0].Micros[PCC] < rows[3].Micros[PCC]) {
		bad = append(bad, "Filter 4 not costlier than Filter 1 under PCC")
	}
	return bad
}
