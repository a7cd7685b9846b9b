package bench

import (
	"fmt"
	"strings"

	"repro/internal/alpha"
	"repro/internal/bpf"
	"repro/internal/filters"
	"repro/internal/lf"
	"repro/internal/m3"
	"repro/internal/machine"
	"repro/internal/pccbin"
	"repro/internal/policy"
	"repro/internal/prover"
	"repro/internal/vcgen"
)

// Ablation studies for the design choices DESIGN.md calls out: the
// hash-consed proof encoding, and the sensitivity of the Figure 8
// shape to the BPF interpreter cost model.

// EncodingRow compares proof-section encodings for one filter.
type EncodingRow struct {
	Filter    filters.Filter
	ProofNode int // natural-deduction proof nodes
	LFNodes   int // LF term nodes (tree view)
	TreeBytes int // naive tree encoding
	DAGBytes  int // shipped hash-consed encoding
}

// EncodingAblation measures what DAG sharing buys on the four filters'
// proofs.
func EncodingAblation() ([]EncodingRow, error) {
	pol := policy.PacketFilter()
	rows := make([]EncodingRow, 0, len(filters.All))
	for _, f := range filters.All {
		prog := filters.Prog(f)
		gen, err := vcgen.Gen(prog, pol.Pre, pol.Post, nil)
		if err != nil {
			return nil, err
		}
		proof, err := prover.Prove(gen.SP)
		if err != nil {
			return nil, err
		}
		term, err := prover.EncodeProof(proof, nil)
		if err != nil {
			return nil, err
		}
		code, err := alpha.Encode(prog)
		if err != nil {
			return nil, err
		}
		bin := &pccbin.Binary{PolicyName: pol.Name, Code: code, Proof: term}
		_, layout, err := bin.Marshal()
		if err != nil {
			return nil, err
		}
		rows = append(rows, EncodingRow{
			Filter:    f,
			ProofNode: proof.Size(),
			LFNodes:   lf.Size(term),
			TreeBytes: pccbin.TreeEncodedSize(term),
			DAGBytes:  layout.ProofLen,
		})
	}
	return rows, nil
}

// FormatEncodingAblation renders the encoding ablation.
func FormatEncodingAblation(rows []EncodingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: proof encoding (naive tree vs shipped hash-consed DAG)\n")
	fmt.Fprintf(&b, "%-10s %12s %10s %12s %11s %9s\n",
		"", "proof nodes", "LF nodes", "tree bytes", "DAG bytes", "saving")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12d %10d %12d %11d %8.1fx\n",
			r.Filter, r.ProofNode, r.LFNodes, r.TreeBytes, r.DAGBytes,
			float64(r.TreeBytes)/float64(r.DAGBytes))
	}
	return b.String()
}

// CostSensitivityRow reports whether the Figure 8 qualitative shape
// survives a given BPF dispatch-cost assumption.
type CostSensitivityRow struct {
	Dispatch   int
	BPFOverPCC [4]float64 // per filter
	ShapeHolds bool
}

// CostModelSensitivity sweeps the most influential modeling constant —
// the BPF interpreter's per-instruction dispatch cost — and reports
// the BPF/PCC ratio and whether the Figure 8 ordering survives. The
// paper's conclusions should not hinge on one calibration value.
func CostModelSensitivity(n int, dispatchValues []int) ([]CostSensitivityRow, error) {
	pkts := Trace(n)
	out := make([]CostSensitivityRow, 0, len(dispatchValues))
	for _, d := range dispatchValues {
		cm := bpf.DefaultCost
		cm.Dispatch = d
		row := CostSensitivityRow{Dispatch: d, ShapeHolds: true}
		for fi, f := range filters.All {
			v, err := buildVariants(f)
			if err != nil {
				return nil, err
			}
			var bpfCycles, pccCycles, sfiCycles, m3Cycles int64
			for _, p := range pkts {
				_, c := bpf.RunCycles(v.bpfProg, p.Data, &cm)
				bpfCycles += c
				_, c2, err := v.envPlain.Exec(v.pccProg, p.Data, machine.Unchecked)
				if err != nil {
					return nil, err
				}
				pccCycles += c2
				_, c3, err := v.envSFI.Exec(v.sfiProg, p.Data, machine.Unchecked)
				if err != nil {
					return nil, err
				}
				sfiCycles += c3
				_, c4, err := v.envPlain.Exec(v.m3Prog, p.Data, machine.Unchecked)
				if err != nil {
					return nil, err
				}
				m3Cycles += c4
			}
			row.BPFOverPCC[fi] = float64(bpfCycles) / float64(pccCycles)
			if !(pccCycles <= sfiCycles && sfiCycles <= m3Cycles && m3Cycles <= bpfCycles) {
				row.ShapeHolds = false
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// M3CheckElimRow compares the naive safe-language compiler with its
// check-eliminating variant against PCC, per filter.
type M3CheckElimRow struct {
	Filter  filters.Filter
	NaiveUS float64
	OptUS   float64
	PCCUS   float64
	Instrs  [2]int // naive, optimized
}

// M3CheckElimAblation quantifies how far static check elimination (the
// best a safe-language compiler can do without the length bound in the
// type system) closes the M3→PCC gap.
func M3CheckElimAblation(n int) ([]M3CheckElimRow, error) {
	pkts := Trace(n)
	env := filters.Env{}
	rows := make([]M3CheckElimRow, 0, len(filters.All))
	for _, f := range filters.All {
		naive, err := m3.Compile(m3.Prog(f, m3.View), m3.View)
		if err != nil {
			return nil, err
		}
		opt, err := m3.CompileOptimized(m3.Prog(f, m3.View), m3.View)
		if err != nil {
			return nil, err
		}
		pccProg := filters.Prog(f)
		var cn, co, cp int64
		for _, p := range pkts {
			_, c1, err := env.Exec(naive, p.Data, machine.Unchecked)
			if err != nil {
				return nil, err
			}
			_, c2, err := env.Exec(opt, p.Data, machine.Unchecked)
			if err != nil {
				return nil, err
			}
			_, c3, err := env.Exec(pccProg, p.Data, machine.Unchecked)
			if err != nil {
				return nil, err
			}
			cn, co, cp = cn+c1, co+c2, cp+c3
		}
		rows = append(rows, M3CheckElimRow{
			Filter:  f,
			NaiveUS: machine.Micros(cn) / float64(len(pkts)),
			OptUS:   machine.Micros(co) / float64(len(pkts)),
			PCCUS:   machine.Micros(cp) / float64(len(pkts)),
			Instrs:  [2]int{len(naive), len(opt)},
		})
	}
	return rows, nil
}

// FormatM3CheckElim renders the check-elimination ablation.
func FormatM3CheckElim(rows []M3CheckElimRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: M3-VIEW static check elimination vs PCC (µs/packet)\n")
	fmt.Fprintf(&b, "%-10s %10s %12s %8s %14s %14s\n",
		"", "naive", "check-elim", "PCC", "elim/PCC", "instrs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10.2f %12.2f %8.2f %13.2fx %8d->%d\n",
			r.Filter, r.NaiveUS, r.OptUS, r.PCCUS, r.OptUS/r.PCCUS,
			r.Instrs[0], r.Instrs[1])
	}
	fmt.Fprintf(&b, "(even with every dominated check removed, the safe language cannot reach\n")
	fmt.Fprintf(&b, " PCC: the 64-byte length bound is not expressible in its type system)\n")
	return b.String()
}

// FormatCostSensitivity renders the sensitivity sweep.
func FormatCostSensitivity(rows []CostSensitivityRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: BPF dispatch-cost sensitivity (BPF/PCC ratio per filter)\n")
	fmt.Fprintf(&b, "%10s %8s %8s %8s %8s %8s\n", "dispatch", "F1", "F2", "F3", "F4", "shape")
	for _, r := range rows {
		holds := "holds"
		if !r.ShapeHolds {
			holds = "BROKEN"
		}
		fmt.Fprintf(&b, "%10d %8.1f %8.1f %8.1f %8.1f %8s\n",
			r.Dispatch, r.BPFOverPCC[0], r.BPFOverPCC[1], r.BPFOverPCC[2], r.BPFOverPCC[3], holds)
	}
	return b.String()
}
