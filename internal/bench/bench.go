// Package bench regenerates every table and figure of the paper's
// evaluation (§3.1 and §4): Table 1 (proof size and validation cost),
// Figure 7 (PCC binary layout), Figure 8 (average per-packet run
// time), Figure 9 (startup-cost amortization), and the checksum
// experiment. It is shared by cmd/paperbench and the root package's
// testing.B benchmarks.
//
// Per-packet run times are simulated DEC 3000/600 cycles converted at
// 175 MHz (see internal/machine and DESIGN.md); one-time costs
// (validation, compilation, rewriting) are measured host wall-clock,
// the same mixture the paper reports.
package bench

import (
	"fmt"
	"strings"
	"time"

	pcc "repro"
	"repro/internal/alpha"
	"repro/internal/bpf"
	"repro/internal/filters"
	"repro/internal/logic"
	"repro/internal/m3"
	"repro/internal/machine"
	"repro/internal/pktgen"
	"repro/internal/policy"
	"repro/internal/sfi"
)

// TraceSize is the default trace length (the paper used a
// 200,000-packet trace).
const TraceSize = 200000

// DefaultSeed makes every reported number reproducible.
const DefaultSeed = 1996

// Trace generates the standard synthetic trace.
func Trace(n int) []pktgen.Packet {
	return pktgen.Generate(n, pktgen.Config{Seed: DefaultSeed})
}

// Approach names one of the four compared systems, in the paper's
// Figure 8 order.
type Approach int

// The compared approaches.
const (
	BPF Approach = iota
	M3View
	SFI
	PCC
	numApproaches
)

func (a Approach) String() string {
	return [...]string{"BPF", "M3-VIEW", "SFI", "PCC"}[a]
}

// Approaches lists all approaches in display order.
var Approaches = []Approach{BPF, M3View, SFI, PCC}

// --- Figure 8 ----------------------------------------------------------

// Fig8Row holds the average per-packet run time of one filter under
// each approach, in microseconds on the modeled 175-MHz Alpha.
type Fig8Row struct {
	Filter filters.Filter
	Micros [numApproaches]float64
	// Accepted is the number of accepted packets (identical across
	// approaches; reported as a cross-check).
	Accepted int
}

// Fig8 reproduces Figure 8: average per-packet run time over an
// n-packet trace for the four filters under all four approaches.
func Fig8(n int) ([]Fig8Row, error) {
	pkts := Trace(n)
	rows := make([]Fig8Row, 0, len(filters.All))
	for _, f := range filters.All {
		row := Fig8Row{Filter: f}

		variants, err := buildVariants(f)
		if err != nil {
			return nil, err
		}
		var cycles [numApproaches]int64
		for _, p := range pkts {
			aBPF, c := bpf.RunCycles(variants.bpfProg, p.Data, &bpf.DefaultCost)
			cycles[BPF] += c

			got, c, err := variants.envPlain.Exec(variants.m3Prog, p.Data, machine.Unchecked)
			if err != nil {
				return nil, fmt.Errorf("%v/M3: %w", f, err)
			}
			cycles[M3View] += c
			if (got != 0) != (aBPF != 0) {
				return nil, fmt.Errorf("%v: M3 disagrees with BPF", f)
			}

			got, c, err = variants.envSFI.Exec(variants.sfiProg, p.Data, machine.Unchecked)
			if err != nil {
				return nil, fmt.Errorf("%v/SFI: %w", f, err)
			}
			cycles[SFI] += c
			if (got != 0) != (aBPF != 0) {
				return nil, fmt.Errorf("%v: SFI disagrees with BPF", f)
			}

			got, c, err = variants.envPlain.Exec(variants.pccProg, p.Data, machine.Unchecked)
			if err != nil {
				return nil, fmt.Errorf("%v/PCC: %w", f, err)
			}
			cycles[PCC] += c
			if (got != 0) != (aBPF != 0) {
				return nil, fmt.Errorf("%v: PCC disagrees with BPF", f)
			}
			if got != 0 {
				row.Accepted++
			}
		}
		for a := range cycles {
			row.Micros[a] = machine.Micros(cycles[a]) / float64(len(pkts))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

type variantSet struct {
	pccProg  []alpha.Instr
	sfiProg  []alpha.Instr
	m3Prog   []alpha.Instr
	bpfProg  []bpf.Insn
	envPlain filters.Env
	envSFI   filters.Env
}

func buildVariants(f filters.Filter) (*variantSet, error) {
	v := &variantSet{
		pccProg:  filters.Prog(f),
		bpfProg:  filters.BPFProg(f),
		envPlain: filters.Env{},
		envSFI:   filters.Env{SFI: true},
	}
	var err error
	if v.sfiProg, err = sfi.Rewrite(v.pccProg); err != nil {
		return nil, err
	}
	if v.m3Prog, err = m3.Compile(m3.Prog(f, m3.View), m3.View); err != nil {
		return nil, err
	}
	if err := bpf.Validate(v.bpfProg); err != nil {
		return nil, err
	}
	return v, nil
}

// --- Table 1 ------------------------------------------------------------

// validationRuns is how many times Table1 validates each filter. The
// one-time costs are timed on a multiprogrammed host, so each timed
// column is the median and quartiles of this many validations.
const validationRuns = 20

// The cost columns of a Table1Row: the whole pcc.Validate call, its
// four stages, the static WCET analysis the kernel runs before it
// commits a filter, and the heap each validation allocates.
const (
	costValidate = iota
	costParse
	costSig
	costVCGen
	costCheck
	costWCET
	costHeap
	numCosts
)

// costColumns names each cost column's report row (%s is the filter)
// and the package whose work it measures.
var costColumns = [numCosts]struct{ name, layer, unit string }{
	{"table1/%s/validation_us", "pcc", "us"},
	{"stages/%s/parse_us", "pccbin", "us"},
	{"stages/%s/lfsig_us", "lf", "us"},
	{"stages/%s/vcgen_us", "vcgen", "us"},
	{"stages/%s/lfcheck_us", "lf", "us"},
	{"stages/%s/wcet_us", "machine", "us"},
	{"table1/%s/heap_kb", "pcc", "kB"},
}

// Table1Row reports, for one filter, the paper's Table 1 columns, the
// split of its validation cost by pipeline stage, and the size of its
// certificate, all from one loop of validations.
type Table1Row struct {
	Filter       filters.Filter
	Instructions int
	BinarySize   int // bytes, total PCC binary
	CodeBytes    int // native code section
	ProofBytes   int // encoded proof section
	ProofNodes   int // decoded proof term, LF nodes
	VCNodes      int // recomputed safety predicate, LF nodes
	CheckSteps   int // LF inference steps to check the proof
	// HeapKB is the mean heap allocated per validation: one
	// validation's HeapBytes is only accurate to a few spans, so the
	// median (Cost[costHeap]) reads a few percent low.
	HeapKB float64
	// Cost holds the timed columns (µs) and the heap column (kB) over
	// validationRuns validations.
	Cost [numCosts]Row
}

// rowKey is a filter's name in report rows ("filter1").
func rowKey(f filters.Filter) string {
	return strings.ToLower(strings.ReplaceAll(f.String(), " ", ""))
}

// Table1 certifies the four PCC filters and validates each
// validationRuns times, reporting the paper's Table 1 columns, the
// per-stage split and the certificate sizes.
func Table1() ([]Table1Row, error) {
	pol := policy.PacketFilter()
	rows := make([]Table1Row, 0, len(filters.All))
	for _, f := range filters.All {
		cert, err := pcc.Certify(filters.Source(f), pol, nil)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", f, err)
		}
		var samples [numCosts][]float64
		var stats *pcc.ValidationStats
		for i := 0; i < validationRuns; i++ {
			var ext *pcc.Extension
			ext, stats, err = pcc.Validate(cert.Binary, pol)
			if err != nil {
				return nil, fmt.Errorf("%v: %w", f, err)
			}
			start := time.Now()
			if _, err := machine.DEC21064.MaxCost(ext.Prog); err != nil {
				return nil, fmt.Errorf("%v: wcet: %w", f, err)
			}
			wcet := time.Since(start)
			for c, d := range [...]time.Duration{stats.Time, stats.Parse, stats.SigCheck, stats.VCGen, stats.Check, wcet} {
				samples[c] = append(samples[c], float64(d.Nanoseconds())/1e3)
			}
			samples[costHeap] = append(samples[costHeap], float64(stats.HeapBytes)/1024)
		}
		row := Table1Row{
			Filter:       f,
			Instructions: cert.Instructions,
			BinarySize:   len(cert.Binary),
			CodeBytes:    cert.Layout.CodeLen,
			ProofBytes:   cert.Layout.ProofLen,
			ProofNodes:   stats.ProofNodes,
			VCNodes:      stats.VCNodes,
			CheckSteps:   stats.CheckSteps,
		}
		for _, kb := range samples[costHeap] {
			row.HeapKB += kb / validationRuns
		}
		for c, col := range costColumns {
			row.Cost[c] = summarize(fmt.Sprintf(col.name, rowKey(f)), col.layer, col.unit, samples[c])
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// rows are the filter's report rows: the deterministic sizes and
// counts (N = 1), then the cost columns.
func (r Table1Row) rows() []Row {
	f := rowKey(r.Filter)
	return append([]Row{
		count("table1/"+f+"/instructions", "pcc", "instrs", float64(r.Instructions)),
		count("table1/"+f+"/binary_bytes", "pccbin", "B", float64(r.BinarySize)),
		count("cert_cost/"+f+"/code_bytes", "pccbin", "B", float64(r.CodeBytes)),
		count("cert_cost/"+f+"/proof_bytes", "pccbin", "B", float64(r.ProofBytes)),
		count("cert_cost/"+f+"/proof_nodes", "pccbin", "nodes", float64(r.ProofNodes)),
		count("cert_cost/"+f+"/vc_nodes", "vcgen", "nodes", float64(r.VCNodes)),
		count("cert_cost/"+f+"/check_steps", "lf", "steps", float64(r.CheckSteps)),
	}, r.Cost[:]...)
}

// --- Figure 7 ------------------------------------------------------------

// ResourceAccessSrc is the Figure 5 program used for the Figure 7
// layout.
const ResourceAccessSrc = `
        ADDQ  r0, 8, r1
        LDQ   r0, 8(r0)
        LDQ   r2, -8(r1)
        ADDQ  r0, 1, r0
        BEQ   r2, L1
        STQ   r0, 0(r1)
L1:     RET
`

// Fig7 reproduces Figure 7: the PCC binary layout for the resource
// access example.
func Fig7() (*pcc.CertResult, error) {
	return pcc.Certify(ResourceAccessSrc, policy.ResourceAccess(), nil)
}

// --- Figure 9 ------------------------------------------------------------

// Fig9Point is one point of the amortization curve: cumulative cost in
// milliseconds after processing N packets.
type Fig9Point struct {
	Packets int
	MS      [numApproaches]float64
}

// Fig9Result reproduces Figure 9 for Filter 4: startup cost plus
// per-packet cost as a function of packets processed, and the
// crossover points after which PCC is cheaper than each alternative.
type Fig9Result struct {
	// Startup costs in milliseconds: PCC proof validation (Table 1's
	// median), BPF program check, M3 compilation, SFI
	// rewrite+validation (host wall-clock).
	StartupMS [numApproaches]float64
	// PerPacketUS are the Figure 8 per-packet microseconds.
	PerPacketUS [numApproaches]float64
	// Curve samples the cumulative cost.
	Curve []Fig9Point
	// CrossoverPackets[a] is the number of packets after which PCC's
	// total cost drops below approach a (0 for PCC itself).
	CrossoverPackets [numApproaches]int
}

// Fig9 computes the amortization analysis over a calibration trace of
// n packets and a curve up to maxPackets. PCC's startup cost is the
// median validation time of f4, Filter 4's Table 1 row, so Figure 9
// and Table 1 report one measurement.
func Fig9(f4 Table1Row, n, maxPackets int) (*Fig9Result, error) {
	if f4.Filter != filters.Filter4 {
		return nil, fmt.Errorf("fig9: startup row is %v, want %v", f4.Filter, filters.Filter4)
	}
	rows, err := Fig8(n)
	if err != nil {
		return nil, err
	}
	var perPacket *Fig8Row
	for i := range rows {
		if rows[i].Filter == filters.Filter4 {
			perPacket = &rows[i]
		}
	}

	res := &Fig9Result{PerPacketUS: perPacket.Micros}

	// Startup costs.
	res.StartupMS[PCC] = f4.Cost[costValidate].Median / 1000

	start := time.Now()
	if err := bpf.Validate(filters.BPFProg(filters.Filter4)); err != nil {
		return nil, err
	}
	res.StartupMS[BPF] = time.Since(start).Seconds() * 1000

	start = time.Now()
	if _, err := m3.Compile(m3.Prog(filters.Filter4, m3.View), m3.View); err != nil {
		return nil, err
	}
	res.StartupMS[M3View] = time.Since(start).Seconds() * 1000

	start = time.Now()
	rw, err := sfi.Rewrite(filters.Prog(filters.Filter4))
	if err != nil {
		return nil, err
	}
	if err := sfi.Validate(rw); err != nil {
		return nil, err
	}
	res.StartupMS[SFI] = time.Since(start).Seconds() * 1000

	// Curve and crossovers.
	total := func(a Approach, pkts int) float64 {
		return res.StartupMS[a] + res.PerPacketUS[a]*float64(pkts)/1000
	}
	step := maxPackets / 20
	if step == 0 {
		step = 1
	}
	for p := 0; p <= maxPackets; p += step {
		pt := Fig9Point{Packets: p}
		for _, a := range Approaches {
			pt.MS[a] = total(a, p)
		}
		res.Curve = append(res.Curve, pt)
	}
	for _, a := range Approaches {
		if a == PCC {
			continue
		}
		gap := res.PerPacketUS[a] - res.PerPacketUS[PCC]
		if gap <= 0 {
			res.CrossoverPackets[a] = -1 // never
			continue
		}
		startupGap := (res.StartupMS[PCC] - res.StartupMS[a]) * 1000 // µs
		res.CrossoverPackets[a] = int(startupGap/gap) + 1
	}
	return res, nil
}

// --- Checksum experiment ---------------------------------------------------

// ChecksumResult reports the §4 loop experiment.
type ChecksumResult struct {
	Instructions int
	LoopInstrs   int
	BinarySize   int
	Validation   time.Duration
	// SpeedupVsC is the cycle ratio of the "standard C" 32-bit loop to
	// the optimized 64-bit PCC routine (paper: "a factor of two").
	SpeedupVsC float64
}

// Checksum certifies the looping checksum routine through the full PCC
// pipeline (invariant table in the binary) and measures it against the
// word32 baseline over an n-packet trace.
func Checksum(n int) (*ChecksumResult, error) {
	pol := policy.PacketFilter()
	cert, err := pcc.Certify(filters.SrcChecksum, pol,
		map[string]logic.Pred{"loop": filters.ChecksumInvariant()})
	if err != nil {
		return nil, err
	}
	ext, stats, err := pcc.Validate(cert.Binary, pol)
	if err != nil {
		return nil, err
	}

	asm := alpha.MustAssemble(filters.SrcChecksum)
	baseline := alpha.MustAssemble(filters.SrcChecksumWord32)
	env := filters.Env{}
	var fast, slow int64
	for _, p := range Trace(n) {
		r1, c1, err := env.Exec(ext.Prog, p.Data, machine.Unchecked)
		if err != nil {
			return nil, err
		}
		r2, c2, err := env.Exec(baseline.Prog, p.Data, machine.Unchecked)
		if err != nil {
			return nil, err
		}
		if r1 != r2 {
			return nil, fmt.Errorf("checksum mismatch: %#x vs %#x", r1, r2)
		}
		fast += c1
		slow += c2
	}
	return &ChecksumResult{
		Instructions: cert.Instructions,
		LoopInstrs:   asm.Labels["fold"] - asm.Labels["loop"],
		BinarySize:   len(cert.Binary),
		Validation:   stats.Time,
		SpeedupVsC:   float64(slow) / float64(fast),
	}, nil
}
