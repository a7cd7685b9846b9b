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

// Table1Row reports, for one filter, the PCC binary metrics of Table 1.
type Table1Row struct {
	Filter       filters.Filter
	Instructions int
	BinarySize   int           // bytes, total PCC binary
	Validation   time.Duration // one-time proof validation (host)
	HeapKB       float64       // heap allocated during validation
	ProofBytes   int           // proof section size
	CodeBytes    int           // native code section size
}

// Table1 certifies and validates the four PCC filters, reporting the
// paper's Table 1 columns.
func Table1() ([]Table1Row, error) {
	pol := policy.PacketFilter()
	rows := make([]Table1Row, 0, len(filters.All))
	for _, f := range filters.All {
		cert, err := pcc.Certify(filters.Source(f), pol, nil)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", f, err)
		}
		// Validate a few times and keep the fastest, as one does for
		// one-time costs on a multiprogrammed host. Heap is the mean:
		// one validation's HeapBytes is only accurate to a few spans.
		const runs = 20
		var best *pcc.ValidationStats
		var heap uint64
		for i := 0; i < runs; i++ {
			_, stats, err := pcc.Validate(cert.Binary, pol)
			if err != nil {
				return nil, fmt.Errorf("%v: %w", f, err)
			}
			if best == nil || stats.Time < best.Time {
				best = stats
			}
			heap += stats.HeapBytes
		}
		rows = append(rows, Table1Row{
			Filter:       f,
			Instructions: cert.Instructions,
			BinarySize:   len(cert.Binary),
			Validation:   best.Time,
			HeapKB:       float64(heap) / runs / 1024,
			ProofBytes:   cert.Layout.ProofLen,
			CodeBytes:    cert.Layout.CodeLen,
		})
	}
	return rows, nil
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
	// Startup costs in milliseconds: PCC proof validation, BPF program
	// check, M3 compilation, SFI rewrite+validation (host wall-clock).
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
// n packets and a curve up to maxPackets.
func Fig9(n, maxPackets int) (*Fig9Result, error) {
	rows, err := Fig8(n)
	if err != nil {
		return nil, err
	}
	var f4 *Fig8Row
	for i := range rows {
		if rows[i].Filter == filters.Filter4 {
			f4 = &rows[i]
		}
	}

	res := &Fig9Result{PerPacketUS: f4.Micros}

	// Startup costs.
	pol := policy.PacketFilter()
	cert, err := pcc.Certify(filters.Source(filters.Filter4), pol, nil)
	if err != nil {
		return nil, err
	}
	bestValidate := time.Duration(1 << 62)
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, _, err := pcc.Validate(cert.Binary, pol); err != nil {
			return nil, err
		}
		if d := time.Since(start); d < bestValidate {
			bestValidate = d
		}
	}
	res.StartupMS[PCC] = bestValidate.Seconds() * 1000

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
