package pcc_test

// The testing.B harness: one benchmark per table and figure of the
// paper's evaluation, backed by internal/bench (cmd/paperbench prints
// the same rows in the paper's format). Wall-clock numbers here are
// host times; the Figure 8/9 per-packet results inside internal/bench
// are modeled 175-MHz Alpha cycles (see DESIGN.md).

import (
	"fmt"
	pcc "repro"
	"testing"

	"repro/internal/alpha"
	"repro/internal/bench"
	"repro/internal/bpf"
	"repro/internal/filters"
	"repro/internal/kernel"
	"repro/internal/logic"
	"repro/internal/m3"
	"repro/internal/machine"
	"repro/internal/policy"
	"repro/internal/sfi"
)

// BenchmarkFig8PerPacket measures per-packet execution of every filter
// under every approach (host wall-clock of the simulators; the modeled
// microseconds are reported as bench metrics).
func BenchmarkFig8PerPacket(b *testing.B) {
	pkts := bench.Trace(4096)
	for _, f := range filters.All {
		pccProg := filters.Prog(f)
		bpfProg := filters.BPFProg(f)
		sfiProg, err := sfi.Rewrite(pccProg)
		if err != nil {
			b.Fatal(err)
		}
		m3Prog, err := m3.Compile(m3.Prog(f, m3.View), m3.View)
		if err != nil {
			b.Fatal(err)
		}
		env := filters.Env{}
		envSFI := filters.Env{SFI: true}

		run := func(name string, fn func(p []byte) int64) {
			b.Run(fmt.Sprintf("%s/%s", name, f), func(b *testing.B) {
				var cycles, n int64
				for i := 0; i < b.N; i++ {
					p := pkts[i%len(pkts)]
					cycles += fn(p.Data)
					n++
				}
				b.ReportMetric(machine.Micros(cycles)/float64(n), "alpha-µs/pkt")
			})
		}
		run("PCC", func(p []byte) int64 {
			_, c, err := env.Exec(pccProg, p, machine.Unchecked)
			if err != nil {
				b.Fatal(err)
			}
			return c
		})
		run("SFI", func(p []byte) int64 {
			_, c, err := envSFI.Exec(sfiProg, p, machine.Unchecked)
			if err != nil {
				b.Fatal(err)
			}
			return c
		})
		run("M3-VIEW", func(p []byte) int64 {
			_, c, err := env.Exec(m3Prog, p, machine.Unchecked)
			if err != nil {
				b.Fatal(err)
			}
			return c
		})
		run("BPF", func(p []byte) int64 {
			_, c := bpf.RunCycles(bpfProg, p, &bpf.DefaultCost)
			return c
		})
	}
}

// BenchmarkTable1Validation measures the one-time validation cost of
// each filter's PCC binary (Table 1's "Validation Time" column).
func BenchmarkTable1Validation(b *testing.B) {
	pol := policy.PacketFilter()
	for _, f := range filters.All {
		cert, err := pcc.Certify(filters.Source(f), pol, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(f.String(), func(b *testing.B) {
			b.ReportMetric(float64(len(cert.Binary)), "binary-bytes")
			for i := 0; i < b.N; i++ {
				if _, _, err := pcc.Validate(cert.Binary, pol); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7ResourceAccessLayout measures certification of the §2
// example and reports its Figure 7 section sizes.
func BenchmarkFig7ResourceAccessLayout(b *testing.B) {
	var layoutTotal int
	for i := 0; i < b.N; i++ {
		cert, err := bench.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		layoutTotal = cert.Layout.Total
	}
	b.ReportMetric(float64(layoutTotal), "binary-bytes")
}

// BenchmarkFig9Amortization reproduces the Figure 9 analysis end to
// end on a small calibration trace.
func BenchmarkFig9Amortization(b *testing.B) {
	rows, err := bench.Table1()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig9(rows[filters.Filter4-1], 500, 50000)
		if err != nil {
			b.Fatal(err)
		}
		if res.CrossoverPackets[bench.BPF] <= 0 {
			b.Fatal("no BPF crossover")
		}
	}
}

// BenchmarkChecksum measures the §4 routine against its byte-order
// "standard C" baseline.
func BenchmarkChecksum(b *testing.B) {
	fast := alpha.MustAssemble(filters.SrcChecksum).Prog
	slow := alpha.MustAssemble(filters.SrcChecksumWord32).Prog
	pkts := bench.Trace(512)
	env := filters.Env{}
	for _, tc := range []struct {
		name string
		prog []alpha.Instr
	}{{"PCC64bit", fast}, {"C32bit", slow}} {
		b.Run(tc.name, func(b *testing.B) {
			var cycles, n int64
			for i := 0; i < b.N; i++ {
				p := pkts[i%len(pkts)]
				_, c, err := env.Exec(tc.prog, p.Data, machine.Unchecked)
				if err != nil {
					b.Fatal(err)
				}
				cycles += c
				n++
			}
			b.ReportMetric(machine.Micros(cycles)/float64(n), "alpha-µs/pkt")
		})
	}
}

// BenchmarkCertify measures producer-side certification (the paper:
// "about 5 to 10 seconds" with 1996 theorem-proving technology).
func BenchmarkCertify(b *testing.B) {
	pol := policy.PacketFilter()
	for _, f := range filters.All {
		src := filters.Source(f)
		b.Run(f.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pcc.Certify(src, pol, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCertifyChecksumLoop measures certification of the looping
// routine, including invariant handling.
func BenchmarkCertifyChecksumLoop(b *testing.B) {
	pol := policy.PacketFilter()
	inv := map[string]logic.Pred{"loop": filters.ChecksumInvariant()}
	for i := 0; i < b.N; i++ {
		if _, err := pcc.Certify(filters.SrcChecksum, pol, inv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidateResourceAccess isolates the §2.3 measurement ("it
// takes 1.4 milliseconds to validate the proof of the SP_r predicate"
// on the 175-MHz Alpha).
func BenchmarkValidateResourceAccess(b *testing.B) {
	pol := policy.ResourceAccess()
	cert, err := pcc.Certify(bench.ResourceAccessSrc, pol, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pcc.Validate(cert.Binary, pol); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSFIPipeline measures the §3.1 alternative: rewrite + SFI
// load-time validation.
func BenchmarkSFIPipeline(b *testing.B) {
	prog := filters.Prog(filters.Filter4)
	for i := 0; i < b.N; i++ {
		rw, err := sfi.Rewrite(prog)
		if err != nil {
			b.Fatal(err)
		}
		if err := sfi.Validate(rw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBPFValidate measures BPF's "few microseconds" static check.
func BenchmarkBPFValidate(b *testing.B) {
	prog := filters.BPFProg(filters.Filter4)
	for i := 0; i < b.N; i++ {
		if err := bpf.Validate(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelDispatch measures end-to-end kernel dispatch: one
// packet through four installed, validated filters (allocation
// included — the host-side cost of the simulation, not a paper
// number).
func BenchmarkKernelDispatch(b *testing.B) {
	k := kernel.New()
	for _, f := range filters.All {
		cert, err := pcc.Certify(filters.Source(f), k.FilterPolicy(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := k.InstallFilter(f.String(), cert.Binary); err != nil {
			b.Fatal(err)
		}
	}
	pkts := bench.Trace(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.DeliverPacket(pkts[i%len(pkts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWCET measures the install-time static cost analysis.
func BenchmarkWCET(b *testing.B) {
	prog := filters.Prog(filters.Filter3)
	for i := 0; i < b.N; i++ {
		if _, err := machine.DEC21064.MaxCost(prog); err != nil {
			b.Fatal(err)
		}
	}
}
