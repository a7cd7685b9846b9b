package bench

import (
	"strings"
	"testing"

	"repro/internal/filters"
)

func TestFig8SmallTraceShape(t *testing.T) {
	rows, err := Fig8(5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if bad := ShapeCheck(rows); len(bad) != 0 {
		t.Fatalf("shape violations:\n%s\n%s", strings.Join(bad, "\n"), FormatFig8(rows))
	}
	out := FormatFig8(rows)
	if !strings.Contains(out, "Filter 4") || !strings.Contains(out, "BPF") {
		t.Errorf("format missing content:\n%s", out)
	}
}

func TestTable1(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.Instructions == 0 || r.BinarySize == 0 || r.Cost[costValidate].Median <= 0 {
			t.Errorf("row %d degenerate: %+v", i, r)
		}
		// §2.3: proofs are "about 3 times larger than the code"; allow
		// a generous band.
		ratio := float64(r.ProofBytes) / float64(r.CodeBytes)
		if ratio < 1 || ratio > 40 {
			t.Errorf("%v: proof/code ratio %.1f out of band", r.Filter, ratio)
		}
	}
	// Sizes must grow from Filter 1 to Filter 3 (the largest filter).
	if !(rows[0].BinarySize < rows[2].BinarySize) {
		t.Errorf("binary sizes not ordered: %d vs %d", rows[0].BinarySize, rows[2].BinarySize)
	}
	// The stage split and the certificate sizes come from the same
	// validations: the stages account for most of the whole call, and
	// every size is positive.
	for _, r := range rows {
		stages := r.Cost[costParse].Median + r.Cost[costSig].Median + r.Cost[costVCGen].Median + r.Cost[costCheck].Median
		if stages <= 0 || r.Cost[costValidate].Median < stages/2 {
			t.Errorf("%v: implausible stage split: %.1f µs of stages in %.1f µs", r.Filter, stages, r.Cost[costValidate].Median)
		}
		if r.ProofNodes <= 0 || r.VCNodes <= 0 || r.CheckSteps <= 0 || r.HeapKB <= 0 {
			t.Errorf("%v: implausible certificate cost: %+v", r.Filter, r)
		}
		for _, c := range r.Cost {
			if c.N != validationRuns || c.Q1 > c.Median || c.Median > c.Q3 {
				t.Errorf("%v: bad cost row %+v", r.Filter, c)
			}
		}
	}
	for _, out := range []string{FormatTable1(rows), FormatStages(rows), FormatCertCost(rows)} {
		if !strings.Contains(out, "Filter 4") {
			t.Errorf("format missing Filter 4:\n%s", out)
		}
	}
}

func TestFig7(t *testing.T) {
	cert, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	lay := cert.Layout
	if lay.CodeLen == 0 || lay.ProofLen == 0 || lay.RelocLen == 0 {
		t.Fatalf("degenerate layout: %s", lay)
	}
	if lay.CodeOff >= lay.RelocOff || lay.RelocOff >= lay.ProofOff {
		t.Fatalf("sections out of order: %s", lay)
	}
	// 7 instructions = 28 bytes of code + a length header.
	if lay.CodeLen < 28 || lay.CodeLen > 40 {
		t.Errorf("code section %d bytes, want ~29", lay.CodeLen)
	}
	out := FormatFig7(lay)
	if !strings.Contains(out, "paper") {
		t.Errorf("format missing paper row:\n%s", out)
	}
}

func TestFig9(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fig9(rows[filters.Filter4-1], 3000, 50000)
	if err != nil {
		t.Fatal(err)
	}
	// PCC must eventually beat every other approach.
	for _, a := range Approaches {
		if a == PCC {
			continue
		}
		if res.CrossoverPackets[a] < 0 {
			t.Errorf("PCC never catches up with %v", a)
		}
	}
	// BPF's crossover must come earliest (largest per-packet gap), SFI
	// last — the paper's ordering.
	if !(res.CrossoverPackets[BPF] < res.CrossoverPackets[M3View] &&
		res.CrossoverPackets[M3View] < res.CrossoverPackets[SFI]) {
		t.Errorf("crossover ordering violated: %v", res.CrossoverPackets)
	}
	if len(res.Curve) < 10 {
		t.Errorf("curve too sparse: %d points", len(res.Curve))
	}
	// The curve is monotone in packets for every approach.
	for i := 1; i < len(res.Curve); i++ {
		for _, a := range Approaches {
			if res.Curve[i].MS[a] < res.Curve[i-1].MS[a] {
				t.Fatalf("curve not monotone for %v", a)
			}
		}
	}
	_ = FormatFig9(res)
}

func TestChecksumExperiment(t *testing.T) {
	res, err := Checksum(300)
	if err != nil {
		t.Fatal(err)
	}
	if res.LoopInstrs != 8 {
		t.Errorf("loop = %d instructions, want 8", res.LoopInstrs)
	}
	if res.SpeedupVsC < 1.5 || res.SpeedupVsC > 3.5 {
		t.Errorf("speedup vs C = %.2f, expected ~2x", res.SpeedupVsC)
	}
	if res.Validation <= 0 || res.BinarySize == 0 {
		t.Errorf("degenerate result: %+v", res)
	}
	_ = FormatChecksum(res)
}

func TestTraceDeterminism(t *testing.T) {
	a := Trace(100)
	b := Trace(100)
	for i := range a {
		if string(a[i].Data) != string(b[i].Data) {
			t.Fatal("trace not deterministic")
		}
	}
}

func TestShapeCheckCatchesViolations(t *testing.T) {
	rows := []Fig8Row{{
		Filter: 1,
		// PCC slower than SFI: ordering violated.
		Micros: [numApproaches]float64{1.0, 0.5, 0.1, 0.2},
	}}
	if bad := ShapeCheck(rows); len(bad) == 0 {
		t.Fatal("distorted ordering passed the shape check")
	}
	rows[0].Micros = [numApproaches]float64{0.3, 0.2, 0.12, 0.1} // BPF only 3x
	if bad := ShapeCheck(rows); len(bad) == 0 {
		t.Fatal("weak BPF ratio passed the shape check")
	}
}
