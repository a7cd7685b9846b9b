package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/alpha"
	"repro/internal/filters"
	"repro/internal/machine"
	"repro/internal/pccbin"
)

var testWork string

func TestMain(m *testing.M) {
	// loadCorpus re-executes this binary to certify the pool.
	if len(os.Args) > 1 && os.Args[1] == "-gen-pool" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	// Like a run, the tests write only under the checkout's .bench_build.
	testWork = filepath.Join("..", ".bench_build", "perfbench-test")
	code := m.Run()
	os.RemoveAll(testWork)
	os.Exit(code)
}

// contract is the metric list BENCHMARK.json declares.
type contract struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func opts(workload string, traced bool) options {
	return options{workload: workload, seed: 7, seconds: 0.6, trace: traced, work: testWork}
}

// A short run of each workload, untraced and traced, passes its checks
// and emits exactly the metrics BENCHMARK.json names, with their units.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, wl := range c.Workloads {
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			res, err := runWorkload(opts(wl.Name, traced), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, contract names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", wl.Name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// measured sets a workload up and runs it briefly, returning the bench
// so a test can plant a defect before calling check.
func measured(t *testing.T, wl workload, workload string) *bench {
	t.Helper()
	b, err := newBench(opts(workload, false), wl)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(b.dir) })
	if err := wl.prepare(b); err != nil {
		t.Fatal(err)
	}
	if err := wl.setup(b, filepath.Join(b.dir, "setup"), b.setupW); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(wl.teardown)
	b.startWorkers()
	if p := b.measure(300*time.Millisecond, false); p.fails != 0 || p.ops == 0 {
		t.Fatalf("ops=%d fails=%d", p.ops, p.fails)
	}
	return b
}

// Positive control: one wrong reference count fails the dispatch check.
func TestPlantedReferenceCountFailsCheck(t *testing.T) {
	d := &dispatchWorkload{}
	b := measured(t, d, "dispatch")
	if err := d.check(b, b.setupW); err != nil {
		t.Fatalf("unplanted check: %v", err)
	}
	d.ref[3][1]++
	if err := d.check(b, b.setupW); err == nil || !strings.Contains(err.Error(), "Filter 2") {
		t.Fatalf("planted reference count: check returned %v, want a Filter 2 mismatch", err)
	}
}

// Positive control: a "forged" binary that the kernel accepts fails the
// install check.
func TestAcceptedForgeryFailsCheck(t *testing.T) {
	d := &installWorkload{}
	b := measured(t, d, "install")
	b.corpus.Forged[5].Binary = b.corpus.Cold[5].Binary
	if err := d.check(b, b.setupW); err == nil || !strings.Contains(err.Error(), "forged") {
		t.Fatalf("accepted forgery: check returned %v, want a forged-binary failure", err)
	}
}

// The same seed makes byte-identical corpora, whatever the number of
// certifying workers; another seed does not.
func TestCorpusDeterministic(t *testing.T) {
	pool := func(workers int) *Pool {
		p, err := certifyPool(8, workers)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	enc := func(v any) []byte {
		data, err := encodeGob(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	p1, p4 := pool(1), pool(4)
	if !bytes.Equal(enc(p1), enc(p4)) {
		t.Fatal("pool depends on the number of workers")
	}
	sz := corpusSizes{cold: 8, hot: 4, forged: true}
	draw := func(p *Pool, seed int64) []byte {
		c, err := drawCorpus(p, seed, sz)
		if err != nil {
			t.Fatal(err)
		}
		return enc(c)
	}
	a := draw(p1, 3)
	if !bytes.Equal(a, draw(p4, 3)) {
		t.Fatal("same seed produced different corpora")
	}
	if bytes.Equal(a, draw(p1, 4)) {
		t.Fatal("different seeds produced the same corpus")
	}
}

// paperVariant is the paper's filter f as a Variant.
func paperVariant(f int, bin []byte) Variant {
	return Variant{Shape: f, Const: [...]uint16{8, 128, 192, 80}[f], Binary: bin}
}

// Each variant's Go reference agrees with its certified code run on the
// interpreter, and with filters.Reference at the paper's constants.
func TestVariantReference(t *testing.T) {
	p, err := certifyPool(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	var vs []Variant
	for _, byShape := range p.Variants {
		vs = append(vs, byShape...)
	}
	nVariants := len(vs)
	for f, bin := range p.Paper {
		vs = append(vs, paperVariant(f, bin))
	}
	pkts := trace(5, 4000)
	for i, v := range vs {
		b, err := pccbin.Unmarshal(v.Binary)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := alpha.Decode(b.Code)
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		for _, p := range pkts {
			ret, _, err := filters.Env{}.Exec(prog, p, machine.Checked)
			if err != nil {
				t.Fatal(err)
			}
			if (ret != 0) != v.accepts(p) {
				t.Fatalf("shape %d const %d: code says %d, reference %v", v.Shape, v.Const, ret, v.accepts(p))
			}
			if ret != 0 {
				hits++
			}
		}
		if i >= nVariants && hits == 0 {
			t.Errorf("paper filter %d accepted nothing", v.Shape+1)
		}
	}
	for f, flt := range filters.All {
		v := paperVariant(f, nil)
		for _, p := range pkts {
			if v.accepts(p) != filters.Reference(flt, p) {
				t.Fatalf("paper filter %d: reference disagrees with filters.Reference", f+1)
			}
		}
	}
}

// Histogram quantiles stay within a bucket (1/256) of the exact ones.
func TestHistQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	var xs []int64
	for i := 0; i < 100000; i++ {
		v := int64(rng.ExpFloat64() * 2e5)
		h.add(v)
		xs = append(xs, v)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		exact := float64(xs[int(math.Ceil(q*float64(len(xs))))-1])
		if got := h.quantile(q); math.Abs(got-exact) > exact/256+1 {
			t.Errorf("q=%v: hist %v, exact %v", q, got, exact)
		}
	}
}
