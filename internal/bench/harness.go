// The measurement harness: every host-timed number paperbench reports
// is a row of one matrix. The matrix crosses the dispatch
// configurations (backend × shape × instrumentation × goroutines) with
// verified journal replay (cold and warm proof cache); each entry is
// timed once per round, rounds interleaved across entries, and each
// row is the median and quartiles of its per-round samples. A ratio
// (speedup, overhead) is computed within each round from the two
// entries it compares, so host drift between rounds cancels, and then
// summarised the same way.
//
// Correctness is checked on every timed run: a dispatch run whose
// accept total differs from the pure-Go reference census, or a replay
// that restores fewer than every journaled record, is an error, never
// a sample.
package bench

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	pcc "repro"
	"repro/internal/filters"
	"repro/internal/kernel"
	"repro/internal/pktgen"
	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Trials is the number of interleaved rounds every timed row gets.
// About a dozen: with fewer, the quartiles are the second-smallest and
// second-largest samples, close to a min and max; with many more,
// paperbench -json over the 200,000-packet trace takes minutes.
const Trials = 12

// dispatchBatchSize is the vector length DeliverPackets is driven
// with: large enough to amortize the per-batch fixed costs, small
// enough to model a NIC ring segment rather than an unbounded queue.
const dispatchBatchSize = 1024

// recoveryRecords is the journal length the recovery rows replay:
// many records over the few distinct paper binaries, the shape a real
// journal has after owner churn.
const recoveryRecords = 200

// Row is one reported quantity: the median and quartiles of N samples.
// A deterministic count is a row with N = 1.
type Row struct {
	Name   string  `json:"name"`
	Layer  string  `json:"layer"` // the package whose cost the row measures
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// quantile is the q-quantile of sorted, interpolating linearly between
// the two closest ranks; 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// summarize reduces samples to a row.
func summarize(name, layer, unit string, samples []float64) Row {
	s := slices.Clone(samples)
	slices.Sort(s)
	return Row{Name: name, Layer: layer, Unit: unit, N: len(s),
		Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// count is the row of a deterministic count.
func count(name, layer, unit string, v float64) Row {
	return summarize(name, layer, unit, []float64{v})
}

// config is one dispatch configuration: the four paper filters
// installed through certify→validate on a fresh kernel, and the trace
// delivered by goroutines workers pulling dispatchBatchSize-packet
// batches from a shared queue.
type config struct {
	name       string
	backend    kernel.Backend
	single     bool // DeliverPacket per packet instead of DeliverPackets per batch
	profiling  bool // per-block cycle profiling
	observers  bool // telemetry recorder (spans + flight events) attached
	windowed   bool // the recorder carries the sliding-window layer
	goroutines int  // workers sharing the one kernel; 0 means 1
}

// matrix lists every dispatch configuration once, in the order each
// round runs them. The plain compiled batch configuration is the base
// of the observability and scaling ratios as well as the dispatch
// headline. Each overhead ratio's two configurations run back to back,
// so that within a round both see the same host state.
var matrix = []config{
	{name: "dispatch/interp/single", backend: kernel.BackendInterp, single: true},
	{name: "dispatch/interp/batch", backend: kernel.BackendInterp},
	{name: "observability/interp+prof", backend: kernel.BackendInterp, profiling: true},
	{name: "dispatch/compiled/single", backend: kernel.BackendCompiled, single: true},
	{name: "dispatch/compiled/batch", backend: kernel.BackendCompiled},
	{name: "observability/compiled+prof", backend: kernel.BackendCompiled, profiling: true},
	{name: "observability/compiled+prof+obs", backend: kernel.BackendCompiled, profiling: true, observers: true},
	{name: "observability/compiled+prof+obs+win", backend: kernel.BackendCompiled, profiling: true, observers: true, windowed: true},
	{name: "scaling/g2", backend: kernel.BackendCompiled, goroutines: 2},
	{name: "scaling/g4", backend: kernel.BackendCompiled, goroutines: 4},
	{name: "scaling/g8", backend: kernel.BackendCompiled, goroutines: 8},
}

// ratio is a row computed in every round from the samples of two
// timed rows of that round. Timed rows are costs per item (lower is
// better), so a speedup is base/of and an overhead is the share of
// base's throughput that of loses.
type ratio struct {
	name, unit string
	base, of   string
	f          func(base, of float64) float64
}

func speedup(base, of float64) float64     { return base / of }
func overheadPct(base, of float64) float64 { return (1 - base/of) * 100 }

var ratios = []ratio{
	{"dispatch/speedup", "x", "dispatch/interp/single", "dispatch/compiled/batch", speedup},
	{"observability/profiling_overhead_pct", "%", "dispatch/compiled/batch", "observability/compiled+prof", overheadPct},
	{"observability/observed_overhead_pct", "%", "observability/compiled+prof", "observability/compiled+prof+obs", overheadPct},
	{"observability/window_overhead_pct", "%", "observability/compiled+prof+obs", "observability/compiled+prof+obs+win", overheadPct},
	{"scaling/parallel_speedup", "x", "dispatch/compiled/batch", "scaling/g8", speedup},
	{"recovery/warm_speedup", "x", "recovery/cold", "recovery/warm", speedup},
}

// ratioRow summarises r over the rounds both of its rows were timed in.
func ratioRow(r ratio, samples map[string][]float64) Row {
	base, of := samples[r.base], samples[r.of]
	per := make([]float64, min(len(base), len(of)))
	for t := range per {
		per[t] = r.f(base[t], of[t])
	}
	return summarize(r.name, "kernel", r.unit, per)
}

// timed is one timed row: run performs one trial and returns its sample.
type timed struct {
	name, unit string
	run        func() (float64, error)
}

// trials runs every entry once per round for Trials rounds, rounds
// interleaved across entries so that each sees the host's fast and
// slow spells alike, with a GC before each run so that none pays
// another's allocation debt.
func trials(ts []timed) (map[string][]float64, error) {
	samples := make(map[string][]float64, len(ts))
	for t := 0; t < Trials; t++ {
		for _, e := range ts {
			runtime.GC()
			v, err := e.run()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", e.name, err)
			}
			samples[e.name] = append(samples[e.name], v)
		}
	}
	return samples, nil
}

// Matrix measures the rows of the named sections ("dispatch",
// "observability", "scaling", "recovery"; none means all) over an
// n-packet trace: each section's timed rows, the rows its ratios
// compare, and the ratios. Timed dispatch rows are host ns per packet
// through all four filters; recovery rows are µs per journal record.
func Matrix(n int, sections ...string) ([]Row, error) {
	in := func(name string) bool {
		return len(sections) == 0 || slices.Contains(sections, name[:strings.IndexByte(name, '/')])
	}
	need := map[string]bool{}
	var rs []ratio
	for _, r := range ratios {
		if in(r.name) {
			rs = append(rs, r)
			need[r.base], need[r.of] = true, true
		}
	}

	bins, err := certifyAll()
	if err != nil {
		return nil, err
	}
	var ts []timed
	var batches [][][]byte
	census := 0
	for _, c := range matrix {
		if !in(c.name) && !need[c.name] {
			continue
		}
		if batches == nil {
			batches, census = traceBatches(n)
		}
		k, err := c.boot(bins)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		ts = append(ts, timed{c.name, "ns/pkt", func() (float64, error) {
			return c.measure(k, batches, census)
		}})
	}
	if in("recovery/cold") {
		dir, err := os.MkdirTemp("", "pcc-bench-recovery-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		rec, err := recoveryRuns(dir, bins)
		if err != nil {
			return nil, err
		}
		ts = append(ts, rec...)
	}

	samples, err := trials(ts)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, 0, len(ts)+len(rs))
	for _, e := range ts {
		rows = append(rows, summarize(e.name, "kernel", e.unit, samples[e.name]))
	}
	for _, r := range rs {
		rows = append(rows, ratioRow(r, samples))
	}
	return rows, nil
}

// certifyAll certifies the four paper filters once, in filters.All order.
func certifyAll() ([][]byte, error) {
	var bins [][]byte
	for _, f := range filters.All {
		cert, err := pcc.Certify(filters.Source(f), policy.PacketFilter(), nil)
		if err != nil {
			return nil, fmt.Errorf("certify %v: %w", f, err)
		}
		bins = append(bins, cert.Binary)
	}
	return bins, nil
}

// traceBatches slices the n-packet trace into the batches workers
// pull, so the timed region is dispatch, not slicing arithmetic, and
// counts the (packet, filter) accepts the reference semantics give.
func traceBatches(n int) (batches [][][]byte, census int) {
	raw := make([][]byte, 0, n)
	for _, p := range Trace(n) {
		raw = append(raw, p.Data)
		for _, f := range filters.All {
			if filters.Reference(f, p.Data) {
				census++
			}
		}
	}
	for lo := 0; lo < len(raw); lo += dispatchBatchSize {
		batches = append(batches, raw[lo:min(lo+dispatchBatchSize, len(raw))])
	}
	return batches, census
}

// boot builds the configuration's kernel with bins installed.
func (c config) boot(bins [][]byte) (*kernel.Kernel, error) {
	k := kernel.New()
	if c.observers {
		var opts telemetry.Options
		if c.windowed {
			opts.Window = &telemetry.WindowOptions{}
		}
		k.SetRecorder(telemetry.NewWith(opts))
	}
	if err := k.SetBackend(c.backend); err != nil {
		return nil, err
	}
	for i, bin := range bins {
		if err := k.InstallFilter(fmt.Sprintf("proc-%d", filters.All[i]), bin); err != nil {
			return nil, err
		}
	}
	// Profiling goes on after install so the accumulators exist before
	// the first timed round, as they would in production.
	if c.profiling {
		k.SetProfiling(true)
	}
	return k, nil
}

// measure delivers every batch once through k and returns the host
// cost per packet in ns. An accept total other than census is an error.
func (c config) measure(k *kernel.Kernel, batches [][][]byte, census int) (float64, error) {
	var next, accepted atomic.Int64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < max(c.goroutines, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var acc int64
			for i := next.Add(1) - 1; int(i) < len(batches); i = next.Add(1) - 1 {
				n, err := c.deliver(k, batches[i])
				if err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				acc += int64(n)
			}
			accepted.Add(acc)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if ep := firstErr.Load(); ep != nil {
		return 0, *ep
	}
	if int(accepted.Load()) != census {
		return 0, fmt.Errorf("%d accepts, reference says %d", accepted.Load(), census)
	}
	packets := 0
	for _, b := range batches {
		packets += len(b)
	}
	return float64(wall.Nanoseconds()) / float64(packets), nil
}

// deliver dispatches one batch in the configuration's shape and
// returns its (packet, filter) accepts.
func (c config) deliver(k *kernel.Kernel, batch [][]byte) (int, error) {
	accepts := 0
	if c.single {
		for _, p := range batch {
			acc, err := k.DeliverPacket(pktgen.Packet{Data: p})
			if err != nil {
				return 0, err
			}
			accepts += len(acc)
		}
		return accepts, nil
	}
	out, err := k.DeliverPackets(batch)
	if err != nil {
		return 0, err
	}
	for _, acc := range out {
		accepts += len(acc)
	}
	return accepts, nil
}

// recoveryRuns journals recoveryRecords install records cycling
// through bins (distinct owners, so every record restores) in dir, and
// returns the cold (proof cache disabled) and warm timed rows: each
// trial replays the journal into a fresh kernel through Kernel.Recover,
// re-proving every record, and yields µs per record.
func recoveryRuns(dir string, bins [][]byte) ([]timed, error) {
	s, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	for i := 0; i < recoveryRecords; i++ {
		if _, err := s.Append(store.KindInstall, fmt.Sprintf("o-%d", i), bins[i%len(bins)]); err != nil {
			s.Close()
			return nil, err
		}
	}
	if err := s.Close(); err != nil {
		return nil, err
	}
	replay := func(k *kernel.Kernel) (float64, error) {
		s, err := store.Open(dir, store.Options{NoSync: true})
		if err != nil {
			return 0, err
		}
		start := time.Now()
		rep, err := k.Recover(context.Background(), s)
		wall := time.Since(start)
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, err
		}
		if rep.Restored != recoveryRecords || len(rep.Skipped) != 0 {
			return 0, fmt.Errorf("restored %d of %d, %d skipped — the benchmark journal must replay losslessly",
				rep.Restored, recoveryRecords, len(rep.Skipped))
		}
		return float64(wall.Nanoseconds()) / 1e3 / recoveryRecords, nil
	}
	return []timed{
		{"recovery/cold", "us/record", func() (float64, error) { return replay(kernel.NewWithCacheSize(0)) }},
		{"recovery/warm", "us/record", func() (float64, error) { return replay(kernel.New()) }},
	}, nil
}

// FormatRows renders rows as a table: median and [q1, q3] of N.
func FormatRows(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %-10s %10s  %-22s %3s\n", "row", "unit", "median", "[q1, q3]", "n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-40s %-10s %10.4g  %-22s %3d\n", r.Name, r.Unit, r.Median,
			fmt.Sprintf("[%.4g, %.4g]", r.Q1, r.Q3), r.N)
	}
	return b.String()
}
