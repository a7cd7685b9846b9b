package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	pcc "repro"
	"repro/internal/filters"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/store"
)

// setupReps is how many times a run sets its system up; setup_s is the
// median, and the last system built is the one measured.
const setupReps = 9

// servedStore is the store configuration `pccmon -serve` boots with:
// fsync on every append, compaction every 512 records.
var servedStore = store.Options{CompactEvery: 512}

// workload is one closed-loop traffic mix.
type workload interface {
	// prepare builds the run's inputs from the corpus; untimed.
	prepare(b *bench) error
	// setup boots a fresh system into dir and brings it to its measured
	// state: kernel boot, store open, resident installs, warm-up. It is
	// timed, and repeated setupReps times; w traces its installs.
	setup(b *bench, dir string, w *worker) error
	// teardown releases the system the last setup built.
	teardown()
	// op runs one closed-loop operation on worker w.
	op(b *bench, w *worker)
	// check verifies the system's outputs after the measured phases;
	// w traces the deliveries a check makes.
	check(b *bench, w *worker) error
	// served reports whether the system runs in the served posture.
	served() bool
}

var workloads = map[string]func() workload{
	"dispatch":          func() workload { return &dispatchWorkload{} },
	"dispatch_observed": func() workload { return &dispatchWorkload{observed: true} },
	"install":           func() workload { return &installWorkload{} },
	"reboot":            func() workload { return &rebootWorkload{} },
}

// bench is one run's shared state.
type bench struct {
	o      options
	procs  int
	corpus *Corpus
	dir    string // scratch directory, emptied at start and end
	ctx    context.Context
	// shadow is the traced run's own store: every install the run makes
	// is appended to it too, so store costs show on every workload.
	shadow      *store.Store
	shadowDir   string
	shadowCount atomic.Int64
	workers     []*worker
	setupW      *worker // traces set-up and checks
	wl          workload
	// Figures a workload or the epilogue fills in for layerMetrics.
	hitRatio   float64
	batchAlloc float64
}

// worker is one closed-loop client. Fields are touched only by the
// goroutine running the worker, and read after the phase ends.
type worker struct {
	id    int
	seq   int64
	tr    *tracer
	lat   hist // op latency, ns
	cold  hist // install only: latency of proof-cache misses
	units int64
	ops   int64
	fails int64
	state any // workload-private
}

// record notes a completed op that took lat and did units of work.
func (w *worker) record(lat time.Duration, units int, cold bool) {
	if cold {
		w.cold.add(int64(lat))
	} else {
		w.lat.add(int64(lat))
	}
	w.units += int64(units)
}

func (w *worker) nextOp() int64 {
	w.seq++
	return int64(w.id)<<40 | w.seq
}

// fail counts a failed op and reports it once per run on stderr.
func (w *worker) fail(err error) {
	if w.fails == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: worker %d: %v\n", w.id, err)
	}
	w.fails++
}

// phase is what one measured interval produced.
type phase struct {
	elapsed    time.Duration
	ops, fails int64
	units      int64
	lat, cold  hist
	gcCycles   uint32
	gcPause    time.Duration
	allocBytes uint64
}

// measure runs every worker in a closed loop for d.
func (b *bench) measure(d time.Duration, traced bool) *phase {
	for _, w := range b.workers {
		w.lat, w.cold, w.units, w.ops, w.fails = hist{}, hist{}, 0, 0, 0
		w.tr = nil
		if traced {
			w.tr = &tracer{base: b.setupW.tr.base}
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range b.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for time.Since(start) < d {
				b.wl.op(b, w)
			}
		}(w)
	}
	wg.Wait()
	p := &phase{elapsed: time.Since(start)}
	runtime.ReadMemStats(&m1)
	p.gcCycles = m1.NumGC - m0.NumGC
	p.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	for _, w := range b.workers {
		p.ops += w.ops
		p.fails += w.fails
		p.units += w.units
		p.lat.merge(&w.lat)
		p.cold.merge(&w.cold)
	}
	return p
}

// newBench makes a run's scratch directory and loads its corpus.
func newBench(o options, wl workload) (*bench, error) {
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	b := &bench{o: o, procs: runtime.GOMAXPROCS(0), ctx: context.Background(), wl: wl}
	b.dir = filepath.Join(o.work, "run")
	if err := os.RemoveAll(b.dir); err != nil {
		return nil, err
	}
	c, err := loadCorpus(filepath.Join(o.work, "corpus"), o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	b.corpus = c
	b.setupW = &worker{id: 0}
	if o.trace {
		b.setupW.tr = &tracer{base: time.Now()}
		b.shadowDir = filepath.Join(b.dir, "shadow")
		// Compaction is driven by hand (shadowAppend) so it is timed.
		if b.shadow, err = store.Open(b.shadowDir, store.Options{}); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (b *bench) startWorkers() {
	for i := 0; i < b.procs; i++ {
		b.workers = append(b.workers, &worker{id: i + 1})
	}
}

func runWorkload(o options, log io.Writer) (*result, error) {
	mk, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	wl := mk()
	b, err := newBench(o, wl)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.dir)
	if b.shadow != nil {
		defer b.shadow.Close()
	}
	if err := wl.prepare(b); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	var setups []float64
	for r := 0; r < setupReps; r++ {
		if r > 0 {
			wl.teardown()
		}
		dir := filepath.Join(b.dir, fmt.Sprintf("setup%d", r))
		runtime.GC()
		t0 := time.Now()
		if err := wl.setup(b, dir, b.setupW); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer wl.teardown()
	b.startWorkers()

	total := time.Duration(o.seconds * float64(time.Second))
	res := &result{Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	var phases []*phase
	if !o.trace {
		p := b.measure(total, false)
		phases = append(phases, p)
		put("ops_per_s", "1/s", rate(p))
		// Install latency is reported for cold installs, the paper's
		// one-time validation cost. Warm installs are mostly an fsync
		// and wander with the host's disk; they show in ops_per_s and in
		// the per-layer store and kernel figures.
		lat := &p.lat
		if p.cold.n > 0 {
			lat = &p.cold
		}
		put("p50_us", "us", lat.quantile(0.50)/1e3)
		put("tail_us", "us", lat.quantile(tailQ)/1e3)
		put("setup_s", "s", median(setups))
		put("rss_mb", "MB", peakRSSMB())
		summarize(log, o.workload, p)
	} else {
		phases = append(phases, b.measure(total/3, false), b.measure(total-total/3, true))
	}
	checkErr := wl.check(b, b.setupW)
	if o.trace && checkErr == nil {
		if err := b.epilogue(); err != nil {
			return nil, fmt.Errorf("epilogue: %w", err)
		}
		b.layerMetrics(put, phases[0], phases[1])
	}
	for _, p := range phases {
		res.Attempted += p.ops
		res.Failed += p.fails
	}
	res.Correct = checkErr == nil && res.Failed == 0 && res.Attempted > 0
	if checkErr != nil {
		fmt.Fprintln(log, "perfbench: check failed:", checkErr)
	}
	if o.trace {
		ts := b.tracers()
		path := filepath.Join(o.work, "trace", fmt.Sprintf("%s-%d.jsonl", o.workload, o.seed))
		if err := writeSpans(path, ts); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	logEnv(log, b)
	return res, nil
}

// tailQ is the quantile tail_us reports on every workload. A run holds
// about 300 reboots, so for them the p90 is the highest percentile with
// ten samples beyond it. Batches and cold installs number in the
// thousands, but on a 2-vCPU virtual machine their p99 tracked how
// often the host stalled a virtual CPU (for about 10 ms), not the
// program: over ten runs of identical code, the middle half of the
// batch p99s spread by 22-30% of their median, and of the p90s by 4-16%.
const tailQ = 0.90

func (b *bench) tracers() []*tracer {
	ts := []*tracer{b.setupW.tr}
	for _, w := range b.workers {
		if w.tr != nil {
			ts = append(ts, w.tr)
		}
	}
	return ts
}

// hitRatio is the proof-cache hit share of the install attempts s2-s1
// counts, 0 when there were none.
func hitRatio(s1, s2 kernel.Stats) float64 {
	h, m := s2.CacheHits-s1.CacheHits, s2.CacheMisses-s1.CacheMisses
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// --- postures ---------------------------------------------------------

// servedTenant boots a kernel the way `pccmon -serve` boots each tenant:
// through the registry (telemetry and flight recorders attached), audit
// records teed through the tenant's ring into a JSON log, compiled
// backend with cycle profiling, and the served quarantine config. The
// audit sink discards its bytes: the benchmark measures the kernel, not
// the log device.
func servedTenant() (*kernel.Tenant, error) {
	tn, err := kernel.NewRegistry().Create("default")
	if err != nil {
		return nil, err
	}
	k := tn.Kernel
	k.SetAuditLog(slog.New(tn.Audit.Handler(slog.NewJSONHandler(io.Discard, nil))).With("tenant", tn.Name))
	if err := k.SetBackend(kernel.BackendCompiled); err != nil {
		return nil, err
	}
	k.SetProfiling(true)
	k.SetQuarantine(kernel.QuarantineConfig{Threshold: 3, Base: time.Second, Max: 5 * time.Minute})
	return tn, nil
}

// bareKernel is the paper's posture: compiled backend, no observers.
func bareKernel() (*kernel.Kernel, error) {
	k := kernel.New()
	return k, k.SetBackend(kernel.BackendCompiled)
}

// postureKernel returns a fresh kernel in the workload's posture.
func postureKernel(wl workload) (*kernel.Kernel, error) {
	if wl.served() {
		tn, err := servedTenant()
		if err != nil {
			return nil, err
		}
		return tn.Kernel, nil
	}
	return bareKernel()
}

func postureTag(served bool) string {
	if served {
		return "served"
	}
	return "bare"
}

// --- traced calls -----------------------------------------------------

// install submits one binary and waits for the kernel's answer. Traced,
// it also repeats on the same input the calls the kernel makes into
// lower layers (validation and compilation on a proof-cache miss, the
// journal append when the kernel journals), as siblings of the kernel
// span, so the kernel's own time is the difference.
func (b *bench) install(w *worker, k *kernel.Kernel, owner string, bin []byte, miss, journaled bool) error {
	op := w.nextOp()
	root := w.tr.start("op.install", op, -1)
	i := w.tr.start("kernel.InstallFilterCtx", op, root)
	err := k.InstallFilterCtx(b.ctx, owner, bin)
	w.tr.stop(i)
	if w.tr != nil && err == nil {
		if miss {
			ext, verr := b.shadowValidate(w, op, root, bin)
			if verr != nil {
				err = verr
			} else {
				b.shadowCompile(w, op, root, ext)
			}
		}
		if journaled {
			b.shadowAppend(w, op, root, owner, bin)
		}
	}
	w.tr.stop(root)
	if w.tr != nil && err == nil && !journaled {
		// Not part of the kernel's work: its own operation.
		op := w.nextOp()
		r := w.tr.start("op.append", op, -1)
		b.shadowAppend(w, op, r, owner, bin)
		w.tr.stop(r)
	}
	return err
}

func (b *bench) shadowValidate(w *worker, op int64, parent int, bin []byte) (*pcc.Extension, error) {
	i := w.tr.start("pcc.ValidateCtx", op, parent)
	ext, st, err := pcc.ValidateCtx(b.ctx, bin, pcc.PacketFilterPolicy(), nil)
	w.tr.stop(i)
	if err == nil {
		w.tr.stats = append(w.tr.stats, st)
	}
	return ext, err
}

func (b *bench) shadowCompile(w *worker, op int64, parent int, ext *pcc.Extension) {
	i := w.tr.start("machine.Compile", op, parent)
	_, err := machine.Compile(ext.Prog, &machine.DEC21064)
	w.tr.stop(i)
	if err != nil {
		w.fail(fmt.Errorf("shadow compile: %w", err))
	}
}

// shadowAppend appends to the shadow store and, every
// servedStore.CompactEvery appends, compacts it as the served store
// would inside its append.
func (b *bench) shadowAppend(w *worker, op int64, parent int, owner string, bin []byte) {
	i := w.tr.start("store.Append", op, parent)
	_, err := b.shadow.Append(store.KindInstall, owner, bin)
	w.tr.stop(i)
	if err != nil {
		w.fail(fmt.Errorf("shadow append: %w", err))
		return
	}
	if b.shadowCount.Add(1)%int64(servedStore.CompactEvery) == 0 {
		i := w.tr.start("store.Compact", op, parent)
		err := b.shadow.Compact()
		w.tr.stop(i)
		if err != nil {
			w.fail(fmt.Errorf("shadow compact: %w", err))
		}
	}
}

// deliver sends one batch to k. Traced, it also runs every filter's
// compiled form over the same packets (progs), so the kernel's batch
// overhead is the difference.
func (b *bench) deliver(w *worker, k *kernel.Kernel, served bool, batch [][]byte, progs []*machine.Compiled) ([][]string, error) {
	op := w.nextOp()
	root := w.tr.start("op.deliver", op, -1)
	i := w.tr.start("kernel.DeliverPackets", op, root)
	out, err := k.DeliverPackets(batch)
	w.tr.stop(i)
	if w.tr != nil {
		s := w.tr.at(i)
		s.Tag, s.Pkts = postureTag(served), len(batch)
		if progs != nil {
			shadowRun(w, op, root, batch, progs, postureTag(served))
		}
	}
	w.tr.stop(root)
	return out, err
}

// shadowRun runs each compiled filter over the packets of one batch on
// fresh states built outside the timed span.
func shadowRun(w *worker, op int64, parent int, batch [][]byte, progs []*machine.Compiled, tag string) {
	env := filters.Env{}
	states := make([]*machine.State, len(batch))
	for j, p := range batch {
		states[j] = env.NewState(p)
	}
	regs := make([][len(machine.State{}.R)]uint64, len(batch))
	for j, s := range states {
		regs[j] = s.R
	}
	var cycles int64
	i := w.tr.start("machine.Run", op, parent)
	for _, c := range progs {
		for j, s := range states {
			s.R, s.PC = regs[j], 0
			res, err := c.Run(s, machine.Unchecked, 1<<20)
			if err != nil {
				w.fail(fmt.Errorf("shadow run: %w", err))
			}
			cycles += res.Cycles
		}
	}
	w.tr.stop(i)
	s := w.tr.at(i)
	s.Tag, s.Pkts, s.Cycles = tag, len(batch), cycles
}

// compileAll validates and compiles binaries for shadow runs; untimed.
func compileAll(bins [][]byte) ([]*machine.Compiled, error) {
	var out []*machine.Compiled
	for _, bin := range bins {
		ext, _, err := pcc.Validate(bin, pcc.PacketFilterPolicy())
		if err != nil {
			return nil, err
		}
		c, err := machine.Compile(ext.Prog, &machine.DEC21064)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// epilogueRecoveries is how many times the epilogue recovers the
// shadow store; kernel.recover_self_us is a median over them on
// workloads that do not reboot.
const epilogueRecoveries = 5

// epilogue closes a traced run on the shadow store, so every workload
// reports compaction, replay, and recovery of the records it wrote: one
// compaction, then recoveries into fresh kernels of the workload's
// posture, traced like a reboot.
func (b *bench) epilogue() error {
	w := b.setupW
	op := w.nextOp()
	root := w.tr.start("op.compact", op, -1)
	i := w.tr.start("store.Compact", op, root)
	err := b.shadow.Compact()
	w.tr.stop(i)
	w.tr.stop(root)
	if err != nil {
		return err
	}
	if err := b.shadow.Close(); err != nil {
		return err
	}
	var k *kernel.Kernel
	for r := 0; r < epilogueRecoveries; r++ {
		if k, err = b.recoverShadow(w); err != nil {
			return err
		}
	}
	// Heap bytes one batch allocates, measured with nothing else running.
	pkts := trace(b.o.seed, 64*batchSize)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for j := 0; j < len(pkts); j += batchSize {
		if _, err := k.DeliverPackets(pkts[j : j+batchSize]); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	b.batchAlloc = float64(m1.TotalAlloc-m0.TotalAlloc) / 64
	return nil
}

// recoverShadow recovers the shadow store into a fresh kernel of the
// workload's posture.
func (b *bench) recoverShadow(w *worker) (*kernel.Kernel, error) {
	k, err := postureKernel(b.wl)
	if err != nil {
		return nil, err
	}
	s, err := store.Open(b.shadowDir, store.Options{})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	_, err = b.recover(w, "kernel.Recover", func() (*kernel.RecoveryReport, error) { return k.Recover(b.ctx, s) }, b.shadowDir)
	return k, err
}

// recover runs one recovery through call and, traced, repeats the
// replay and each live binary's validation and compilation as siblings,
// so the kernel's own recovery time is the difference.
func (b *bench) recover(w *worker, name string, call func() (*kernel.RecoveryReport, error), dir string) (*kernel.RecoveryReport, error) {
	op := w.nextOp()
	root := w.tr.start("op.recover", op, -1)
	i := w.tr.start(name, op, root)
	rep, err := call()
	w.tr.stop(i)
	if w.tr != nil && err == nil {
		j := w.tr.start("store.ReplayDir", op, root)
		recs, _ := store.ReplayDir(dir)
		w.tr.stop(j)
		live := map[string][]byte{}
		for _, r := range recs {
			if r.Kind == store.KindInstall {
				live[r.Owner] = r.Binary
			}
		}
		// The kernel validates each distinct binary once: repeats hit
		// its proof cache.
		distinct := map[string]bool{}
		for _, bin := range live {
			if distinct[string(bin)] {
				continue
			}
			distinct[string(bin)] = true
			ext, verr := b.shadowValidate(w, op, root, bin)
			if verr != nil {
				err = verr
				break
			}
			b.shadowCompile(w, op, root, ext)
		}
	}
	w.tr.stop(root)
	return rep, err
}
