package kernel

import (
	"fmt"
	"io"
	"sync"
	"testing"

	pcc "repro"
	"repro/internal/filters"
	"repro/internal/pktgen"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

const handlerSrc = `
        ADDQ  r0, 8, r1
        LDQ   r0, 8(r0)
        LDQ   r2, -8(r1)
        ADDQ  r0, 1, r0
        BEQ   r2, L1
        STQ   r0, 0(r1)
L1:     RET
`

// TestKernelStressRace hammers one kernel from >= 8 goroutines mixing
// every public entry point — installs (serial, batch, async),
// uninstalls, packet dispatch, handler invocation, and all the
// introspection calls — and must be clean under `go test -race`. It
// is the pipeline's memory-safety gate: the RWMutex split plus atomic
// accounting must never trade linearizability for throughput. The
// whole workload runs with a live telemetry recorder attached (and
// concurrently scraped), so the lock-free span/metric paths are under
// the same gate; after quiescing, the telemetry totals must agree
// exactly with the kernel's own counters — no lost events beyond the
// ring buffer's explicit drop accounting.
func TestKernelStressRace(t *testing.T) {
	bins := certAll(t)
	k := New()
	rec := telemetry.New()
	k.SetRecorder(rec)
	handlerCert, err := pcc.Certify(handlerSrc, k.ResourcePolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pkts := pktgen.Generate(40, pktgen.Config{Seed: 99})
	garbage := []byte("untrusted garbage")

	const iters = 25
	var wg sync.WaitGroup
	errCh := make(chan error, 128)
	fail := func(format string, args ...any) {
		select {
		case errCh <- fmt.Errorf(format, args...):
		default:
		}
	}

	// 2 serial installers: install/uninstall churn on private owners.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			owner := fmt.Sprintf("serial-%d", g)
			f := filters.All[g%len(filters.All)]
			for i := 0; i < iters; i++ {
				if err := k.InstallFilter(owner, bins[f]); err != nil {
					fail("install %s: %v", owner, err)
					return
				}
				if err := k.InstallFilter(owner, garbage); err == nil {
					fail("garbage accepted for %s", owner)
					return
				}
				k.UninstallFilter(owner)
			}
		}(g)
	}
	// 1 batch installer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		reqs := []InstallRequest{
			{"batch-1", bins[filters.Filter1]},
			{"batch-bad", garbage},
			{"batch-3", bins[filters.Filter3]},
		}
		for i := 0; i < iters; i++ {
			errs := k.InstallFilterBatch(reqs)
			if errs[0] != nil || errs[1] == nil || errs[2] != nil {
				fail("batch verdicts: %v", errs)
				return
			}
		}
	}()
	// 1 async installer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := <-k.ValidateAsync("async", bins[filters.Filter2]); err != nil {
				fail("async install: %v", err)
				return
			}
			k.UninstallFilter("async")
		}
	}()
	// 2 packet dispatchers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for _, p := range pkts {
					if _, err := k.DeliverPacket(p); err != nil {
						fail("deliver: %v", err)
						return
					}
				}
			}
		}()
	}
	// 1 resource-handler worker on its own pid space.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			pid := 1000 + i
			k.CreateTable(pid, 1, uint64(i))
			if err := k.InstallHandler(pid, handlerCert.Binary); err != nil {
				fail("handler install: %v", err)
				return
			}
			if err := k.InvokeHandler(pid); err != nil {
				fail("handler invoke: %v", err)
				return
			}
			if _, data, ok := k.Table(pid); !ok || data != uint64(i)+1 {
				fail("table pid %d: data=%d ok=%v", pid, data, ok)
				return
			}
		}
	}()
	// 2 introspection readers, doubling as telemetry scrapers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters*4; i++ {
				k.Owners()
				k.Accepts()
				st := k.Stats()
				if st.Rejections > st.Validations {
					fail("impossible stats: %+v", st)
					return
				}
				if i%8 == 0 {
					if err := rec.WritePrometheus(io.Discard); err != nil {
						fail("scrape: %v", err)
						return
					}
					rec.Log().Timeline(telemetry.Query{})
				}
			}
		}()
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	st := k.Stats()
	// serial pairs + batch trio + async + handler installs
	wantValidations := 2*2*iters + 3*iters + iters + iters
	if st.Validations != wantValidations {
		t.Errorf("validations = %d, want %d", st.Validations, wantValidations)
	}
	if st.Rejections != 2*iters+iters { // garbage per serial iter + per batch
		t.Errorf("rejections = %d, want %d", st.Rejections, 3*iters)
	}
	if st.Packets != 2*iters*len(pkts) {
		t.Errorf("packets = %d, want %d", st.Packets, 2*iters*len(pkts))
	}

	// Telemetry must agree exactly with the kernel accounting once
	// quiesced: every install attempt produced one validate-histogram
	// observation and one outcome count, every delivery one dispatch
	// observation, and every span exactly one span-class append (lost
	// only to explicit ring drops).
	get := func(name string) int64 { return rec.Counter(name).Value() }
	if n := rec.StageHistogram(telemetry.StageValidate).Count(); n != int64(st.Validations) {
		t.Errorf("validate histogram = %d, validations = %d", n, st.Validations)
	}
	if n := rec.StageHistogram(telemetry.StageDispatch).Count(); n != int64(st.Packets) {
		t.Errorf("dispatch histogram = %d, packets = %d", n, st.Packets)
	}
	if got := get(MetricInstalled) + get(MetricRejected); got != int64(st.Validations) {
		t.Errorf("outcome counters = %d, validations = %d", got, st.Validations)
	}
	if got := get(MetricRejected); got != int64(st.Rejections) {
		t.Errorf("rejected counter = %d, rejections = %d", got, st.Rejections)
	}
	if got := get(MetricCacheHits); got != int64(st.CacheHits) {
		t.Errorf("cache-hit counter = %d, stats = %d", got, st.CacheHits)
	}
	if got := get(MetricCacheMisses); got != int64(st.CacheMisses) {
		t.Errorf("cache-miss counter = %d, stats = %d", got, st.CacheMisses)
	}
	if got := get(MetricPackets); got != int64(st.Packets) {
		t.Errorf("packet counter = %d, stats = %d", got, st.Packets)
	}
	var histTotal int64
	for _, stage := range telemetry.Stages {
		histTotal += rec.StageHistogram(stage).Count()
	}
	spans := rec.Log().Snapshot(telemetry.ClassSpan)
	if histTotal != spans.Appended {
		t.Errorf("stage histogram totals = %d, spans appended = %d", histTotal, spans.Appended)
	}
	if int64(len(spans.Events))+spans.Dropped != spans.Appended {
		t.Errorf("ring (%d) + dropped (%d) != appended (%d)",
			len(spans.Events), spans.Dropped, spans.Appended)
	}
}

// BenchmarkDeliverDuringValidate is the regression gate for the lock
// split: dispatch latency while a cold validation is in flight. Before
// the pipeline, DeliverPacket contended on the same mutex as
// validation and each delivery could stall for a full multi-millisecond
// proof check; now it waits at most for the short commit section.
func BenchmarkDeliverDuringValidate(b *testing.B) {
	bins := certAll(b)
	// Cache disabled so the background installer really validates
	// every time, like a stream of never-before-seen binaries.
	k := NewWithCacheSize(0)
	if err := k.InstallFilter("hot", bins[filters.Filter4]); err != nil {
		b.Fatal(err)
	}
	pkt := pktgen.Generate(1, pktgen.Config{Seed: 5})[0]

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := k.InstallFilter("churn", bins[filters.Filter3]); err != nil {
				b.Error(err)
				return
			}
		}
	}()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.DeliverPacket(pkt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkDeliverNoValidate is the baseline for
// BenchmarkDeliverDuringValidate: the same dispatch with no install
// churn. Comparable ns/op between the two is the "no latency spike"
// evidence.
func BenchmarkDeliverNoValidate(b *testing.B) {
	bins := certAll(b)
	k := New()
	if err := k.InstallFilter("hot", bins[filters.Filter4]); err != nil {
		b.Fatal(err)
	}
	pkt := pktgen.Generate(1, pktgen.Config{Seed: 5})[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.DeliverPacket(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstallColdWarm measures the proof cache: ns per install
// with validation memoized versus re-proved every time.
func BenchmarkInstallColdWarm(b *testing.B) {
	pol := policy.PacketFilter()
	cert, err := pcc.Certify(filters.SrcFilter4, pol, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		k := NewWithCacheSize(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := k.InstallFilter("f", cert.Binary); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		k := New()
		if err := k.InstallFilter("f", cert.Binary); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := k.InstallFilter("f", cert.Binary); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkInstallFilterBatch compares serial and worker-pool
// installation of the four paper filters, all-cold (the wall-clock
// speedup tracks GOMAXPROCS; on one core the two are equal up to
// scheduling noise).
func BenchmarkInstallFilterBatch(b *testing.B) {
	bins := certAll(b)
	var reqs []InstallRequest
	for _, f := range filters.All {
		reqs = append(reqs, InstallRequest{f.String(), bins[f]})
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := NewWithCacheSize(0)
			for _, r := range reqs {
				if err := k.InstallFilter(r.Owner, r.Binary); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := NewWithCacheSize(0)
			for _, err := range k.InstallFilterBatch(reqs) {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
