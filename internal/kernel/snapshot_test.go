// Tests for the lock-free dispatch path: snapshot atomicity under
// install/uninstall/retrofit churn, epoch grace-period reclamation
// (including the poison-on-free tripwire), the zero-locks-on-dispatch
// guarantee via the runtime mutex profiler, and the aggregated-on-
// scrape Stats contract. The churn tests are meaningful mainly under
// -race: retired snapshots and filters are poisoned with plain writes
// after their grace period, so a reclamation bug shows up as a race
// report, not a flaky verdict.
package kernel

import (
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/filters"
	"repro/internal/pktgen"
)

// allIPPackets generates a trace Filter 1 accepts in full (every frame
// IPv4), so a filter installed from it is an accept-all oracle: a
// batch that consulted it shows it on every row or on none.
func allIPPackets(n int, seed uint64) [][]byte {
	pkts := pktgen.Generate(n, pktgen.Config{Seed: seed, IPPerMille: 1000})
	raw := make([][]byte, len(pkts))
	for i, p := range pkts {
		raw[i] = p.Data
	}
	return raw
}

func retiredLen(k *Kernel) int {
	k.epochs.mu.Lock()
	defer k.epochs.mu.Unlock()
	return len(k.epochs.retired)
}

// TestTornSnapshotUnderChurn hammers compiled-backend batch dispatch
// against concurrent install/uninstall of an accept-all filter plus
// backend and profiling retrofits. Every batch must observe exactly
// one snapshot: the churned owner appears on every row of a batch or
// on none — a mixed batch means dispatch saw a half-committed table.
func TestTornSnapshotUnderChurn(t *testing.T) {
	bins := certAll(t)
	k := New()
	if err := k.InstallFilter("stable-2", bins[filters.Filter2]); err != nil {
		t.Fatal(err)
	}
	if err := k.InstallFilter("stable-4", bins[filters.Filter4]); err != nil {
		t.Fatal(err)
	}
	if err := k.SetBackend(BackendCompiled); err != nil {
		t.Fatal(err)
	}
	raw := allIPPackets(48, 11)

	stop := make(chan struct{})
	var churns atomic.Int64
	var churner sync.WaitGroup
	churner.Add(1)
	go func() {
		defer churner.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := k.InstallFilter("churn", bins[filters.Filter1]); err != nil {
				t.Error(err)
				return
			}
			if i%7 == 0 {
				// Retrofits replace every installed filter copy-on-write:
				// more snapshots published, more objects retired.
				if err := k.SetBackend(BackendInterp); err != nil {
					t.Error(err)
					return
				}
				if err := k.SetBackend(BackendCompiled); err != nil {
					t.Error(err)
					return
				}
			}
			if i%11 == 0 {
				k.SetProfiling(true)
				k.SetProfiling(false)
			}
			k.UninstallFilter("churn")
			churns.Add(1)
		}
	}()

	const workers, rounds = 4, 250
	var torn atomic.Int64
	var disp sync.WaitGroup
	for w := 0; w < workers; w++ {
		disp.Add(1)
		go func() {
			defer disp.Done()
			for r := 0; r < rounds; r++ {
				rows, err := k.DeliverPackets(raw)
				if err != nil {
					t.Error(err)
					return
				}
				saw := 0
				for _, row := range rows {
					for _, o := range row {
						if o == "churn" {
							saw++
							break
						}
					}
				}
				if saw != 0 && saw != len(rows) {
					torn.Add(1)
					t.Errorf("torn snapshot: churned owner on %d of %d rows of one batch", saw, len(rows))
					return
				}
				// Single-packet dispatch rides the same snapshot path.
				if _, err := k.DeliverPacket(pktgen.Packet{Data: raw[r%len(raw)]}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	disp.Wait()
	close(stop)
	churner.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if churns.Load() == 0 {
		t.Fatal("churner never completed an install/uninstall cycle")
	}

	// Quiesced, every retired snapshot must have been reclaimed.
	k.Quiesce()
	if n := retiredLen(k); n != 0 {
		t.Fatalf("%d retired objects left after Quiesce", n)
	}
	// And the surviving table must still produce reference verdicts.
	rows, err := k.DeliverPackets(raw)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string]filters.Filter{
		"stable-2": filters.Filter2,
		"stable-4": filters.Filter4,
		"churn":    filters.Filter1,
	}
	tb := k.table.Load()
	for pi, row := range rows {
		got := map[string]bool{}
		for _, o := range row {
			got[o] = true
		}
		for i := range tb.slots {
			o := tb.slots[i].owner
			if want := filters.Reference(ref[o], raw[pi]); got[o] != want {
				t.Fatalf("packet %d owner %s: accept=%v, reference %v", pi, o, got[o], want)
			}
		}
	}
}

// TestEpochGraceDefersPoison pins a reader epoch by hand and checks
// the reclamation contract directly: a retired snapshot stays intact
// (unpoisoned) while an older-epoch reader is pinned, and is poisoned
// promptly once the reader unpins.
func TestEpochGraceDefersPoison(t *testing.T) {
	bins := certAll(t)
	k := New()
	if err := k.InstallFilter("a", bins[filters.Filter1]); err != nil {
		t.Fatal(err)
	}
	old := k.table.Load()
	removed := old.slots[old.index["a"]].f

	rec := k.epochs.pin(0) // a dispatch that loaded `old` and is still running
	k.UninstallFilter("a")
	if n := retiredLen(k); n == 0 {
		t.Fatal("uninstall retired nothing while a reader was pinned")
	}
	k.epochs.reclaim()
	if old.index == nil || old.slots[0].f == nil {
		t.Fatal("retired snapshot poisoned while a reader could still hold it")
	}
	if removed.ext == nil {
		t.Fatal("retired filter poisoned while a reader could still hold it")
	}

	rec.unpin()
	k.Quiesce()
	if n := retiredLen(k); n != 0 {
		t.Fatalf("%d retired objects left after the reader unpinned", n)
	}
	if old.index != nil || old.accepts != nil || old.slots[0].f != nil {
		t.Fatal("reclaimed snapshot not poisoned")
	}
	if removed.ext != nil || removed.compiled != nil {
		t.Fatal("reclaimed filter not poisoned")
	}
	// With no readers pinned, retirement reclaims inline.
	if err := k.InstallFilter("b", bins[filters.Filter2]); err != nil {
		t.Fatal(err)
	}
	if n := retiredLen(k); n != 0 {
		t.Fatalf("quiescent install left %d retired objects", n)
	}
}

// TestDispatchAcquiresNoLocks is the zero-locks gate: with the runtime
// mutex profiler at full rate and installs churning the control plane,
// the dispatch path must contribute no contention samples — there is
// no mutex on it to contend. A deliberately contended control mutex
// proves the profiler is recording.
//
// The mutex profile is cumulative over the process, so the gate reads
// only the samples added during its own window: earlier tests and
// earlier -count runs cannot leak in. A garbage collection and one
// warm-up dispatch come first, outside the window, so the window does
// not open on a GC's sync.Pool cleanup, whose re-registration on the
// next pool use takes the runtime's pool-list mutex under dispatch
// frames.
func TestDispatchAcquiresNoLocks(t *testing.T) {
	oldRate := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(oldRate)

	bins := certAll(t)
	k := New()
	for _, f := range filters.All {
		if err := k.InstallFilter(fmt.Sprintf("proc-%d", f), bins[f]); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.SetBackend(BackendCompiled); err != nil {
		t.Fatal(err)
	}
	raw := allIPPackets(32, 7)

	runtime.GC()
	if _, err := k.DeliverPackets(raw); err != nil {
		t.Fatal(err)
	}
	if _, err := k.DeliverPacket(pktgen.Packet{Data: raw[0]}); err != nil {
		t.Fatal(err)
	}
	before := mutexProfile()

	// Positive control: one guaranteed contended unlock in this frame,
	// so an empty window can't pass the gate vacuously.
	var m sync.Mutex
	m.Lock()
	released := make(chan struct{})
	go func() {
		m.Lock()
		m.Unlock()
		close(released)
	}()
	time.Sleep(5 * time.Millisecond)
	m.Unlock()
	<-released

	stop := make(chan struct{})
	var churner sync.WaitGroup
	for c := 0; c < 2; c++ {
		churner.Add(1)
		go func(c int) {
			defer churner.Done()
			owner := fmt.Sprintf("churn-%d", c)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := k.InstallFilter(owner, bins[filters.Filter1]); err != nil {
					t.Error(err)
					return
				}
				k.UninstallFilter(owner)
			}
		}(c)
	}
	var disp sync.WaitGroup
	for w := 0; w < 8; w++ {
		disp.Add(1)
		go func() {
			defer disp.Done()
			for r := 0; r < 150; r++ {
				if _, err := k.DeliverPackets(raw); err != nil {
					t.Error(err)
					return
				}
				if _, err := k.DeliverPacket(pktgen.Packet{Data: raw[0]}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	disp.Wait()
	close(stop)
	churner.Wait()
	if t.Failed() {
		t.FailNow()
	}

	window := newMutexSamples(before, mutexProfile())
	if !strings.Contains(window, "kernel.TestDispatchAcquiresNoLocks\n") {
		t.Fatal("mutex profiler recorded nothing — the positive control is missing, gate is vacuous")
	}
	for _, frame := range []string{"DeliverPacket", "DeliverPackets"} {
		if strings.Contains(window, frame) {
			t.Errorf("mutex contention sample inside %s — dispatch path acquired a lock:\n%s", frame, window)
		}
	}
}

// mutexProfile returns the process's cumulative mutex profile as
// contention events per stack.
func mutexProfile() map[[32]uintptr]int64 {
	n, _ := runtime.MutexProfile(nil)
	for {
		recs := make([]runtime.BlockProfileRecord, n+16)
		got, ok := runtime.MutexProfile(recs)
		if !ok {
			n = got
			continue
		}
		prof := make(map[[32]uintptr]int64, got)
		for _, r := range recs[:got] {
			prof[r.Stack0] += r.Count
		}
		return prof
	}
}

// newMutexSamples renders, one function per line, the stacks whose
// contention count grew from before to after.
func newMutexSamples(before, after map[[32]uintptr]int64) string {
	var b strings.Builder
	for stk, n := range after {
		if n <= before[stk] {
			continue
		}
		fmt.Fprintf(&b, "%d events:\n", n-before[stk])
		pcs := stk[:]
		for i, pc := range pcs {
			if pc == 0 {
				pcs = pcs[:i]
				break
			}
		}
		frames := runtime.CallersFrames(pcs)
		for {
			f, more := frames.Next()
			if f.Function != "" {
				fmt.Fprintf(&b, "  %s\n", f.Function)
			}
			if !more {
				break
			}
		}
	}
	return b.String()
}

// TestStatsAggregatedOnScrape pins the documented Stats/Accepts
// contract under table churn: concurrent scrapes observe monotonically
// non-decreasing counters while snapshots swap underneath, and once
// quiesced the totals reconcile exactly — no increment lost across any
// swap.
func TestStatsAggregatedOnScrape(t *testing.T) {
	bins := certAll(t)
	k := New()
	if err := k.InstallFilter("stable-1", bins[filters.Filter1]); err != nil {
		t.Fatal(err)
	}
	if err := k.InstallFilter("stable-4", bins[filters.Filter4]); err != nil {
		t.Fatal(err)
	}
	if err := k.SetBackend(BackendCompiled); err != nil {
		t.Fatal(err)
	}
	raw := allIPPackets(32, 5)

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() { // table-swap pressure
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := k.InstallFilter("churn", bins[filters.Filter2]); err != nil {
				t.Error(err)
				return
			}
			k.UninstallFilter("churn")
		}
	}()
	bg.Add(1)
	go func() { // monotonicity scraper
		defer bg.Done()
		var lastPkts, lastAcc int
		var lastCyc int64
		for {
			st := k.Stats()
			if st.Packets < lastPkts {
				t.Errorf("Stats().Packets regressed: %d -> %d", lastPkts, st.Packets)
				return
			}
			if st.ExtensionCycles < lastCyc {
				t.Errorf("Stats().ExtensionCycles regressed: %d -> %d", lastCyc, st.ExtensionCycles)
				return
			}
			acc := k.Accepts()["stable-1"]
			if acc < lastAcc {
				t.Errorf("Accepts regressed: %d -> %d", lastAcc, acc)
				return
			}
			lastPkts, lastCyc, lastAcc = st.Packets, st.ExtensionCycles, acc
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	const workers, rounds = 4, 200
	var stable1 atomic.Int64 // accepts the dispatchers were told about
	var disp sync.WaitGroup
	for w := 0; w < workers; w++ {
		disp.Add(1)
		go func() {
			defer disp.Done()
			for r := 0; r < rounds; r++ {
				rows, err := k.DeliverPackets(raw)
				if err != nil {
					t.Error(err)
					return
				}
				var n int64
				for _, row := range rows {
					for _, o := range row {
						if o == "stable-1" {
							n++
						}
					}
				}
				stable1.Add(n)
			}
		}()
	}
	disp.Wait()
	close(stop)
	bg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	k.Quiesce()
	st := k.Stats()
	wantPkts := workers * rounds * len(raw)
	if st.Packets != wantPkts {
		t.Fatalf("Stats().Packets = %d, want %d (increments lost across table swaps)", st.Packets, wantPkts)
	}
	if got := k.Accepts()["stable-1"]; int64(got) != stable1.Load() {
		t.Fatalf("Accepts[stable-1] = %d, verdicts delivered %d", got, stable1.Load())
	}
	// The accept-all filter accepted every packet of every batch.
	if stable1.Load() != int64(wantPkts) {
		t.Fatalf("accept-all filter accepted %d of %d packets", stable1.Load(), wantPkts)
	}
}

// BenchmarkDeliverPacketsParallel measures batch-dispatch throughput
// at 1/2/4/8 goroutines over one shared kernel — the microbenchmark
// behind the dispatch_scaling section of paperbench (internal/bench).
// On a multi-core host the lock-free snapshot path scales with
// goroutines; on a single-core host the figure of merit is that added
// goroutines cost nothing (no lock convoy to collapse into).
func BenchmarkDeliverPacketsParallel(b *testing.B) {
	bins := certAll(b)
	raw := allIPPackets(256, 3)
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			k := New()
			for _, f := range filters.All {
				if err := k.InstallFilter(fmt.Sprintf("proc-%d", f), bins[f]); err != nil {
					b.Fatal(err)
				}
			}
			if err := k.SetBackend(BackendCompiled); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := k.DeliverPackets(raw); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)*float64(len(raw))/secs, "pkts/s")
			}
		})
	}
}

// BenchmarkDeliverPacketsObserved measures batch dispatch per packet in
// three postures at 1 and 2 goroutines over one shared kernel: bare
// (compiled backend, no observers), compiled+prof (cycle profiling on),
// and served (the posture a registry tenant serves in: windowed
// recorder, flight recorder, audit log, compiled backend, profiling).
// The served/compiled+prof gap is the cost of always-on telemetry.
func BenchmarkDeliverPacketsObserved(b *testing.B) {
	bins := certAll(b)
	pkts := pktgen.Generate(256, pktgen.Config{Seed: 3})
	raw := make([][]byte, len(pkts))
	for i, p := range pkts {
		raw[i] = p.Data
	}
	postures := []struct {
		name string
		boot func() (*Kernel, error)
	}{
		{"bare", func() (*Kernel, error) { return New(), nil }},
		{"compiled+prof", func() (*Kernel, error) {
			k := New()
			k.SetProfiling(true)
			return k, nil
		}},
		{"served", func() (*Kernel, error) {
			tn, err := NewRegistry().Create("bench")
			if err != nil {
				return nil, err
			}
			tn.Kernel.SetAuditLog(slog.New(tn.Audit.Handler(slog.NewJSONHandler(io.Discard, nil))))
			tn.Kernel.SetProfiling(true)
			return tn.Kernel, nil
		}},
	}
	for _, ps := range postures {
		for _, g := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", ps.name, g), func(b *testing.B) {
				k, err := ps.boot()
				if err != nil {
					b.Fatal(err)
				}
				for _, f := range filters.All {
					if err := k.InstallFilter(fmt.Sprintf("proc-%d", f), bins[f]); err != nil {
						b.Fatal(err)
					}
				}
				if err := k.SetBackend(BackendCompiled); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var next atomic.Int64
				var wg sync.WaitGroup
				for w := 0; w < g; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for next.Add(1) <= int64(b.N) {
							if _, err := k.DeliverPackets(raw); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(raw)), "ns/pkt")
			})
		}
	}
}
