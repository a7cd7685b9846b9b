package kernel

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/filters"
	"repro/internal/machine"
	"repro/internal/pktgen"
	"repro/internal/telemetry"
)

func installPaperFilters(t *testing.T, k *Kernel) []string {
	t.Helper()
	owners := make([]string, 0, len(filters.All))
	for _, f := range filters.All {
		owner := fmt.Sprintf("proc-%d", f)
		if err := k.InstallFilter(owner, certFilter(t, k, f)); err != nil {
			t.Fatal(err)
		}
		owners = append(owners, owner)
	}
	return owners
}

// TestBackendDifferentialDispatch is the kernel half of the
// backend-differential suite: two kernels with the same filters, one
// interpreted and one compiled, must emit identical verdicts, accept
// counters, extension-cycle totals, and per-filter telemetry over a
// generated trace — through single-packet and vectorized dispatch.
func TestBackendDifferentialDispatch(t *testing.T) {
	ki, kc := New(), New()
	if err := kc.SetBackend(BackendCompiled); err != nil {
		t.Fatal(err)
	}
	ri, rc := telemetry.New(), telemetry.New()
	ki.SetRecorder(ri)
	kc.SetRecorder(rc)
	installPaperFilters(t, ki)
	installPaperFilters(t, kc)

	pkts := pktgen.Generate(3000, pktgen.Config{Seed: 1996})
	for i, p := range pkts {
		ai, err := ki.DeliverPacket(p)
		if err != nil {
			t.Fatal(err)
		}
		ac, err := kc.DeliverPacket(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ai, ac) {
			t.Fatalf("packet %d: verdicts diverge: interp=%v compiled=%v", i, ai, ac)
		}
	}
	si, sc := ki.Stats(), kc.Stats()
	if si.Packets != sc.Packets || si.ExtensionCycles != sc.ExtensionCycles {
		t.Fatalf("stats diverge: interp=%+v compiled=%+v", si, sc)
	}
	if !reflect.DeepEqual(ki.Accepts(), kc.Accepts()) {
		t.Fatalf("accept counters diverge: %v vs %v", ki.Accepts(), kc.Accepts())
	}
}

// TestDeliverPacketsMatchesSingleDispatch pins vectorized dispatch to
// an oracle independent of the kernel's dispatch loop, on both
// backends: verdicts from filters.Reference, and cycles and accept
// counts from running each installed filter on a freshly allocated
// state (dispatchOracle).
func TestDeliverPacketsMatchesSingleDispatch(t *testing.T) {
	for _, be := range []Backend{BackendInterp, BackendCompiled} {
		t.Run(be.String(), func(t *testing.T) {
			kb := New()
			if err := kb.SetBackend(be); err != nil {
				t.Fatal(err)
			}
			rec := telemetry.New()
			kb.SetRecorder(rec)
			installPaperFilters(t, kb)

			pkts := pktgen.Generate(2000, pktgen.Config{Seed: 7})
			raw := make([][]byte, len(pkts))
			for i, p := range pkts {
				raw[i] = p.Data
			}
			want, wantCycles, wantAccepts := dispatchOracle(t, kb, raw)
			batch, err := kb.DeliverPackets(raw)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) != len(raw) {
				t.Fatalf("batch returned %d verdicts for %d packets", len(batch), len(raw))
			}
			for i := range raw {
				if !reflect.DeepEqual(want[i], batch[i]) {
					t.Fatalf("packet %d: reference=%v batch=%v", i, want[i], batch[i])
				}
			}
			sb := kb.Stats()
			if sb.Packets != len(raw) || sb.ExtensionCycles != wantCycles {
				t.Fatalf("stats %+v, want %d packets and %d cycles", sb, len(raw), wantCycles)
			}
			if !reflect.DeepEqual(kb.Accepts(), wantAccepts) {
				t.Fatalf("accepts %v, reference %v", kb.Accepts(), wantAccepts)
			}
			// The batch path must feed the same telemetry families.
			var buf bytes.Buffer
			if err := rec.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			page := buf.String()
			for _, want := range []string{MetricPackets, MetricFilterCycles, MetricFilterAccepts} {
				if !strings.Contains(page, want) {
					t.Fatalf("exposition missing %s after batch dispatch", want)
				}
			}
			if !strings.Contains(page, telemetry.StageDispatchBatch) {
				t.Fatal("exposition missing the dispatch_batch stage histogram")
			}
		})
	}
}

// TestSetBackendRetrofit flips the backend with filters installed and
// checks each direction takes effect on the live table.
func TestSetBackendRetrofit(t *testing.T) {
	k := New()
	installPaperFilters(t, k)
	compiledCount := func() int {
		n := 0
		tb := k.table.Load()
		for i := range tb.slots {
			if tb.slots[i].c != nil {
				n++
			}
		}
		return n
	}
	if got := compiledCount(); got != 0 {
		t.Fatalf("fresh interp kernel has %d compiled filters", got)
	}
	if err := k.SetBackend(BackendCompiled); err != nil {
		t.Fatal(err)
	}
	if got := compiledCount(); got != len(filters.All) {
		t.Fatalf("after SetBackend(compiled): %d compiled filters, want %d", got, len(filters.All))
	}
	if k.Backend() != BackendCompiled {
		t.Fatalf("Backend() = %v", k.Backend())
	}
	// New installs under the compiled default come up compiled.
	if err := k.InstallFilter("late", certFilter(t, k, filters.Filter1)); err != nil {
		t.Fatal(err)
	}
	if got := compiledCount(); got != len(filters.All)+1 {
		t.Fatalf("late install not compiled: %d", got)
	}
	// Rollback drops every compiled form.
	if err := k.SetBackend(BackendInterp); err != nil {
		t.Fatal(err)
	}
	if got := compiledCount(); got != 0 {
		t.Fatalf("after rollback: %d compiled filters", got)
	}
	if err := k.SetBackend(Backend(99)); err == nil {
		t.Fatal("SetBackend accepted an unknown backend")
	}
}

// TestInstallFilterWithBackend pins the per-install override against
// the kernel default.
func TestInstallFilterWithBackend(t *testing.T) {
	k := New()
	ctx := context.Background()
	if err := k.InstallFilterWithBackend(ctx, "c", certFilter(t, k, filters.Filter1), BackendCompiled); err != nil {
		t.Fatal(err)
	}
	if err := k.InstallFilterWithBackend(ctx, "i", certFilter(t, k, filters.Filter2), BackendInterp); err != nil {
		t.Fatal(err)
	}
	tb := k.table.Load()
	cc, ci := tb.slots[tb.index["c"]].c, tb.slots[tb.index["i"]].c
	if cc == nil {
		t.Fatal("per-install compiled override did not compile")
	}
	if ci != nil {
		t.Fatal("per-install interp override still compiled")
	}
	if err := k.InstallFilterWithBackend(ctx, "x", certFilter(t, k, filters.Filter3), Backend(7)); err == nil {
		t.Fatal("unknown backend accepted")
	}
	// The compiled form is memoized on the proof-cache slot: a second
	// compiled install of the same binary reuses it.
	bin := certFilter(t, k, filters.Filter4)
	if err := k.InstallFilterWithBackend(ctx, "a", bin, BackendCompiled); err != nil {
		t.Fatal(err)
	}
	if err := k.InstallFilterWithBackend(ctx, "b", bin, BackendCompiled); err != nil {
		t.Fatal(err)
	}
	tb = k.table.Load()
	ca, cb := tb.slots[tb.index["a"]].c, tb.slots[tb.index["b"]].c
	if ca == nil || ca != cb {
		t.Fatal("compiled form not shared via the proof-cache slot")
	}
}

// TestConcurrentBackendToggleDispatch hammers install, backend
// toggling, single dispatch, and batch dispatch concurrently; under
// -race this is the suite's linearizability check for the new table
// field. Every verdict must still match the reference oracle.
func TestConcurrentBackendToggleDispatch(t *testing.T) {
	k := New()
	installPaperFilters(t, k)
	bins := make(map[string][]byte)
	for _, f := range filters.All {
		bins[fmt.Sprintf("proc-%d", f)] = certFilter(t, k, f)
	}
	pkts := pktgen.Generate(400, pktgen.Config{Seed: 11})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan error, 16)

	wg.Add(1)
	go func() { // backend toggler
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := k.SetBackend(Backend(i % 2)); err != nil {
				fail <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // re-installer
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f := filters.All[i%len(filters.All)]
			owner := fmt.Sprintf("proc-%d", f)
			if err := k.InstallFilter(owner, bins[owner]); err != nil {
				fail <- err
				return
			}
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) { // single dispatcher
			defer wg.Done()
			for i := 0; i < 300; i++ {
				p := pkts[(int(seed)+i)%len(pkts)]
				acc, err := k.DeliverPacket(p)
				if err != nil {
					fail <- err
					return
				}
				if err := checkVerdicts(p.Data, acc); err != nil {
					fail <- err
					return
				}
			}
		}(int64(g))
	}
	wg.Add(1)
	go func() { // batch dispatcher
		defer wg.Done()
		raw := make([][]byte, len(pkts))
		for i, p := range pkts {
			raw[i] = p.Data
		}
		for i := 0; i < 5; i++ {
			out, err := k.DeliverPackets(raw)
			if err != nil {
				fail <- err
				return
			}
			for j, acc := range out {
				if err := checkVerdicts(raw[j], acc); err != nil {
					fail <- err
					return
				}
			}
		}
		close(stop)
	}()
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
}

// checkVerdicts compares a dispatch verdict set against the pure-Go
// reference semantics of the paper filters.
func checkVerdicts(pkt []byte, accepted []string) error {
	got := map[string]bool{}
	for _, o := range accepted {
		got[o] = true
	}
	for _, f := range filters.All {
		owner := fmt.Sprintf("proc-%d", f)
		if want := filters.Reference(f, pkt); got[owner] != want {
			return fmt.Errorf("owner %s: accept=%v want %v", owner, got[owner], want)
		}
	}
	return nil
}

// dispatchOracle computes what dispatching pkts through k must
// produce, without using the kernel's dispatch loop: per packet, the
// owners whose paper filter accepts it per filters.Reference (in the
// kernel's sorted owner order, nil when none do); the total simulated
// cycles of running every installed filter on a freshly allocated
// state (packetState), as TestPooledStateMatchesFresh does; and the
// per-owner accept counts, including owners that never accept. k must
// hold exactly the filters installPaperFilters installs.
func dispatchOracle(t *testing.T, k *Kernel, pkts [][]byte) ([][]string, int64, map[string]int) {
	t.Helper()
	slots := k.table.Load().slots
	paper := make([]filters.Filter, len(slots))
	accepts := make(map[string]int, len(slots))
	for i, sl := range slots {
		if _, err := fmt.Sscanf(sl.owner, "proc-%d", &paper[i]); err != nil {
			t.Fatalf("owner %q is not a paper filter: %v", sl.owner, err)
		}
		accepts[sl.owner] = 0
	}
	want := make([][]string, len(pkts))
	var cycles int64
	for i, data := range pkts {
		for si, sl := range slots {
			res, err := sl.f.ext.Run(k.packetState(pktgen.Packet{Data: data}), dispatchFuel)
			if err != nil {
				t.Fatal(err)
			}
			cycles += res.Cycles
			if filters.Reference(paper[si], data) {
				want[i] = append(want[i], sl.owner)
				accepts[sl.owner]++
			}
		}
	}
	return want, cycles, accepts
}

// TestCompiledDispatchSkipsScratchWipe is the dirtyScratch contract:
// a store-free compiled filter must not force scratch wipes, and a
// scratch-writing interpreted run must not leak bytes into the next
// filter's view. The leak check runs through public dispatch only.
func TestCompiledDispatchSkipsScratchWipe(t *testing.T) {
	prog := filters.Prog(filters.Filter1)
	c, err := machine.Compile(prog, &machine.DEC21064)
	if err != nil {
		t.Fatal(err)
	}
	if c.WritesMemory() {
		t.Fatal("paper filter 1 unexpectedly stores — dirtyScratch test needs updating")
	}
	env := newPacketEnv()
	env.reset(64)
	if env.dirtyScratch {
		t.Fatal("fresh env starts dirty")
	}
	// Interp path conservatively dirties; compiled store-free path
	// must not.
	f := &installed{ext: nil, accepts: nil, compiled: c}
	if _, wrote, _ := runInstalled(f, &env.state, false); wrote {
		t.Fatal("store-free compiled filter reported a scratch write")
	}
}
