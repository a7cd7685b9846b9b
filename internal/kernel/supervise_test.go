package kernel

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fakeClock is a supervision clock that moves only when a test
// advances it.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

// useFakeClock makes k's supervision decisions read a fake clock.
// Call it before k is shared with other goroutines.
func useFakeClock(k *Kernel) *fakeClock {
	c := &fakeClock{t: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)}
	k.now = c.now
	return c
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

var garbageBinary = []byte("PCC1 this is not a binary")

// raceStart runs a and b on two goroutines that spin until both are
// ready; b then burns skew iterations before starting, so a sweep of
// skews walks b across every point of a's critical path.
func raceStart(skew int, a, b func()) {
	var ready atomic.Int32
	var done sync.WaitGroup
	done.Add(2)
	run := func(skew int, f func()) {
		defer done.Done()
		for ready.Add(1); ready.Load() < 2; {
			runtime.Gosched()
		}
		for i := 0; i < skew; i++ {
			spinSink.Add(1)
		}
		f()
	}
	go run(0, a)
	go run(skew, b)
	done.Wait()
}

var spinSink atomic.Int64

// TestSupervisionDisableRace: a transition racing a disable must not
// re-create the state the disable cleared. A fault racing
// SetBreaker(BreakerConfig{}) leaves the filter compiled and no
// breaker armed (otherwise the filter would run interpreted for good);
// a strike racing SetQuarantine(QuarantineConfig{}) leaves nobody
// embargoed.
//
// The windows are a few instructions wide: when each supervisor read
// its config outside its mutex, about 2 in 1,000 trials of each kind
// failed without the race detector.
func TestSupervisionDisableRace(t *testing.T) {
	trials := 20000
	if raceEnabled {
		trials = 1000
	}
	t.Run("breaker", func(t *testing.T) {
		k := New()
		injectFaultyCompiled(t, k, "flaky", condFaultSrc)
		for i := 0; i < trials; i++ {
			k.SetBreaker(BreakerConfig{Threshold: 1, Base: time.Minute})
			raceStart(i%40*5, func() { k.DeliverPacket(faultPkt) }, func() { k.SetBreaker(BreakerConfig{}) })
			if !compiledForm(k, "flaky") || k.brkArmed.Load() != 0 {
				t.Fatalf("trial %d: breaker disabled but compiled=%v brkArmed=%d",
					i, compiledForm(k, "flaky"), k.brkArmed.Load())
			}
		}
	})
	t.Run("quarantine", func(t *testing.T) {
		k := New()
		for i := 0; i < trials; i++ {
			k.SetQuarantine(QuarantineConfig{Threshold: 1, Base: time.Minute})
			raceStart(i%40*5, func() { k.InstallFilter("mal", garbageBinary) }, func() { k.SetQuarantine(QuarantineConfig{}) })
			if q := k.Quarantined(); len(q) != 0 {
				t.Fatalf("trial %d: quarantine disabled but embargoed %v", i, q)
			}
		}
	})
}

// TestQuarantineGaugeTracksLapse: an embargo lapses without any event,
// and Quarantined publishes the count it computes, so the
// pcc_quarantined_owners gauge reads 0 once the embargo is over.
func TestQuarantineGaugeTracksLapse(t *testing.T) {
	k := New()
	clk := useFakeClock(k)
	k.SetRecorder(telemetry.New())
	k.SetQuarantine(QuarantineConfig{Threshold: 1, Base: 10 * time.Millisecond})
	if err := k.InstallFilter("mal", garbageBinary); err == nil {
		t.Fatal("garbage installed")
	}
	gauge := k.Recorder().Gauge(MetricQuarantineGauge)
	if _, ok := k.Quarantined()["mal"]; !ok || gauge.Value() != 1 {
		t.Fatalf("after one strike: quarantined %v, gauge %d; want mal embargoed, gauge 1",
			k.Quarantined(), gauge.Value())
	}
	clk.advance(30 * time.Millisecond)
	if q := k.Quarantined(); len(q) != 0 {
		t.Fatalf("embargo outlived its backoff: %v", q)
	}
	if got := gauge.Value(); got != 0 {
		t.Fatalf("pcc_quarantined_owners = %d after the embargo lapsed, want 0", got)
	}
}

// TestSupervisionUninstallKeepsStrikes: an uninstall forgets the
// filter's breaker state but not its producer's strikes; only a
// successful install clears those.
func TestSupervisionUninstallKeepsStrikes(t *testing.T) {
	bin := goodBinary(t)
	k := New()
	k.SetQuarantine(QuarantineConfig{Threshold: 2, Base: time.Minute})
	if err := k.InstallFilter("p", bin); err != nil {
		t.Fatal(err)
	}
	if err := k.InstallFilter("p", garbageBinary); err == nil {
		t.Fatal("garbage installed")
	}
	if err := k.UninstallFilter("p"); err != nil {
		t.Fatal(err)
	}
	if err := k.InstallFilter("p", garbageBinary); err == nil {
		t.Fatal("garbage installed")
	}
	var qe *QuarantineError
	if err := k.InstallFilter("p", bin); !errors.As(err, &qe) || qe.Strikes != 2 {
		t.Fatalf("strike across the uninstall lost: %v", err)
	}
}
