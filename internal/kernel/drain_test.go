package kernel_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	pcc "repro"
	"repro/internal/chaos"
	"repro/internal/filters"
	"repro/internal/kernel"
	"repro/internal/pktgen"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// TestBatchCtxMidFlightCancelDrains cancels a batch while validations
// are actually running (not before they start): the worker pool must
// drain cleanly — in-flight proof checks are interrupted within a
// bounded number of checker steps, queued requests short-circuit,
// every request gets a verdict, nothing is installed, no goroutines
// leak, and the books reconcile. The workload is a set of distinct
// ctxbomb blobs, DAG bombs whose sharing the checker's memo cannot
// use, each of which burns the whole step budget if left alone, so the
// cancellation provably lands mid-check.
func TestBatchCtxMidFlightCancelDrains(t *testing.T) {
	cert, err := pcc.Certify(filters.SrcFilter1, policy.PacketFilter(), nil)
	if err != nil {
		t.Fatal(err)
	}
	base := chaos.Base{Name: "f1", Binary: cert.Binary, Policy: policy.PacketFilter()}
	var bomb func(*rand.Rand, chaos.Base) []byte
	for _, m := range chaos.Mutators() {
		if m.Name == "ctxbomb" {
			bomb = m.Fn
		}
	}
	if bomb == nil {
		t.Fatal("ctxbomb mutator missing")
	}
	rng := rand.New(rand.NewSource(99))
	reqs := make([]kernel.InstallRequest, 16)
	for i := range reqs {
		// Distinct owners and distinct blobs: no later-wins collapsing,
		// no proof-cache hits.
		reqs[i] = kernel.InstallRequest{Owner: fmt.Sprintf("bomber-%d", i), Binary: bomb(rng, base)}
	}

	k := kernel.New()
	k.SetRecorder(telemetry.New())
	lim := pcc.DefaultLimits()
	lim.MaxCheckSteps = 1 << 24 // ~minutes of checking if never interrupted
	k.SetLimits(lim)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		// Cancel once at least one worker has picked up a validation.
		for k.Stats().Validations == 0 {
			time.Sleep(200 * time.Microsecond)
		}
		time.Sleep(2 * time.Millisecond) // let a check get properly underway
		cancel()
	}()

	start := time.Now()
	errs := k.InstallFilterBatchCtx(ctx, reqs)
	elapsed := time.Since(start)
	// Interruption must be prompt: orders of magnitude under the
	// uninterrupted checking time (a single bomb alone would run ~2s).
	if elapsed > 3*time.Second {
		t.Fatalf("drain took %v — checker interrupt not honored", elapsed)
	}

	deadlines := 0
	for i, err := range errs {
		if err == nil {
			t.Fatalf("errs[%d]: a dag bomb installed", i)
		}
		if errors.Is(err, context.Canceled) {
			deadlines++
		} else if !errors.Is(err, pcc.ErrResourceLimit) {
			t.Fatalf("errs[%d]: unexpected class: %v", i, err)
		}
	}
	if deadlines == 0 {
		t.Fatal("no request observed the cancellation")
	}
	if n := len(k.Owners()); n != 0 {
		t.Fatalf("%d phantom installs after canceled batch", n)
	}
	st := k.Stats()
	if st.Validations != len(reqs) || st.Rejections != len(reqs) {
		t.Fatalf("books off: validations=%d rejections=%d want %d each", st.Validations, st.Rejections, len(reqs))
	}
	if got := k.Recorder().LabeledCounter(kernel.MetricRejects, "reason", "deadline").Value(); got != int64(deadlines) {
		t.Fatalf("pcc_rejects_total{reason=deadline} = %d, want %d", got, deadlines)
	}
	// The pool must be gone: no lingering validation goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before batch, %d after drain", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHostileOwnerLabelEscaping: owner names flow into Prometheus
// label values (per-filter accept/cycle counters); a hostile owner
// containing quotes, backslashes, and newlines must not be able to
// break out of the label position or forge exposition lines.
func TestHostileOwnerLabelEscaping(t *testing.T) {
	cert, err := pcc.Certify(filters.SrcFilter1, policy.PacketFilter(), nil)
	if err != nil {
		t.Fatal(err)
	}
	hostile := "evil\"} 1\ninjected_metric{x=\"\\"
	k := kernel.New()
	rec := telemetry.New()
	k.SetRecorder(rec)
	if err := k.InstallFilter(hostile, cert.Binary); err != nil {
		t.Fatal(err)
	}
	if _, err := k.DeliverPacket(pktgen.Generate(1, pktgen.Config{Seed: 7})[0]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "injected_metric") && strings.Contains(out, "\ninjected_metric{") {
		t.Fatalf("owner forged an exposition line:\n%s", out)
	}
	want := `filter="` + telemetry.EscapeLabelValue(hostile) + `"`
	if !strings.Contains(out, want) {
		t.Fatalf("escaped label %q not in exposition:\n%s", want, out)
	}
	// No exposition line may contain an unescaped embedded newline: the
	// raw hostile string must appear nowhere.
	if strings.Contains(out, hostile) {
		t.Fatalf("raw hostile owner leaked into exposition:\n%s", out)
	}
}
