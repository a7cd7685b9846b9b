package kernel

import (
	"context"
	"errors"
	"testing"
	"time"

	pcc "repro"
	"repro/internal/filters"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// goodBinary certifies one valid paper filter.
func goodBinary(t *testing.T) []byte {
	t.Helper()
	cert, err := pcc.Certify(filters.SrcFilter1, policy.PacketFilter(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return cert.Binary
}

// rejectCount reads the pcc_rejects_total sample for one reason.
func rejectCount(k *Kernel, reason string) int64 {
	return k.Recorder().LabeledCounter(MetricRejects, "reason", reason).Value()
}

// TestInstallFilterCtxExpiredContext: an expired context rejects the
// install without proof checking, classifies it as "deadline", and the
// books balance — no phantom install, validations == rejections.
func TestInstallFilterCtxExpiredContext(t *testing.T) {
	bin := goodBinary(t)
	k := New()
	k.SetRecorder(telemetry.New())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := k.InstallFilterCtx(ctx, "late", bin)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in chain, got %v", err)
	}
	if n := len(k.Owners()); n != 0 {
		t.Fatalf("phantom install: %d filters", n)
	}
	st := k.Stats()
	if st.Validations != 1 || st.Rejections != 1 {
		t.Fatalf("books off: validations=%d rejections=%d", st.Validations, st.Rejections)
	}
	if got := rejectCount(k, "deadline"); got != 1 {
		t.Fatalf("pcc_rejects_total{reason=deadline} = %d, want 1", got)
	}
	// A canceled install must not have been served from (or populated)
	// the cache in a way that commits it: retrying with a live context
	// succeeds normally.
	if err := k.InstallFilterCtx(context.Background(), "late", bin); err != nil {
		t.Fatalf("retry after cancel failed: %v", err)
	}
}

// TestAdmissionShedding: with a full admission gate the install sheds
// immediately with a typed retry-after error, classified "queue_full";
// once a slot frees, the same install goes through.
func TestAdmissionShedding(t *testing.T) {
	bin := goodBinary(t)
	k := New()
	k.SetRecorder(telemetry.New())
	k.SetAdmissionLimit(1)
	gate := k.admit.Load()
	if !gate.tryAcquire() { // occupy the only slot
		t.Fatal("fresh gate full")
	}
	err := k.InstallFilterCtx(context.Background(), "burst", bin)
	var qe *QueueFullError
	if !errors.As(err, &qe) {
		t.Fatalf("want QueueFullError, got %v", err)
	}
	if qe.RetryAfter <= 0 || qe.Limit != 1 {
		t.Fatalf("unhelpful shed error: %+v", qe)
	}
	if got := rejectCount(k, "queue_full"); got != 1 {
		t.Fatalf("pcc_rejects_total{reason=queue_full} = %d, want 1", got)
	}
	st := k.Stats()
	if st.Validations != st.Rejections {
		t.Fatalf("shed install not accounted: %+v", st)
	}
	gate.release()
	if err := k.InstallFilterCtx(context.Background(), "burst", bin); err != nil {
		t.Fatalf("install after slot freed: %v", err)
	}
	k.SetAdmissionLimit(0) // unbounded again
	if k.admit.Load() != nil {
		t.Fatal("SetAdmissionLimit(0) left a gate")
	}
}

// TestQuarantineLifecycle: repeated rejections embargo the producer
// with backoff; during the embargo even a valid binary is refused
// without being examined; the embargo lifts on its own and a success
// clears the strike record.
func TestQuarantineLifecycle(t *testing.T) {
	bin := goodBinary(t)
	k := New()
	clk := useFakeClock(k)
	k.SetRecorder(telemetry.New())
	k.SetQuarantine(QuarantineConfig{Threshold: 2, Base: 30 * time.Millisecond, Max: 200 * time.Millisecond})

	garbage := []byte("PCC1 this is not a binary")
	for i := 0; i < 2; i++ {
		if err := k.InstallFilter("mal", garbage); err == nil {
			t.Fatal("garbage installed")
		}
	}
	// Second strike hit the threshold: owner embargoed, gauge up.
	if _, ok := k.Quarantined()["mal"]; !ok {
		t.Fatal("owner not quarantined after threshold strikes")
	}
	if got := k.Recorder().Gauge(MetricQuarantineGauge).Value(); got != 1 {
		t.Fatalf("pcc_quarantined_owners = %d, want 1", got)
	}
	// A valid binary from the embargoed owner is refused up front.
	err := k.InstallFilter("mal", bin)
	var qerr *QuarantineError
	if !errors.As(err, &qerr) {
		t.Fatalf("want QuarantineError, got %v", err)
	}
	if qerr.Owner != "mal" || qerr.Strikes < 2 {
		t.Fatalf("unhelpful embargo error: %+v", qerr)
	}
	if got := rejectCount(k, "quarantine"); got != 1 {
		t.Fatalf("pcc_rejects_total{reason=quarantine} = %d, want 1", got)
	}
	// Another owner is unaffected.
	if err := k.InstallFilter("good", bin); err != nil {
		t.Fatalf("unrelated owner embargoed: %v", err)
	}
	// The embargo lifts on its own; then a success clears the record.
	deadline := clk.now().Add(5 * time.Second)
	for {
		if err = k.InstallFilter("mal", bin); err == nil {
			break
		}
		if clk.now().After(deadline) {
			t.Fatalf("embargo never lifted: %v", err)
		}
		clk.advance(5 * time.Millisecond)
	}
	if q := k.Quarantined(); len(q) != 0 {
		t.Fatalf("successful install left quarantine records: %v", q)
	}
	if got := k.Recorder().Gauge(MetricQuarantineGauge).Value(); got != 0 {
		t.Fatalf("pcc_quarantined_owners = %d after recovery, want 0", got)
	}
	// Disabling quarantine clears state.
	k.SetQuarantine(QuarantineConfig{})
	if k.quarCfg != nil {
		t.Fatal("SetQuarantine(zero) left a config")
	}
}

// TestQuarantineBackoffDoubles: each strike past the threshold doubles
// the embargo up to Max.
func TestQuarantineBackoffDoubles(t *testing.T) {
	cfg := &QuarantineConfig{Threshold: 3, Base: 10 * time.Millisecond, Max: 45 * time.Millisecond}
	for _, tc := range []struct {
		strikes int
		want    time.Duration
	}{
		{3, 10 * time.Millisecond},
		{4, 20 * time.Millisecond},
		{5, 40 * time.Millisecond},
		{6, 45 * time.Millisecond}, // capped
		{20, 45 * time.Millisecond},
	} {
		if got := expBackoff(cfg.Base, cfg.Max, tc.strikes-cfg.Threshold); got != tc.want {
			t.Fatalf("backoff(%d) = %v, want %v", tc.strikes, got, tc.want)
		}
	}
}

// TestExpBackoffSequences pins the backoff sequences of both configs
// that share expBackoff: a breaker's open interval after trips 1..6
// (trips-1 doublings) and a quarantine's embargo after strikes
// Threshold..Threshold+5 (strikes-Threshold doublings). Base <= 0
// means one second, the result is capped at Max (even below Base), and
// Max = 0 means no cap.
func TestExpBackoffSequences(t *testing.T) {
	// The two call-site shapes, as breaker.go and robust.go use them.
	breaker := func(c BreakerConfig) func(int) time.Duration {
		return func(trips int) time.Duration { return expBackoff(c.Base, c.Max, trips-1) }
	}
	quarantine := func(c QuarantineConfig) func(int) time.Duration {
		return func(strikes int) time.Duration { return expBackoff(c.Base, c.Max, strikes-c.Threshold) }
	}
	const ms, s = time.Millisecond, time.Second
	for _, tc := range []struct {
		name    string
		backoff func(int) time.Duration
		first   int // trips or strikes of want[0]
		want    []time.Duration
	}{
		{"breaker capped", breaker(BreakerConfig{Base: 10 * ms, Max: 45 * ms}), 1,
			[]time.Duration{10 * ms, 20 * ms, 40 * ms, 45 * ms, 45 * ms, 45 * ms}},
		{"breaker defaults", breaker(BreakerConfig{}), 1,
			[]time.Duration{1 * s, 2 * s, 4 * s, 8 * s, 16 * s, 32 * s}},
		{"breaker negative base", breaker(BreakerConfig{Base: -5 * ms, Max: 3 * s}), 1,
			[]time.Duration{1 * s, 2 * s, 3 * s, 3 * s, 3 * s, 3 * s}},
		{"breaker max below base", breaker(BreakerConfig{Base: 50 * ms, Max: 20 * ms}), 1,
			[]time.Duration{20 * ms, 20 * ms, 20 * ms, 20 * ms, 20 * ms, 20 * ms}},
		{"quarantine capped", quarantine(QuarantineConfig{Threshold: 3, Base: 10 * ms, Max: 45 * ms}), 3,
			[]time.Duration{10 * ms, 20 * ms, 40 * ms, 45 * ms, 45 * ms, 45 * ms}},
		{"quarantine defaults", quarantine(QuarantineConfig{Threshold: 2}), 2,
			[]time.Duration{1 * s, 2 * s, 4 * s, 8 * s, 16 * s, 32 * s}},
		{"quarantine max below base", quarantine(QuarantineConfig{Threshold: 1, Base: 50 * ms, Max: 20 * ms}), 1,
			[]time.Duration{20 * ms, 20 * ms, 20 * ms, 20 * ms, 20 * ms, 20 * ms}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i, want := range tc.want {
				if got := tc.backoff(tc.first + i); got != want {
					t.Fatalf("after %d: backoff %v, want %v", tc.first+i, got, want)
				}
			}
		})
	}
}

// TestKernelLimitsApply: SetLimits flows into every install's
// validation, filter or handler; a starved step budget turns a valid
// binary into a "limit" rejection, and restoring the defaults accepts
// it again.
func TestKernelLimitsApply(t *testing.T) {
	bin := goodBinary(t)
	k := New()
	k.SetRecorder(telemetry.New())
	handler, err := pcc.Certify(handlerSrc, k.ResourcePolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	lim := pcc.DefaultLimits()
	lim.MaxCheckSteps = 5
	k.SetLimits(lim)
	if err := k.InstallFilter("starved", bin); !errors.Is(err, pcc.ErrResourceLimit) {
		t.Fatalf("filter: want ErrResourceLimit, got %v", err)
	}
	if err := k.InstallHandler(3, handler.Binary); !errors.Is(err, pcc.ErrResourceLimit) {
		t.Fatalf("handler: want ErrResourceLimit, got %v", err)
	}
	if got := rejectCount(k, "limit"); got != 2 {
		t.Fatalf("pcc_rejects_total{reason=limit} = %d, want 2", got)
	}
	k.SetLimits(pcc.DefaultLimits())
	if err := k.InstallFilter("starved", bin); err != nil {
		t.Fatalf("default limits rejected a paper filter: %v", err)
	}
	if got := k.Limits(); got.MaxCheckSteps != pcc.DefaultLimits().MaxCheckSteps {
		t.Fatalf("Limits() = %+v", got)
	}
}

// TestCycleBudgetClassifiedAsLimit: the install-time WCET budget is
// part of the same resource-limit vocabulary as the validation
// budgets.
func TestCycleBudgetClassifiedAsLimit(t *testing.T) {
	bin := goodBinary(t)
	k := New()
	k.SetRecorder(telemetry.New())
	k.SetCycleBudget(1) // nothing fits in one cycle
	err := k.InstallFilter("over", bin)
	if !errors.Is(err, pcc.ErrResourceLimit) {
		t.Fatalf("budget rejection not a resource limit: %v", err)
	}
	var rle *pcc.ResourceLimitError
	if !errors.As(err, &rle) || rle.Axis != "cycle_budget" {
		t.Fatalf("want cycle_budget axis, got %v", err)
	}
	if got := rejectCount(k, "limit"); got != 1 {
		t.Fatalf("pcc_rejects_total{reason=limit} = %d, want 1", got)
	}
}

// TestBatchCtxCanceledDrains: a batch launched with an already-
// canceled context produces one deadline-classed rejection per
// request, installs nothing, and the accounting reconciles.
func TestBatchCtxCanceledDrains(t *testing.T) {
	bin := goodBinary(t)
	k := New()
	k.SetRecorder(telemetry.New())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := make([]InstallRequest, 8)
	for i := range reqs {
		reqs[i] = InstallRequest{Owner: "o", Binary: bin}
	}
	errs := k.InstallFilterBatchCtx(ctx, reqs)
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("errs[%d] = %v, want Canceled", i, err)
		}
	}
	if n := len(k.Owners()); n != 0 {
		t.Fatalf("canceled batch installed %d filters", n)
	}
	st := k.Stats()
	if st.Validations != len(reqs) || st.Rejections != len(reqs) {
		t.Fatalf("books off: %+v", st)
	}
	if got := rejectCount(k, "deadline"); got != int64(len(reqs)) {
		t.Fatalf("pcc_rejects_total{reason=deadline} = %d, want %d", got, len(reqs))
	}
}
