package kernel_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/kernel"
	"repro/internal/telemetry"
)

// TestBatchInstallSameShapeConcurrent: concurrent batches of code-only
// variants into one kernel (all sharing four proofs) all install, and
// each distinct binary is validated once.
func TestBatchInstallSameShapeConcurrent(t *testing.T) {
	variants, err := chaos.CodeVariants(3)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New()
	rec := telemetry.New()
	k.SetRecorder(rec)
	const batches = 4
	var wg sync.WaitGroup
	errs := make([][]error, batches)
	for g := 0; g < batches; g++ {
		var reqs []kernel.InstallRequest
		for i, v := range variants {
			reqs = append(reqs, kernel.InstallRequest{Owner: fmt.Sprintf("b%d-%d", g, i), Binary: v.Binary})
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = k.InstallFilterBatch(reqs)
		}()
	}
	wg.Wait()
	for g, es := range errs {
		for i, err := range es {
			if err != nil {
				t.Fatalf("batch %d, %s: %v", g, variants[i].Name, err)
			}
		}
	}
	// Each distinct binary validates exactly once: the proof cache
	// serves later repeats, and a repeat that arrives while its binary
	// is validating waits for that validation. How many of the
	// validations find their proof checked depends on how the batches
	// interleave.
	misses := int64(k.Stats().CacheMisses)
	reused := rec.Counter(kernel.MetricProofReuse).Value()
	if misses != int64(len(variants)) || reused > misses {
		t.Fatalf("%d validations of %d binaries, %d reused a proof", misses, len(variants), reused)
	}
	t.Logf("%d validations, %d reused a proof", misses, reused)
}

// TestProofReuseObserved: a variant installed after its paper filter
// reuses the filter's checked proof, and says so: proof_reused in its
// audit install record, pcc_proof_reuse_total, and a validate span
// with no lfcheck child.
func TestProofReuseObserved(t *testing.T) {
	bases, err := chaos.PaperBases()
	if err != nil {
		t.Fatal(err)
	}
	variants, err := chaos.CodeVariants(1)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New()
	rec := telemetry.New()
	k.SetRecorder(rec)
	var buf bytes.Buffer
	k.SetAuditLog(slog.New(slog.NewJSONHandler(&buf, nil)))
	if err := k.InstallFilter("paper", bases[0].Binary); err != nil {
		t.Fatal(err)
	}
	if err := k.InstallFilter("variant", variants[0].Binary); err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter(kernel.MetricProofReuse).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", kernel.MetricProofReuse, got)
	}
	reused := map[string]any{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var r map[string]any
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		if r["event"] == "install" {
			reused[r["owner"].(string)] = r["proof_reused"]
		}
	}
	if reused["paper"] != false || reused["variant"] != true {
		t.Fatalf("audit proof_reused: %v, want paper false and variant true", reused)
	}
	events := rec.Log().Events(telemetry.Query{Class: telemetry.ClassSpan})
	validates := map[uint64]string{}
	kids := map[string][]string{}
	for _, e := range events {
		if e.Stage == telemetry.StageValidate {
			validates[e.ID] = e.Owner
		}
	}
	for _, e := range events {
		if owner, ok := validates[e.Parent]; ok {
			kids[owner] = append(kids[owner], e.Stage)
		}
	}
	hasCheck := func(owner string) bool {
		return strings.Contains(strings.Join(kids[owner], ","), telemetry.StageLFCheck)
	}
	if !hasCheck("paper") || hasCheck("variant") {
		t.Fatalf("validate children: %v; want lfcheck under paper only", kids)
	}
}
