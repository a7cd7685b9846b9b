package kernel

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	pcc "repro"
	"repro/internal/alpha"
	"repro/internal/filters"
	"repro/internal/policy"
	"repro/internal/store"
)

// checkTableIsFold requires k's live table and backend to be the fold
// of the journal in dir: the last install per owner not later
// uninstalled, each filter running the program of its journaled
// binary, compiled exactly when the last journaled retrofit says so.
func checkTableIsFold(t *testing.T, k *Kernel, dir string, progOf map[string][]alpha.Instr) {
	t.Helper()
	recs, rep := store.ReplayDir(dir)
	if len(rep.Skipped) != 0 || rep.TornTail != nil {
		t.Fatalf("replay skipped %v, torn tail %v", rep.Skipped, rep.TornTail)
	}
	live := map[string][]byte{}
	backend := BackendInterp
	for _, r := range recs {
		switch r.Kind {
		case store.KindInstall:
			live[r.Owner] = r.Binary
		case store.KindUninstall:
			delete(live, r.Owner)
		case store.KindRetrofit:
			b, err := ParseBackend(string(r.Binary))
			if err != nil {
				t.Fatal(err)
			}
			backend = b
		}
	}
	if k.Backend() != backend {
		t.Fatalf("backend %s, journal says %s", k.Backend(), backend)
	}
	tbl := k.table.Load()
	if len(tbl.slots) != len(live) {
		t.Fatalf("table holds %v, journal folds to %d owners", k.Owners(), len(live))
	}
	for _, sl := range tbl.slots {
		bin, ok := live[sl.owner]
		if !ok {
			t.Fatalf("%s is installed, but the journal folds it away", sl.owner)
		}
		if !reflect.DeepEqual(sl.f.ext.Prog, progOf[string(bin)]) {
			t.Fatalf("%s runs another program than its last journaled binary", sl.owner)
		}
		if (sl.f.compiled != nil) != (backend == BackendCompiled) {
			t.Fatalf("%s compiled=%v under backend %s", sl.owner, sl.f.compiled != nil, backend)
		}
	}
}

// TestConcurrentCommitsFollowJournal: installs and uninstalls of four
// owners from concurrent goroutines, and a backend flip among them,
// leave the live table equal to the fold of the journal — commits
// publish in journal order, even when one fsync covers several records
// of one owner — and Recover into a fresh kernel restores exactly that
// table.
func TestConcurrentCommitsFollowJournal(t *testing.T) {
	bins := certAll(t)
	var binList [][]byte
	progOf := map[string][]alpha.Instr{}
	for _, f := range filters.All {
		ext, _, err := pcc.Validate(bins[f], policy.PacketFilter())
		if err != nil {
			t.Fatal(err)
		}
		binList = append(binList, bins[f])
		progOf[string(bins[f])] = ext.Prog
	}
	owners := []string{"o0", "o1", "o2", "o3"}
	for round := 0; round < 3; round++ {
		dir := t.TempDir()
		s, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		k := New()
		k.SetStore(s)
		const workers, ops = 8, 24
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*workers + w)))
				for i := 0; i < ops; i++ {
					if w == 0 && i == ops/2 {
						if err := k.SetBackend(BackendCompiled); err != nil {
							t.Error(err)
						}
					}
					o := owners[rng.Intn(len(owners))]
					var err error
					if rng.Intn(4) == 0 {
						err = k.UninstallFilter(o)
					} else {
						err = k.InstallFilter(o, binList[rng.Intn(len(binList))])
					}
					if err != nil {
						t.Error(err)
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		checkTableIsFold(t, k, dir, progOf)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s2, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		k2 := New()
		rep, err := k2.Recover(context.Background(), s2)
		if err != nil || len(rep.Skipped) != 0 {
			t.Fatalf("recover: %v, skipped %v", err, rep)
		}
		checkTableIsFold(t, k2, dir, progOf)
		if got, want := k2.Owners(), k.Owners(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("recovered owners %v, want %v", got, want)
		}
		s2.Close()
	}
}

// TestValidationTakesNoKernelLock: with the kernel lock write-held, a
// filter validation — including the negotiated-policy candidates —
// still completes.
func TestValidationTakesNoKernelLock(t *testing.T) {
	k := New()
	weaker := policy.PacketFilter()
	weaker.Name = "negotiated/v1"
	if err := k.NegotiateFilterPolicy(weaker); err != nil {
		t.Fatal(err)
	}
	bin := certAll(t)[filters.Filter2]
	k.mu.Lock()
	defer k.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		_, _, err := k.validate(context.Background(), "filter", "alice", bin, 0, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("validation blocked on the kernel lock")
	}
}
