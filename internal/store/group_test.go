package store

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// setSyncFile replaces the journal fsync for one test.
func setSyncFile(t *testing.T, f func(*os.File) error) {
	t.Helper()
	old := syncFile
	syncFile = f
	t.Cleanup(func() { syncFile = old })
}

// openSynced opens a store that fsyncs, through syncFile.
func openSynced(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// waitWritten waits until n records have been written to s.
func waitWritten(t *testing.T, s *Store, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		w := s.written
		s.mu.Unlock()
		if w >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d records written, want %d", w, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// replayOwners returns the owners of every replayed record, failing
// the test on any skipped frame or torn tail.
func replayOwners(t *testing.T, dir string) map[string]bool {
	t.Helper()
	recs, rep := ReplayDir(dir)
	if len(rep.Skipped) != 0 || rep.TornTail != nil {
		t.Fatalf("replay skipped %v, torn tail %v", rep.Skipped, rep.TornTail)
	}
	got := map[string]bool{}
	for _, r := range recs {
		got[r.Owner] = true
	}
	return got
}

// TestGroupCommitConcurrentAppends: concurrent appends share fsyncs —
// fewer fsyncs than records — and every acked record replays.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	var fsyncs atomic.Int64
	setSyncFile(t, func(f *os.File) error {
		fsyncs.Add(1)
		time.Sleep(time.Millisecond) // a disk's fsync takes this long or longer
		return f.Sync()
	})
	dir := t.TempDir()
	s := openSynced(t, dir)
	const writers, each = 16, 8
	var wg sync.WaitGroup
	errs := make(chan error, writers*each)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := s.Append(KindInstall, fmt.Sprintf("w%d-%d", w, i), []byte("binary")); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayOwners(t, dir)
	if len(got) != writers*each {
		t.Fatalf("%d records replay, want %d", len(got), writers*each)
	}
	// The count includes Close's own fsync.
	if n := fsyncs.Load(); n >= writers*each {
		t.Fatalf("%d fsyncs for %d concurrent appends", n, writers*each)
	} else {
		t.Logf("%d fsyncs for %d appends", n, writers*each)
	}
}

// TestFailedGroupSync: an fsync that fails fails its whole group and
// every record written while it ran; none of them replays, and their
// tokens stay failed after later records are durable. The next record
// is acked and replays.
func TestFailedGroupSync(t *testing.T) {
	dir := t.TempDir()
	s := openSynced(t, dir)
	if _, err := s.Append(KindInstall, "a", []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	boom := errors.New("injected fsync failure")
	setSyncFile(t, func(f *os.File) error {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
			return boom
		}
		return f.Sync()
	})
	const group = 4
	toks := make([]Token, group)
	errs := make([]error, group)
	var wg sync.WaitGroup
	sync1 := func(i int) {
		defer wg.Done()
		var err error
		if toks[i], err = s.Write(KindInstall, fmt.Sprintf("lost-%d", i), []byte("bbbb")); err != nil {
			errs[i] = err
			return
		}
		errs[i] = s.Sync(toks[i])
	}
	// The first writer leads the fsync that fails; the rest write
	// while it runs.
	wg.Add(1)
	go sync1(0)
	<-entered
	for i := 1; i < group; i++ {
		wg.Add(1)
		go sync1(i)
	}
	waitWritten(t, s, 1+group)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("record %d of the failed group: %v, want the fsync error", i, err)
		}
	}
	if _, err := s.Append(KindInstall, "c", []byte("cccc")); err != nil {
		t.Fatalf("append after the failed group: %v", err)
	}
	for i, tok := range toks {
		if err := s.Sync(tok); !errors.Is(err, boom) {
			t.Fatalf("stale token %d after a later durable record: %v", i, err)
		}
	}
	got := replayOwners(t, dir)
	if len(got) != 2 || !got["a"] || !got["c"] {
		t.Fatalf("replayed %v, want a and c", got)
	}
}

// TestCloseWithSyncWaiters: Close while writers wait on Sync returns
// every waiter, and every waiter that got nil replays.
func TestCloseWithSyncWaiters(t *testing.T) {
	dir := t.TempDir()
	s := openSynced(t, dir)
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	setSyncFile(t, func(f *os.File) error {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		return f.Sync()
	})
	const waiters = 6
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	appendAt := func(i int) {
		defer wg.Done()
		_, errs[i] = s.Append(KindInstall, fmt.Sprintf("w%d", i), []byte("bin"))
	}
	wg.Add(1)
	go appendAt(0)
	<-entered
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go appendAt(i)
	}
	waitWritten(t, s, waiters)
	closed := make(chan error)
	go func() { closed <- s.Close() }()
	// Release the fsync only once Close is waiting for it.
	for {
		s.mu.Lock()
		c := s.closed
		s.mu.Unlock()
		if c {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if _, err := s.Append(KindInstall, "late", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	got := replayOwners(t, dir)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
		if !got[fmt.Sprintf("w%d", i)] {
			t.Fatalf("waiter %d was acked but does not replay", i)
		}
	}
}
