//go:build linux

package store

import (
	"bytes"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"testing"
)

// fsizeDirEnv hands the child process of
// TestFailedAppendKeepsLaterRecords its store directory.
const fsizeDirEnv = "STORE_TEST_FSIZE_DIR"

// TestFailedAppendKeepsLaterRecords: an append that fails partway
// through its write leaves no partial frame behind, so the next
// acked append replays. A child process of the test binary lowers its
// own soft file-size limit (RLIMIT_FSIZE) to just past the journal,
// so one append's write stops short, then raises it and appends
// again; this process replays what it left.
func TestFailedAppendKeepsLaterRecords(t *testing.T) {
	if dir := os.Getenv(fsizeDirEnv); dir != "" {
		failOneAppend(t, dir)
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestFailedAppendKeepsLaterRecords$", "-test.count=1")
	cmd.Env = append(os.Environ(), fsizeDirEnv+"="+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	recs, rep := ReplayDir(dir)
	if len(rep.Skipped) != 0 || rep.TornTail != nil {
		t.Fatalf("replay skipped %v, torn tail %v", rep.Skipped, rep.TornTail)
	}
	if len(recs) != 2 || recs[0].Owner != "a" || recs[1].Owner != "c" {
		t.Fatalf("replayed %+v, want records a and c", recs)
	}
	s := openT(t, dir)
	defer s.Close()
	recs, _, err := s.Replay()
	if err != nil || len(recs) != 2 {
		t.Fatalf("after reopen: %d records, %v", len(recs), err)
	}
}

// failOneAppend is the child's half: one acked append, one that the
// file-size limit cuts short, one acked append after the limit is
// lifted.
func failOneAppend(t *testing.T, dir string) {
	s := openT(t, dir)
	if _, err := s.Append(KindInstall, "a", []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, JournalName)
	st, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	if lim.Max != ^uint64(0) && lim.Max < uint64(st.Size())+1<<20 {
		t.Skipf("hard file-size limit %d leaves no room", lim.Max)
	}
	signal.Ignore(syscall.SIGXFSZ)
	low := lim
	low.Cur = uint64(st.Size()) + 16
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &low); err != nil {
		t.Fatal(err)
	}
	_, err = s.Append(KindInstall, "b", bytes.Repeat([]byte("b"), 256))
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil {
		t.Fatal("an append past the file-size limit was acked")
	}
	if _, err := s.Append(KindInstall, "c", []byte("cccc")); err != nil {
		t.Fatalf("append after the failed one: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
