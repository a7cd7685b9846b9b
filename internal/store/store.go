// Package store is the kernel's crash-consistent filter store: an
// append-only, checksummed write-ahead journal of install/uninstall/
// retrofit records, periodically compacted into a snapshot file.
//
// The durability contract mirrors the paper's trust argument. The
// journal makes an install *durable* — Sync (and Append, which is
// Write then Sync) returns nil only after the record is framed,
// written, and fsynced, so a kernel that acks an install after it can
// never lose it to a crash — but it does NOT make the record
// *trusted*. Disk is an untrusted producer exactly like the network
// peer that shipped the binary in the first place: on recovery every
// blob replayed from here goes back through the full validation
// pipeline (parse, VCGen, LF proof check), and a bit-rotted or
// tampered proof dies in the checker, not in a checksum comparison.
// The CRCs below exist to classify corruption (and to keep a torn tail
// from desynchronizing the frame stream), never to vouch for content.
//
// Appends commit in groups. Write puts a record in the file under the
// store mutex; Sync waits for an fsync that began after the write. One
// waiting caller leads each fsync, outside the mutex, and it covers
// every record written before it began, so concurrent appends share
// fsyncs instead of queueing one each behind the mutex. A failed fsync
// fails every record not yet durable — its own group and any written
// during it — and cuts the journal back to the last durable frame, so
// a record whose Sync failed never replays.
//
// On-disk layout, one directory per kernel:
//
//	journal.pccj   8-byte magic, then frames
//	snapshot.pccs  8-byte magic, 8-byte little-endian BaseSeq, then frames
//
// Each frame is [uint32 length][uint32 CRC32-Castagnoli][payload],
// both little-endian, where payload is:
//
//	version byte (1) | kind byte | seq uvarint |
//	owner length uvarint | owner bytes |
//	binary length uvarint | binary bytes
//
// Sequence numbers are assigned monotonically by Write and enforced
// strictly increasing on replay, so a duplicated or reordered frame
// (hostile splice, partial copy) is skipped with a typed error rather
// than replayed twice. A snapshot's BaseSeq records the highest
// sequence folded into it; journal frames at or below BaseSeq are
// stale leftovers of a crash between snapshot rename and journal
// truncation and are skipped the same way.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Kind classifies one journal record.
type Kind byte

const (
	// KindInstall records a validated filter install: owner + the exact
	// PCC binary (code and proof) that was accepted.
	KindInstall Kind = 1
	// KindUninstall records a filter removal; the binary field is empty.
	KindUninstall Kind = 2
	// KindRetrofit records a kernel-wide configuration retrofit (today:
	// the execution backend); owner names the setting, binary its value.
	KindRetrofit Kind = 3
)

func (k Kind) String() string {
	switch k {
	case KindInstall:
		return "install"
	case KindUninstall:
		return "uninstall"
	case KindRetrofit:
		return "retrofit"
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// Record is one journal entry.
type Record struct {
	Kind   Kind
	Seq    uint64
	Owner  string
	Binary []byte
}

// File names inside a store directory.
const (
	JournalName  = "journal.pccj"
	SnapshotName = "snapshot.pccs"
)

var (
	journalMagic  = [8]byte{'P', 'C', 'C', 'J', 'R', 'N', 'L', '1'}
	snapshotMagic = [8]byte{'P', 'C', 'C', 'S', 'N', 'A', 'P', '1'}
)

const (
	recordVersion = 1
	frameHeader   = 8 // uint32 length + uint32 CRC
	// maxRecordBytes bounds a single frame so a corrupt length field
	// cannot make replay attempt a multi-gigabyte allocation.
	maxRecordBytes = 64 << 20
)

// castagnoli is the CRC32-C table shared by framing and tooling.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the frame checksum over a payload (CRC32-Castagnoli).
// Exported for fault-injection tooling that must forge frames which
// pass framing and die in validation instead.
func Checksum(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// ErrClosed reports an operation on a closed store. An Append that
// fails with ErrClosed was never made durable: the caller must not ack
// the install.
var ErrClosed = errors.New("store: closed")

// CorruptRecordError reports a frame whose checksum or payload
// encoding failed; replay skips the frame and continues at the next.
type CorruptRecordError struct {
	File   string
	Offset int64
	Reason string
}

func (e *CorruptRecordError) Error() string {
	return fmt.Sprintf("store: corrupt record in %s at offset %d: %s", e.File, e.Offset, e.Reason)
}

// TornTailError reports an incomplete final frame — the expected
// remnant of a crash mid-append. Everything before it replays; nothing
// after it is trusted to be frame-aligned.
type TornTailError struct {
	File   string
	Offset int64
}

func (e *TornTailError) Error() string {
	return fmt.Sprintf("store: torn tail in %s at offset %d", e.File, e.Offset)
}

// OutOfOrderError reports a frame whose sequence number does not
// strictly increase — a duplicated or reordered record; replay skips
// it.
type OutOfOrderError struct {
	File   string
	Offset int64
	Seq    uint64
	After  uint64
}

func (e *OutOfOrderError) Error() string {
	return fmt.Sprintf("store: out-of-order record in %s at offset %d: seq %d after %d",
		e.File, e.Offset, e.Seq, e.After)
}

// Options tunes a store.
type Options struct {
	// NoSync skips the fsync on every Append and Compact. Only for
	// benchmarks and tests that simulate crashes by byte surgery; a
	// production kernel must keep syncing on, or an acked install can
	// die with the page cache.
	NoSync bool
	// CompactEvery triggers automatic compaction once the journal holds
	// that many records beyond the snapshot; 0 means never (callers
	// compact explicitly).
	CompactEvery int
}

// Store is an open filter store. All methods are safe for concurrent
// use. An append is split in two: Write frames and writes a record
// under the store mutex, and Sync waits until it is durable. The fsync
// runs outside the mutex, led by one waiting caller, and covers every
// record written before it began: the records written while one fsync
// runs share the next (group commit). Close waits out an in-flight
// fsync and syncs the rest, so every Sync that returned nil before
// Close began names a record on disk, and a Write after Close fails
// with ErrClosed (so it is never acked).
type Store struct {
	mu sync.Mutex
	// cond, on mu, is broadcast whenever an fsync ends: it wakes the
	// Sync callers it may have settled, and Compact and Close, which
	// wait for no fsync to be in flight.
	cond    sync.Cond
	dir     string
	opt     Options
	journal *os.File
	// end is the journal's length up to its last whole frame: where
	// the next write starts, and where a failed one is cut back to.
	// synced is its length up to its last durable frame: where a
	// failed fsync cuts it back to.
	end, synced int64
	nextSeq     uint64
	// live counts journal records past the snapshot, for CompactEvery.
	live int
	// written counts the records ever written, and durable those of
	// them that are settled: made durable, or lost with an earlier
	// generation. Unlike the file offsets above, which go back on
	// compaction and on a cut-back, they only grow; a Token names its
	// record by its position among them and by gen, the number of
	// failed fsyncs so far. cuts[g] is how generation g ended.
	written, durable uint64
	gen              uint64
	cuts             []cut
	// syncing is set while a leader's fsync runs without mu.
	syncing bool
	closed  bool
	// wedged is set when a failed write or fsync could not be cut back:
	// the journal may end in part of a frame, so no write may follow.
	wedged bool
}

// cut is how one generation ended: an fsync failed with err, and
// every record of the generation past position durable was lost.
type cut struct {
	durable uint64
	err     error
}

// Token names one written record for Sync.
type Token struct {
	// Seq is the record's sequence number.
	Seq      uint64
	gen, pos uint64
}

// syncFile is the journal fsync of Sync and Close. Tests replace it to
// count fsyncs or to fail one.
var syncFile = (*os.File).Sync

// Open opens (creating if necessary) the store in dir. A torn final
// frame in the journal — the signature of a crash mid-append — is
// truncated away so new appends extend a frame-aligned file; interior
// corruption is left in place for Replay to classify. The 8-byte
// header gets the same tolerance as any frame: a file cut inside the
// magic (a crash during the very first write) or a header-only bit
// flip is healed — rewritten in place when decodable frames follow,
// reset to a bare magic when nothing decodable remains — never a
// permanent boot failure.
func Open(dir string, opt Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	s := &Store{dir: dir, opt: opt}
	s.cond.L = &s.mu
	jpath := filepath.Join(dir, JournalName)
	f, err := os.OpenFile(jpath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: stat journal: %w", err)
	}
	if st.Size() == 0 {
		if _, err := f.Write(journalMagic[:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: init journal: %w", err)
		}
		if !opt.NoSync {
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, fmt.Errorf("store: init journal: %w", err)
			}
		}
	}
	// Establish the next sequence number and the append position from
	// what is actually on disk: the snapshot's base plus every decodable
	// journal frame, corrupt or stale ones included (their seqs still
	// reserve the number space).
	base, snapRecs, _ := readSnapshot(dir)
	maxSeq := base
	for _, r := range snapRecs {
		if r.Seq > maxSeq {
			maxSeq = r.Seq
		}
	}
	data, err := os.ReadFile(jpath)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: read journal: %w", err)
	}
	var frames []Frame
	var torn bool
	switch {
	case len(data) < len(journalMagic):
		// A crash during the very first header write left a short file.
		// Truncating UP to the magic length would extend it with zero
		// bytes — a corrupt header that fails every later Open — and a
		// partial magic cannot be hiding any frames, so reset to a bare,
		// freshly written header instead.
		if err := resetJournalHeader(f, dir, nil, opt); err != nil {
			f.Close()
			return nil, err
		}
	case [8]byte(data[:8]) != journalMagic:
		// The header itself rotted. Frames still start at byte 8
		// regardless of what the magic says, so if checksummed,
		// decodable records follow, only the header is damaged: repair
		// it in place and keep every acked record — the skip-and-continue
		// policy applied to the journal's own header. A file with a
		// foreign header AND nothing decodable behind it holds no acked
		// state to lose; preserve it aside and start fresh.
		if fr, tr, ok := salvageFrames(data); ok {
			if _, err := f.WriteAt(journalMagic[:], 0); err != nil {
				f.Close()
				return nil, fmt.Errorf("store: repair journal header: %w", err)
			}
			if !opt.NoSync {
				if err := f.Sync(); err != nil {
					f.Close()
					return nil, fmt.Errorf("store: repair journal header: %w", err)
				}
			}
			frames, torn = fr, tr
		} else if err := resetJournalHeader(f, dir, data, opt); err != nil {
			f.Close()
			return nil, err
		}
	default:
		frames, torn = scanFrames(data, len(journalMagic))
	}
	live := 0
	end := int64(len(journalMagic))
	for _, fr := range frames {
		end = int64(fr.End)
		if rec, err := DecodePayload(fr.Payload); err == nil {
			if rec.Seq > maxSeq {
				maxSeq = rec.Seq
			}
			if rec.Seq > base {
				live++
			}
		}
	}
	if torn {
		// Drop the torn tail so the next append starts at a frame
		// boundary instead of extending garbage.
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncate torn tail: %w", err)
		}
	}
	if s.end, err = f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: seek journal: %w", err)
	}
	s.synced = s.end
	s.journal = f
	s.nextSeq = maxSeq + 1
	s.live = live
	return s, nil
}

// resetJournalHeader rewrites the journal as a bare magic header. Runs
// only when the header region is damaged and no decodable frame
// follows, so no acked record is lost. A non-empty prior image is
// preserved as journal.pccj.bad for forensics (best-effort — the side
// copy is diagnostics, not durability).
func resetJournalHeader(f *os.File, dir string, data []byte, opt Options) error {
	if len(data) > 0 {
		_ = os.WriteFile(filepath.Join(dir, JournalName+".bad"), data, 0o644)
	}
	if err := f.Truncate(0); err != nil {
		return fmt.Errorf("store: reset journal header: %w", err)
	}
	if _, err := f.WriteAt(journalMagic[:], 0); err != nil {
		return fmt.Errorf("store: reset journal header: %w", err)
	}
	if !opt.NoSync {
		if err := f.Sync(); err != nil {
			return fmt.Errorf("store: reset journal header: %w", err)
		}
	}
	return nil
}

// salvageFrames scans frames past a damaged journal header. ok reports
// whether at least one checksummed, decodable record was found — the
// evidence that the bytes really are our journal with a rotted magic
// (frame alignment after the fixed-width header does not depend on the
// header's content) rather than some unrelated file.
func salvageFrames(data []byte) (frames []Frame, torn bool, ok bool) {
	if len(data) < len(journalMagic) {
		return nil, false, false
	}
	frames, torn = scanFrames(data, len(journalMagic))
	for _, fr := range frames {
		if !fr.CRCOK {
			continue
		}
		if _, err := DecodePayload(fr.Payload); err == nil {
			return frames, torn, true
		}
	}
	return nil, false, false
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Append writes one record and waits until it is durable: Write
// followed by Sync. A nil error is the caller's license to ack the
// operation.
func (s *Store) Append(kind Kind, owner string, binary []byte) (uint64, error) {
	tok, err := s.Write(kind, owner, binary)
	if err == nil {
		err = s.Sync(tok)
	}
	if err != nil {
		return 0, err
	}
	return tok.Seq, nil
}

// Write frames and writes one record, assigning its sequence number,
// and returns the token to Sync on. The record is not durable yet: a
// caller must not ack it before Sync(tok) returns nil. A failed write
// cuts the journal back to where the record began, so a partial frame
// never sits in front of later records; if that fails too, every later
// Write fails with ErrClosed.
func (s *Store) Write(kind Kind, owner string, binary []byte) (Token, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.wedged {
		return Token{}, ErrClosed
	}
	seq := s.nextSeq
	frame := FrameRecord(Record{Kind: kind, Seq: seq, Owner: owner, Binary: binary})
	if _, err := s.journal.Write(frame); err != nil {
		return Token{}, s.unwind(s.end, fmt.Errorf("store: append: %w", err))
	}
	s.end += int64(len(frame))
	s.nextSeq++
	s.live++
	s.written++
	return Token{Seq: seq, gen: s.gen, pos: s.written}, nil
}

// Sync returns once the record tok names is durable (unless the store
// was opened NoSync), or with the error that lost it. If no fsync is
// in flight, the caller leads one (syncGroup); otherwise it waits for
// the one in flight, which covers its record if the record was written
// before that fsync began, and leads the next one if not.
func (s *Store) Sync(tok Token) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if tok.gen < s.gen {
			// An fsync failed since the record was written: it is durable
			// only if an earlier fsync already covered it.
			if c := s.cuts[tok.gen]; tok.pos > c.durable {
				return c.err
			}
			return nil
		}
		if tok.pos <= s.durable {
			return nil
		}
		if s.syncing {
			s.cond.Wait()
		} else {
			s.syncGroup()
		}
	}
}

// syncGroup leads one fsync, which covers every record written so far.
// It runs with s.mu held and no fsync in flight, and releases s.mu for
// the fsync itself, so records written meanwhile form the next group.
// A failed fsync loses every record not yet durable: this group and
// any written during its fsync (fail). A CompactEvery threshold may
// fold the journal into the snapshot after a successful one;
// compaction failure is not a sync failure (the group is already
// durable).
func (s *Store) syncGroup() {
	s.syncing = true
	pos, end := s.written, s.end
	s.mu.Unlock()
	err := s.fsync()
	s.mu.Lock()
	s.syncing = false
	if err != nil {
		s.fail(fmt.Errorf("store: append sync: %w", err))
	} else {
		s.durable, s.synced = pos, end
		if s.opt.CompactEvery > 0 && s.live >= s.opt.CompactEvery {
			s.compactLocked() // best-effort
		}
	}
	s.cond.Broadcast()
}

// fsync syncs the journal unless the store was opened NoSync.
func (s *Store) fsync() error {
	if s.opt.NoSync {
		return nil
	}
	return syncFile(s.journal)
}

// fail ends the current generation after a failed fsync: every record
// written since the last durable one is lost, and its Sync returns
// err. The journal is cut back to the last durable frame, so none of
// those records replays; if the cut fails, the store is wedged.
func (s *Store) fail(err error) {
	s.cuts = append(s.cuts, cut{durable: s.durable, err: err})
	s.gen++
	s.live -= int(s.written - s.durable)
	s.durable = s.written // settled: the lost records by the cut
	s.unwind(s.synced, err)
}

// unwind cuts the journal back to offset to after a failed write or
// fsync and moves the write offset there. Were a partial frame left in
// place, the next write would land behind it, replay would lose frame
// alignment at the stray length word, and Open would cut everything
// after it as a torn tail, acked records included. If the cut fails,
// the store is wedged. It returns err.
func (s *Store) unwind(to int64, err error) error {
	s.end = to
	if terr := s.journal.Truncate(to); terr != nil {
		s.wedged = true
		return err
	}
	if _, serr := s.journal.Seek(to, io.SeekStart); serr != nil {
		s.wedged = true
	}
	return err
}

// Compact folds the snapshot and journal into a fresh snapshot holding
// only the live state (last install per owner not later uninstalled,
// last retrofit per setting) and truncates the journal. Crash-safe:
// the snapshot is written to a temp file, synced, and renamed before
// the journal is touched, and BaseSeq dedupe makes a journal that
// survives a crash after the rename harmless. It waits for an
// in-flight fsync first; every record written before it is durable
// after it.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.syncing {
		s.cond.Wait()
	}
	if s.closed {
		return ErrClosed
	}
	defer s.cond.Broadcast()
	return s.compactLocked()
}

// compactLocked is Compact with s.mu held and no fsync in flight. It
// folds every written record, durable or not, into the snapshot, so
// once the snapshot is in place all of them are durable.
func (s *Store) compactLocked() error {
	recs, rep := replayDir(s.dir)
	_ = rep // corruption is skipped here exactly as recovery would skip it
	liveRecs := foldLive(recs)
	var base uint64
	for _, r := range recs {
		if r.Seq > base {
			base = r.Seq
		}
	}
	tmp, err := os.CreateTemp(s.dir, "snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	tmpName := tmp.Name()
	var buf []byte
	buf = append(buf, snapshotMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, base)
	for _, r := range liveRecs {
		buf = append(buf, FrameRecord(r)...)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: compact write: %w", err)
	}
	if !s.opt.NoSync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmpName)
			return fmt.Errorf("store: compact sync: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: compact close: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(s.dir, SnapshotName)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: compact rename: %w", err)
	}
	if !s.opt.NoSync {
		if d, err := os.Open(s.dir); err == nil {
			d.Sync()
			d.Close()
		}
	}
	// The snapshot is durable; the journal's records are now stale
	// (seq <= BaseSeq). Truncate back to the bare magic.
	s.durable, s.synced = s.written, s.end
	if err := s.journal.Truncate(int64(len(journalMagic))); err != nil {
		return fmt.Errorf("store: compact truncate: %w", err)
	}
	s.end = int64(len(journalMagic))
	s.synced = s.end
	if _, err := s.journal.Seek(s.end, io.SeekStart); err != nil {
		s.wedged = true // the write offset is past the cut
		return fmt.Errorf("store: compact seek: %w", err)
	}
	if !s.opt.NoSync {
		if err := s.journal.Sync(); err != nil {
			return fmt.Errorf("store: compact: %w", err)
		}
	}
	s.live = 0
	return nil
}

// foldLive reduces a replayed record stream to the state a recovery
// would re-install: the last install per owner not followed by an
// uninstall, plus the last retrofit per setting, ordered by sequence.
func foldLive(recs []Record) []Record {
	installs := map[string]Record{}
	retrofits := map[string]Record{}
	for _, r := range recs {
		switch r.Kind {
		case KindInstall:
			installs[r.Owner] = r
		case KindUninstall:
			delete(installs, r.Owner)
		case KindRetrofit:
			retrofits[r.Owner] = r
		}
	}
	out := make([]Record, 0, len(installs)+len(retrofits))
	for _, r := range installs {
		out = append(out, r)
	}
	for _, r := range retrofits {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// ReplayReport classifies what Replay skipped. Every skip carries its
// typed error so recovery can audit each one individually.
type ReplayReport struct {
	// SnapshotRecords and JournalRecords count the frames decoded and
	// delivered from each file.
	SnapshotRecords int
	JournalRecords  int
	// Skipped holds one typed error (*CorruptRecordError,
	// *OutOfOrderError) per skipped frame, in file order.
	Skipped []error
	// TornTail is non-nil when a file ended mid-frame; replay of that
	// file stopped there.
	TornTail *TornTailError
	// Stale counts journal frames at or below the snapshot's BaseSeq —
	// the benign leftovers of a crash between snapshot rename and
	// journal truncation.
	Stale int
}

// Replay reads the snapshot (if any) then the journal, returning every
// decodable record in sequence order along with a report of what was
// skipped and why. Replay never fails on content: corruption is
// classified and skipped, and the caller re-validates every returned
// binary anyway.
func (s *Store) Replay() ([]Record, *ReplayReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, ErrClosed
	}
	recs, rep := replayDir(s.dir)
	return recs, rep, nil
}

// ReplayDir replays a store directory without opening it for appends —
// the read-only view recovery tooling and fault-injection harnesses
// use.
func ReplayDir(dir string) ([]Record, *ReplayReport) { return replayDir(dir) }

func replayDir(dir string) ([]Record, *ReplayReport) {
	rep := &ReplayReport{}
	var out []Record
	base, snapRecs, snapRep := readSnapshot(dir)
	rep.SnapshotRecords = len(snapRecs)
	rep.Skipped = append(rep.Skipped, snapRep.Skipped...)
	if snapRep.TornTail != nil {
		rep.TornTail = snapRep.TornTail
	}
	out = append(out, snapRecs...)

	data, err := os.ReadFile(filepath.Join(dir, JournalName))
	if err != nil {
		return out, rep
	}
	frames, torn, err := ScanJournal(data)
	if err != nil {
		// Damaged header. Open repairs it (or resets an unrecognizable
		// file); mirror its salvage here so the read-only view agrees:
		// checksummed, decodable frames after the header still replay,
		// and the header damage itself is reported as a skip.
		rep.Skipped = append(rep.Skipped,
			&CorruptRecordError{File: JournalName, Offset: 0, Reason: err.Error()})
		fr, tr, ok := salvageFrames(data)
		if !ok {
			return out, rep
		}
		frames, torn = fr, tr
	}
	last := base
	for _, r := range snapRecs {
		if r.Seq > last {
			last = r.Seq
		}
	}
	for _, fr := range frames {
		if !fr.CRCOK {
			rep.Skipped = append(rep.Skipped,
				&CorruptRecordError{File: JournalName, Offset: int64(fr.Off), Reason: "checksum mismatch"})
			continue
		}
		rec, err := DecodePayload(fr.Payload)
		if err != nil {
			rep.Skipped = append(rep.Skipped,
				&CorruptRecordError{File: JournalName, Offset: int64(fr.Off), Reason: err.Error()})
			continue
		}
		if rec.Seq <= base {
			rep.Stale++
			continue
		}
		if rec.Seq <= last {
			rep.Skipped = append(rep.Skipped,
				&OutOfOrderError{File: JournalName, Offset: int64(fr.Off), Seq: rec.Seq, After: last})
			continue
		}
		last = rec.Seq
		rep.JournalRecords++
		out = append(out, rec)
	}
	if torn {
		off := int64(len(journalMagic))
		if n := len(frames); n > 0 {
			off = int64(frames[n-1].End)
		}
		rep.TornTail = &TornTailError{File: JournalName, Offset: off}
	}
	return out, rep
}

// readSnapshot decodes the snapshot file; a missing or unreadable
// snapshot is an empty base (the journal alone is authoritative).
func readSnapshot(dir string) (base uint64, recs []Record, rep ReplayReport) {
	data, err := os.ReadFile(filepath.Join(dir, SnapshotName))
	if err != nil {
		return 0, nil, rep
	}
	if len(data) < len(snapshotMagic)+8 || [8]byte(data[:8]) != snapshotMagic {
		rep.Skipped = append(rep.Skipped,
			&CorruptRecordError{File: SnapshotName, Offset: 0, Reason: "bad magic or truncated header"})
		return 0, nil, rep
	}
	base = binary.LittleEndian.Uint64(data[8:16])
	frames, torn := scanFrames(data, 16)
	var last uint64
	for _, fr := range frames {
		if !fr.CRCOK {
			rep.Skipped = append(rep.Skipped,
				&CorruptRecordError{File: SnapshotName, Offset: int64(fr.Off), Reason: "checksum mismatch"})
			continue
		}
		rec, err := DecodePayload(fr.Payload)
		if err != nil {
			rep.Skipped = append(rep.Skipped,
				&CorruptRecordError{File: SnapshotName, Offset: int64(fr.Off), Reason: err.Error()})
			continue
		}
		if rec.Seq <= last {
			rep.Skipped = append(rep.Skipped,
				&OutOfOrderError{File: SnapshotName, Offset: int64(fr.Off), Seq: rec.Seq, After: last})
			continue
		}
		last = rec.Seq
		recs = append(recs, rec)
	}
	if torn {
		off := int64(16)
		if n := len(frames); n > 0 {
			off = int64(frames[n-1].End)
		}
		rep.TornTail = &TornTailError{File: SnapshotName, Offset: off}
	}
	return base, recs, rep
}

// Close fsyncs and closes the journal. It waits for an in-flight
// fsync, then syncs every record written since and settles their Sync
// callers with the result: an install acked before Close began is on
// disk, and a Write arriving after Close fails with ErrClosed (so it
// is never acked).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for s.syncing {
		s.cond.Wait()
	}
	serr := s.fsync()
	if serr != nil {
		serr = fmt.Errorf("store: close sync: %w", serr)
		s.fail(serr)
	} else {
		s.durable, s.synced = s.written, s.end
	}
	s.cond.Broadcast()
	if err := s.journal.Close(); err != nil && serr == nil {
		return fmt.Errorf("store: close: %w", err)
	}
	return serr
}

// --- framing -------------------------------------------------------

// EncodePayload encodes one record's frame payload.
func EncodePayload(r Record) []byte {
	buf := make([]byte, 0, 2+binary.MaxVarintLen64*3+len(r.Owner)+len(r.Binary))
	buf = append(buf, recordVersion, byte(r.Kind))
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = binary.AppendUvarint(buf, uint64(len(r.Owner)))
	buf = append(buf, r.Owner...)
	buf = binary.AppendUvarint(buf, uint64(len(r.Binary)))
	buf = append(buf, r.Binary...)
	return buf
}

// DecodePayload decodes a frame payload back into a record.
func DecodePayload(p []byte) (Record, error) {
	var r Record
	if len(p) < 2 {
		return r, errors.New("short payload")
	}
	if p[0] != recordVersion {
		return r, fmt.Errorf("unknown record version %d", p[0])
	}
	r.Kind = Kind(p[1])
	if r.Kind != KindInstall && r.Kind != KindUninstall && r.Kind != KindRetrofit {
		return r, fmt.Errorf("unknown record kind %d", p[1])
	}
	p = p[2:]
	seq, n := binary.Uvarint(p)
	if n <= 0 {
		return r, errors.New("bad seq varint")
	}
	r.Seq = seq
	p = p[n:]
	olen, n := binary.Uvarint(p)
	if n <= 0 || olen > uint64(len(p)-n) {
		return r, errors.New("bad owner length")
	}
	p = p[n:]
	r.Owner = string(p[:olen])
	p = p[olen:]
	blen, n := binary.Uvarint(p)
	if n <= 0 || blen != uint64(len(p)-n) {
		return r, errors.New("bad binary length")
	}
	r.Binary = append([]byte(nil), p[n:]...)
	return r, nil
}

// FrameRecord encodes one record as a complete frame (header +
// payload), ready to append to a journal.
func FrameRecord(r Record) []byte {
	payload := EncodePayload(r)
	buf := make([]byte, frameHeader, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], Checksum(payload))
	return append(buf, payload...)
}

// Frame locates one frame inside a raw journal or snapshot image:
// byte offsets of the frame and its payload view, plus the checksum
// verdict. Exported for the fault-injection harness, which mutates
// journals at the byte level.
type Frame struct {
	Off        int // frame start (length field)
	PayloadOff int
	End        int // one past the frame's last byte
	Payload    []byte
	CRCOK      bool
}

// ScanJournal parses a raw journal image (including its magic header)
// into frames. torn reports an incomplete final frame. An image whose
// magic is wrong fails — nothing after an unrecognized header can be
// trusted to be frame-aligned.
func ScanJournal(data []byte) (frames []Frame, torn bool, err error) {
	if len(data) < len(journalMagic) {
		return nil, true, nil
	}
	if [8]byte(data[:8]) != journalMagic {
		return nil, false, errors.New("store: bad journal magic")
	}
	frames, torn = scanFrames(data, len(journalMagic))
	return frames, torn, nil
}

// scanFrames walks frames from off to the end of data. It stops (torn)
// at a frame whose header or payload runs past the buffer or whose
// declared length is implausible — beyond that point frame alignment
// is unrecoverable.
func scanFrames(data []byte, off int) (frames []Frame, torn bool) {
	for off < len(data) {
		if len(data)-off < frameHeader {
			return frames, true
		}
		ln := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if ln <= 0 || ln > maxRecordBytes || off+frameHeader+ln > len(data) {
			return frames, true
		}
		want := binary.LittleEndian.Uint32(data[off+4 : off+8])
		payload := data[off+frameHeader : off+frameHeader+ln]
		frames = append(frames, Frame{
			Off:        off,
			PayloadOff: off + frameHeader,
			End:        off + frameHeader + ln,
			Payload:    payload,
			CRCOK:      Checksum(payload) == want,
		})
		off += frameHeader + ln
	}
	return frames, false
}

// TamperBinaryByte flips one bit of the stored binary inside the
// index-th decodable journal frame and recomputes the frame checksum,
// then rewrites the journal in place. The result passes framing — the
// corruption is only detectable by re-validating the proof, which is
// the point: it models a hostile or bit-rotted disk whose controller
// happily re-frames what it serves. at is an offset from the END of
// the binary (0 = last byte, deep in the proof section of a PCC
// binary). Returns the owner whose record was tampered.
func TamperBinaryByte(dir string, index, at int) (string, error) {
	jpath := filepath.Join(dir, JournalName)
	data, err := os.ReadFile(jpath)
	if err != nil {
		return "", fmt.Errorf("store: tamper: %w", err)
	}
	frames, _, err := ScanJournal(data)
	if err != nil {
		return "", err
	}
	seen := 0
	for _, fr := range frames {
		if !fr.CRCOK {
			continue
		}
		rec, derr := DecodePayload(fr.Payload)
		if derr != nil || rec.Kind != KindInstall || len(rec.Binary) == 0 {
			continue
		}
		if seen != index {
			seen++
			continue
		}
		// The binary occupies the payload's tail; flip a bit at `at`
		// bytes from its end, then forge the checksum over the mutated
		// payload.
		if at < 0 || at >= len(rec.Binary) {
			at = 0
		}
		pos := fr.End - 1 - at
		data[pos] ^= 0x01
		binary.LittleEndian.PutUint32(data[fr.Off+4:fr.Off+8], Checksum(data[fr.PayloadOff:fr.End]))
		if err := os.WriteFile(jpath, data, 0o644); err != nil {
			return "", fmt.Errorf("store: tamper: %w", err)
		}
		return rec.Owner, nil
	}
	return "", fmt.Errorf("store: tamper: no install record at index %d", index)
}
