// Package fsstore is the file-backed stable-storage implementation used
// by the real-network runtime (internal/transport, cmd/ocsmld): finalized
// checkpoints C_{i,k} actually reach a disk, with the durability ordering
// the paper's recovery argument needs.
//
// Layout, one directory per process under a shared data directory:
//
//	<datadir>/p<id>/seg_000001.wal     segmented append-only log: the only durable artefact
//
// The segment log alone says what is durable. It holds two kinds of
// CRC-framed binary record: a full record (one checkpoint's state plus
// its selective message log, self-contained, in internal/wire's record
// encoding) binds its sequence number, and a truncation record unbinds
// every sequence number above its line (a rollback). Segments of the
// previous format, which framed JSON records, and segments whose header
// names another process make Open fail, untouched. A commit —
// FinalizeBatch or TruncateAfter — appends its frames to the active
// segment, cuts the file to end at them and issues ONE fsync; that sync
// is the commit, and nothing else is written. Open replays the segment
// files present, in order, each up to its first frame that does not
// verify, and so arrives at exactly the acknowledged history (plus, at
// most, a commit that was durable but interrupted before it was
// acknowledged).
//
// Every other reader is served from memory or from the log. The owner's
// manifest (Store.Manifest) is in memory and only an acknowledged commit
// moves it; the GC floor lives there too, so a later Open may serve again
// collected records whose segment survived — more than was asked for,
// never less. A directory in which a build before this one published a
// MANIFEST.json hint opens like any other: the hint, and any temp file of
// it, is ignored and left in place.
//
// The manifest of every process, intersected, yields the last finalized
// global checkpoint S_k on disk; the recovery handshake
// (internal/handshake) agrees on it as the line and
// transport.ResumeProtocol restarts a process from it, and GCTo
// garbage-collects everything below the line the processes report to each
// other. A running cluster learns that line from its peers' reports, not
// from a directory. CompleteSeqs and LastCompleteSeq remain for the
// benchmark's checks, which poll a live datadir: they scan the segment
// files read-only under the binding rule Open replays by.
package fsstore

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"ocsml/internal/checkpoint"
	"ocsml/internal/metrics"
	"ocsml/internal/wire"
)

// SegmentMeta records one segment file's extent: Size is the byte length
// the last commit left the file at, and the offset the next one appends
// at (in a manifest read from the log: the length of its verified frames).
type SegmentMeta struct {
	Index int   `json:"index"`
	Size  int64 `json:"size"`
}

// Manifest records what a process has durably finalized: the store's
// in-memory view, or what a read-only scan of the log finds
// (CompleteSeqs).
type Manifest struct {
	// Proc is the owning process id.
	Proc int `json:"proc"`
	// N is the cluster size the process was configured with. The log does
	// not record it: a manifest read from the log leaves it zero.
	N int `json:"n"`
	// Seqs lists every finalized checkpoint sequence number on disk,
	// strictly ascending (gap-free from the first entry under OCSML; a
	// rebuild over a damaged log can leave gaps).
	Seqs []int `json:"seqs"`
	// Segments lists the segmented log's files and their durable byte
	// lengths, ascending by index; the last entry is the active segment.
	Segments []SegmentMeta `json:"segments,omitempty"`
}

// LastSeq returns the highest finalized sequence number, or -1.
func (m *Manifest) LastSeq() int {
	if len(m.Seqs) == 0 {
		return -1
	}
	return m.Seqs[len(m.Seqs)-1]
}

// Options tunes the durability engine. The zero value selects the
// default.
type Options struct {
	// SegmentMaxBytes rotates the active segment once its durable size
	// reaches this bound (default 4 MiB).
	SegmentMaxBytes int64
}

// DefaultOptions returns the engine defaults.
func DefaultOptions() Options {
	return Options{SegmentMaxBytes: 4 << 20}
}

func (o Options) withDefaults() Options {
	if o.SegmentMaxBytes <= 0 {
		o.SegmentMaxBytes = DefaultOptions().SegmentMaxBytes
	}
	return o
}

// Store is one process's stable-storage directory. Methods are safe
// for concurrent use; the real-network runtime calls them from its node's
// storage goroutine (finalize, truncate on a rollback, and GCTo below the
// watermark the node's peers report to it) and polls them from elsewhere.
type Store struct {
	mu   sync.Mutex
	dir  string
	proc int
	n    int
	opts Options

	// guarded by mu
	man Manifest
	// index locates every manifested checkpoint in the segmented log.
	index map[int]recLoc
	// frames is the batch buffer commits encode their frames into, kept
	// from one commit to the next so a commit allocates nothing for them.
	frames []byte
	// fault, when set, is consulted before every call that changes the
	// directory (see SetFaultHook). Nil in production.
	fault func(op, path string) error
	// metrics, when set, receives this store's durability instruments.
	metrics *StoreMetrics
}

// StoreMetrics are one store's registry-backed durability instruments.
type StoreMetrics struct {
	Finalizes      *metrics.Counter
	FinalizeErrors *metrics.Counter
	Fsyncs         *metrics.Counter
	BytesWritten   *metrics.Counter
	GCRemoved      *metrics.Counter
}

// NewStoreMetrics registers the fsstore instrument families in reg and
// returns the series for one process.
func NewStoreMetrics(reg *metrics.Registry, proc int) *StoreMetrics {
	p := strconv.Itoa(proc)
	return &StoreMetrics{
		Finalizes: reg.MustCounterVec("ocsml_fsstore_finalized_total",
			"Checkpoints durably finalized (segment append synced).", "proc").With(p),
		FinalizeErrors: reg.MustCounterVec("ocsml_fsstore_finalize_errors_total",
			"Finalize attempts that failed before the commit was acknowledged.", "proc").With(p),
		Fsyncs: reg.MustCounterVec("ocsml_fsstore_fsyncs_total",
			"File and directory fsync syscalls issued by the durability protocol.", "proc").With(p),
		BytesWritten: reg.MustCounterVec("ocsml_fsstore_bytes_written_total",
			"Bytes handed to stable storage (segment headers and frames).", "proc").With(p),
		GCRemoved: reg.MustCounterVec("ocsml_fsstore_gc_removed_total",
			"Checkpoint records garbage-collected below the global S_k watermark.", "proc").With(p),
	}
}

// SetMetrics installs (or, with nil, removes) the store's instruments.
// Call right after Open, before the store sees traffic.
func (s *Store) SetMetrics(m *StoreMetrics) {
	s.mu.Lock()
	s.metrics = m
	s.mu.Unlock()
}

// noteWriteLocked accounts one completed write. Caller holds mu.
func (s *Store) noteWriteLocked(bytes, fsyncs int64) {
	if m := s.metrics; m != nil {
		m.Fsyncs.Add(fsyncs)
		m.BytesWritten.Add(bytes)
	}
}

// SetFaultHook installs (or, with nil, removes) the package's one test
// seam: fn is consulted, under the store's mutex, immediately before
// every file-system call that changes the directory — op is one of
// "mkdir", "create", "write", "truncate", "sync", "syncdir", "remove",
// path the file or directory the call names. A non-nil return
// stands for that call failing without having happened: the call is
// skipped and the error takes the path the call's own error would. Tests
// use it to execute every durability error path (TestEveryFaultSurfaces).
func (s *Store) SetFaultHook(fn func(op, path string) error) {
	s.mu.Lock()
	s.fault = fn
	s.mu.Unlock()
}

// doLocked makes one call that changes the directory, unless the fault
// hook fails it first. Every such call in the package goes through here,
// so an injected error and a real one leave by the same return.
func (s *Store) doLocked(op, path string, call func() error) error {
	if s.fault != nil {
		if err := s.fault(op, path); err != nil {
			return err
		}
	}
	return call()
}

// ProcDir returns the directory a process's store lives in.
func ProcDir(datadir string, proc int) string {
	return filepath.Join(datadir, fmt.Sprintf("p%d", proc))
}

// Open opens (or reopens) the store for one process with default
// Options. The segment log is replayed, so a restarted process sees what
// it had finalized before the crash. The directory is created by the
// store's first commit, not here.
func Open(datadir string, proc, n int) (*Store, error) {
	return OpenWith(datadir, proc, n, DefaultOptions())
}

// OpenWith is Open with explicit engine Options.
//
// Open is also the crash-recovery entry point. It derives the manifest
// from one in-order scan of the segment files present under the binding
// rule (bind): a full frame binds its seq, a truncation frame or a lower
// full frame unbinds every seq above its own, and the first frame that
// fails to verify ends the scan of its segment. Then the debris goes:
// segment tails beyond the last verifying frame (cut and synced) and
// segment files the scan found nothing valid in. Three things are none of
// those, and Open refuses the directory with an error, repairing nothing:
// a CRC-valid frame of a kind this build does not read, a segment of the
// previous format, and a segment whose header names another process (a
// log moved into the wrong directory). Files that are not segments are
// not read and not touched.
func OpenWith(datadir string, proc, n int, opts Options) (*Store, error) {
	return openWith(datadir, proc, n, opts, nil)
}

// openWith is OpenWith with the fault hook already installed, so a test
// can fail the calls Open itself makes.
func openWith(datadir string, proc, n int, opts Options, fault func(op, path string) error) (*Store, error) {
	if proc < 0 || n < 2 || proc >= n {
		return nil, fmt.Errorf("fsstore: invalid proc %d of %d", proc, n)
	}
	s := &Store{
		dir: ProcDir(datadir, proc), proc: proc, n: n, opts: opts.withDefaults(),
		man:   Manifest{Proc: proc, N: n},
		index: map[int]recLoc{},
		fault: fault,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.replayLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// logScan is what one read of a process's segment files, in index order,
// finds besides the frames themselves.
type logScan struct {
	segs   []SegmentMeta // the files holding a verified frame, with its verified length
	debris []int         // the indexes of the files holding none
}

// openSegment opens a segment file for a scan. A variable so that a test
// can fail a read partway through a file.
var openSegment = func(path string) (io.ReadCloser, error) { return os.Open(path) }

// scanLog reads the log of proc in dir, handing each verified frame to
// each in log order, and changes nothing: no directory is created and no
// file is cut, removed or synced. A missing directory is an empty log,
// and a segment unlinked since the listing (a GC running beside the scan)
// is skipped. Every file streams through r, so what a scan allocates does
// not grow with the log.
func scanLog(dir string, proc int, r *bufio.Reader, each func(scannedFrame)) (logScan, error) {
	var ls logScan
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return ls, nil
	}
	if err != nil {
		return ls, err
	}
	var idxs []int
	for _, e := range entries {
		if idx, ok := parseSegmentName(e.Name()); ok {
			idxs = append(idxs, idx)
		}
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		path := SegmentFile(dir, idx)
		f, err := openSegment(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return ls, err
		}
		valid, err := scanSegment(r, f, path, proc, idx, each)
		f.Close()
		if err != nil {
			return ls, err
		}
		if valid > int64(segHeaderSize) {
			ls.segs = append(ls.segs, SegmentMeta{Index: idx, Size: valid})
		} else {
			// Torn header, a copy of another segment, or no whole frame:
			// nothing the file holds was ever acknowledged.
			ls.debris = append(ls.debris, idx)
		}
	}
	return ls, nil
}

// replayLocked is Open's loader: scan every segment file into the
// manifest and the seq -> location index, then repair the directory.
// Every segment scans before anything is repaired, so a refused
// directory is left exactly as found.
func (s *Store) replayLocked() error {
	locs := map[int]recLoc{} // each seq's last full frame
	ls, err := scanLog(s.dir, s.proc, bufio.NewReader(nil), func(fr scannedFrame) {
		s.man.Seqs = bind(s.man.Seqs, fr)
		if fr.kind == kindFull {
			locs[fr.seq] = fr.loc
		}
	})
	if err != nil {
		return err
	}
	s.man.Segments = ls.segs
	for _, q := range s.man.Seqs {
		s.index[q] = locs[q]
	}
	for _, meta := range s.man.Segments {
		if err := s.truncateTailLocked(SegmentFile(s.dir, meta.Index), meta.Size); err != nil {
			return err
		}
	}
	for _, idx := range ls.debris {
		path := SegmentFile(s.dir, idx)
		err := s.doLocked("remove", path, func() error { return os.Remove(path) })
		if err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// truncateTailLocked cuts a segment file back to its durable size and
// syncs the truncation, so garbage from an interrupted batch cannot
// linger.
func (s *Store) truncateTailLocked(path string, size int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if fi.Size() <= size {
		return nil
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := s.doLocked("truncate", path, func() error { return f.Truncate(size) }); err != nil {
		f.Close()
		return err
	}
	if err := s.doLocked("sync", path, f.Sync); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Dir returns the process's storage directory.
func (s *Store) Dir() string { return s.dir }

// Manifest returns a copy of the current manifest.
func (s *Store) Manifest() Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.man
	m.Seqs = append([]int(nil), s.man.Seqs...)
	m.Segments = append([]SegmentMeta(nil), s.man.Segments...)
	return m
}

// LastSeq returns the highest durably finalized sequence number, or -1.
func (s *Store) LastSeq() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.LastSeq()
}

func (s *Store) syncDirLocked() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return s.doLocked("syncdir", s.dir, d.Sync)
}

// Finalize durably persists one finalized checkpoint: FinalizeBatch of
// one.
func (s *Store) Finalize(rec checkpoint.Record) error {
	_, err := s.FinalizeBatch([]checkpoint.Record{rec})
	return err
}

// FinalizeBatch is the commit path: it persists recs (this process's
// records, seqs ascending and above LastSeq) as one group commit — every
// frame appended to the active segment under a single file fsync — and
// returns how long a prefix committed. The first record that fails
// validation stops the batch: the records before it commit, it and every
// record behind it do not (committing past it would gap the manifest),
// and err is that first failure. A failed segment write commits nothing
// in memory, and the appended bytes sit beyond the durable size for the
// next commit to overwrite; frames that did reach disk may be re-admitted
// by a later Open.
func (s *Store) FinalizeBatch(recs []checkpoint.Record) (committed int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	committed, err = s.commitLocked(recs)
	if m := s.metrics; m != nil {
		m.Finalizes.Add(int64(committed))
		if err != nil {
			m.FinalizeErrors.Inc()
		}
	}
	return committed, err
}

// commitLocked is FinalizeBatch under mu: validate and encode the
// committable prefix, then one segment append.
func (s *Store) commitLocked(recs []checkpoint.Record) (int, error) {
	var (
		buf     = s.frames[:0]
		ends    []int // ends[i]: where recs[i]'s frame ends in buf
		stopErr error
	)
	tail := s.man.LastSeq()
	for i := range recs {
		rec := &recs[i]
		switch {
		case rec.Proc != s.proc:
			stopErr = fmt.Errorf("fsstore: record for P%d written to store of P%d", rec.Proc, s.proc)
		case rec.Seq <= tail:
			stopErr = fmt.Errorf("fsstore: P%d finalize seq %d not above last accepted %d", s.proc, rec.Seq, tail)
		}
		if stopErr != nil {
			break
		}
		buf = appendFullFrame(buf, rec)
		ends = append(ends, len(buf))
		tail = rec.Seq
	}
	s.frames = buf
	if len(ends) == 0 {
		return 0, stopErr
	}
	off, err := s.appendLocked(buf)
	if err != nil {
		return 0, err
	}
	seg, start := s.man.Segments[len(s.man.Segments)-1].Index, 0
	for i, end := range ends {
		s.man.Seqs = append(s.man.Seqs, recs[i].Seq)
		s.index[recs[i].Seq] = recLoc{seg: seg, off: off + int64(start), size: int64(end - start)}
		start = end
	}
	return len(ends), stopErr
}

// appendLocked is the durability point of every commit: frames go to
// the active segment — or, once that has reached SegmentMaxBytes, to a
// fresh one behind its header — under ONE file fsync (plus the directory
// sync that makes a fresh segment's name durable; the store's first
// segment also creates the directory). Only once that has succeeded does
// the in-memory segment list take the append, and appendLocked returns
// the file offset frames landed at.
func (s *Store) appendLocked(frames []byte) (off int64, err error) {
	segs := s.man.Segments
	newSeg := len(segs) == 0 || segs[len(segs)-1].Size >= s.opts.SegmentMaxBytes
	var active SegmentMeta
	buf := frames
	switch {
	case !newSeg:
		active = segs[len(segs)-1]
	case len(segs) == 0:
		if err := s.doLocked("mkdir", s.dir, func() error { return os.MkdirAll(s.dir, 0o755) }); err != nil {
			return 0, err
		}
		active.Index = 1
	default:
		active.Index = segs[len(segs)-1].Index + 1
	}
	if newSeg {
		buf = append(segmentHeader(s.proc, active.Index), frames...)
	}
	if err := s.writeSegmentLocked(SegmentFile(s.dir, active.Index), buf, active.Size); err != nil {
		return 0, err
	}
	s.noteWriteLocked(int64(len(buf)), 1)
	if newSeg {
		if err := s.syncDirLocked(); err != nil {
			return 0, err
		}
		s.noteWriteLocked(0, 1)
	}
	active.Size += int64(len(buf))
	if newSeg {
		s.man.Segments = append(segs, active)
	} else {
		segs[len(segs)-1] = active
	}
	return active.Size - int64(len(frames)), nil
}

// writeSegmentLocked writes buf at off, ends the file there and fsyncs it —
// the single durability point of a commit. The cut matters because Open
// scans to the first frame that fails to verify: frames an earlier,
// longer attempt left beyond off (its sync or its publication failed)
// must not verify behind this batch.
func (s *Store) writeSegmentLocked(path string, buf []byte, off int64) error {
	var f *os.File
	err := s.doLocked("create", path, func() (err error) {
		f, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
		return err
	})
	if err != nil {
		return err
	}
	if err := s.doLocked("write", path, func() error { _, err := f.WriteAt(buf, off); return err }); err != nil {
		f.Close()
		return err
	}
	if err := s.doLocked("truncate", path, func() error { return f.Truncate(off + int64(len(buf))) }); err != nil {
		f.Close()
		return err
	}
	if err := s.doLocked("sync", path, f.Sync); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads one finalized checkpoint back from disk.
func (s *Store) Load(seq int) (checkpoint.Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadLocked(seq)
}

// LoadAll reads every manifested checkpoint back from disk, ascending
// by sequence number — what a restart reloads.
func (s *Store) LoadAll() ([]checkpoint.Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := make([]checkpoint.Record, 0, len(s.man.Seqs))
	for _, seq := range s.man.Seqs {
		rec, err := s.loadLocked(seq)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

func (s *Store) loadLocked(seq int) (checkpoint.Record, error) {
	loc, ok := s.index[seq]
	if !ok {
		return checkpoint.Record{}, fmt.Errorf("fsstore: P%d seq %d is in no segment", s.proc, seq)
	}
	payload, err := s.readFrame(loc)
	if err != nil {
		return checkpoint.Record{}, err
	}
	kind, q, body, ok := parseFrame(payload)
	if !ok || kind != kindFull || q != seq {
		return checkpoint.Record{}, fmt.Errorf("fsstore: P%d index points seq %d at segment %d offset %d, which holds no full record of it",
			s.proc, seq, loc.seg, loc.off)
	}
	rec, err := wire.DecodeRecord(body)
	if err == nil && rec.Seq != seq {
		err = fmt.Errorf("the frame of seq %d holds the record of seq %d", seq, rec.Seq)
	}
	if err != nil {
		return checkpoint.Record{}, fmt.Errorf("fsstore: P%d seq %d, segment %d offset %d: %w", s.proc, seq, loc.seg, loc.off, err)
	}
	return rec, nil
}

// TruncateAfter removes finalized checkpoints with Seq > seq — a
// cluster-wide rollback discards checkpoints above the recovery line so
// the restarted run can legitimately re-produce those sequence numbers.
// The rollback is a commit like any other: a truncation frame carrying
// the line is appended and synced, so no later Open serves a dropped seq.
// The dropped frames stay in place (reclaimed by GCTo; a re-finalized
// seq's newer frame wins over them). If the call fails after its frame
// reached disk, a later Open may still apply the rollback that was asked
// for.
func (s *Store) TruncateAfter(seq int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	keep := sort.SearchInts(s.man.Seqs, seq+1)
	if keep == len(s.man.Seqs) {
		return nil
	}
	s.frames = appendTruncateFrame(s.frames[:0], seq)
	if _, err := s.appendLocked(s.frames); err != nil {
		return err
	}
	for _, q := range s.man.Seqs[keep:] {
		delete(s.index, q)
	}
	s.man.Seqs = s.man.Seqs[:keep]
	return nil
}

// GCTo garbage-collects checkpoints below the globally finalized
// watermark wm (the last complete S_k across all manifests): records
// with Seq < wm leave the manifest and the leading segments no live
// record is left in are unlinked. Seqs the store never had — or a
// watermark it does not hold — make GCTo a no-op, so callers may poll
// with whatever line the manifests intersect to.
//
// The floor lives in memory alone, and GCTo does no I/O unless it unlinks
// a segment (then one directory fsync, counted). A later Open serves the
// collected records whose segment survived again: more than was asked
// for, never less, and never a rolled-back record, because the truncation
// frame that covers one outlives it (see below).
func (s *Store) GCTo(wm int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	first := sort.SearchInts(s.man.Seqs, wm)
	if wm <= 0 || first == 0 || first == len(s.man.Seqs) || s.man.Seqs[first] != wm {
		return nil
	}
	drop := s.man.Seqs[:first]
	// Only leading segments may go, and never the last (active) one: a
	// truncation frame unbinds seqs in every segment before its own, so
	// removing a segment from the middle could resurrect a rolled-back
	// record at the next Open.
	live := map[int]bool{}
	for _, q := range s.man.Seqs[first:] {
		live[s.index[q].seg] = true
	}
	dead := 0
	for dead < len(s.man.Segments)-1 && !live[s.man.Segments[dead].Index] {
		dead++
	}
	deadSegs := s.man.Segments[:dead]
	for _, q := range drop {
		delete(s.index, q)
	}
	s.man.Seqs, s.man.Segments = s.man.Seqs[first:], s.man.Segments[dead:]
	if m := s.metrics; m != nil {
		m.GCRemoved.Add(int64(len(drop)))
	}
	// The segments go oldest first, so what a crash mid-removal leaves is
	// still a suffix of the log, which is all Open needs.
	unlinked := false
	for _, meta := range deadSegs {
		// Best-effort: the manifest no longer references this segment, and
		// a later Open or GCTo finds a file this leaves.
		path := SegmentFile(s.dir, meta.Index)
		if s.doLocked("remove", path, func() error { return os.Remove(path) }) == nil {
			unlinked = true
		}
	}
	if !unlinked {
		return nil
	}
	if err := s.syncDirLocked(); err != nil {
		return err
	}
	s.noteWriteLocked(0, 1)
	return nil
}

// readManifest reads a process's manifest from its segment log through r
// without opening the store: a read-only scan (scanLog) under the binding
// rule Open replays by (no directory creation, no repair), safe against a
// live writer. A missing directory or log yields an empty manifest. The
// scan reads what the files hold when it reaches them, so it can see a
// frame whose fsync has not returned: it suits pollers, and nothing that
// deletes data may rely on it. N is left zero, since the log does not
// record it.
func readManifest(datadir string, proc int, r *bufio.Reader) (Manifest, error) {
	var seqs []int
	ls, err := scanLog(ProcDir(datadir, proc), proc, r, func(fr scannedFrame) { seqs = bind(seqs, fr) })
	if err != nil {
		return Manifest{}, err
	}
	return Manifest{Proc: proc, Seqs: seqs, Segments: ls.segs}, nil
}

// LastCompleteSeq intersects the manifests of all n processes and returns
// the highest sequence number every process has finalized — the last
// global checkpoint S_k on disk — or -1 if none exists. It reads through
// readManifest, so polling a live datadir is safe, and nothing that
// deletes data may rely on it.
func LastCompleteSeq(datadir string, n int) (int, error) {
	seqs, err := CompleteSeqs(datadir, n)
	if err != nil {
		return -1, err
	}
	if len(seqs) == 0 {
		return -1, nil
	}
	return seqs[len(seqs)-1], nil
}

// CompleteSeqs returns every sequence number present in all n manifests,
// ascending — the global checkpoints S_k the datadir holds. It reads
// through readManifest, so polling a live datadir is safe, and nothing
// that deletes data may rely on it.
func CompleteSeqs(datadir string, n int) ([]int, error) {
	r := bufio.NewReader(nil)
	var all []int
	for p := 0; p < n; p++ {
		m, err := readManifest(datadir, p, r)
		if err != nil {
			return nil, err
		}
		if p == 0 {
			all = m.Seqs
		} else {
			all = IntersectSeqs(all, m.Seqs)
		}
	}
	if len(all) == 0 {
		return nil, nil
	}
	return all, nil
}

// IntersectSeqs keeps the seqs of a that b holds too and returns them, in
// a's own storage (a is overwritten). Both must ascend strictly, as every
// Manifest.Seqs does; the merge allocates nothing.
func IntersectSeqs(a, b []int) []int {
	k, j := 0, 0
	for _, q := range a {
		for j < len(b) && b[j] < q {
			j++
		}
		if j < len(b) && b[j] == q {
			a[k] = q
			k++
		}
	}
	return a[:k]
}
