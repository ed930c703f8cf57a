// Package fsstore is the file-backed stable-storage implementation used
// by the real-network runtime (internal/transport, cmd/ocsmld): finalized
// checkpoints C_{i,k} actually reach a disk, with the durability ordering
// the paper's recovery argument needs.
//
// Layout, one directory per process under a shared data directory:
//
//	<datadir>/p<id>/seg_000001.wal     segmented append-only log: the durable truth
//	<datadir>/p<id>/MANIFEST.json      published hint: finalized seqs as runs + segment sizes
//
// The segment log alone says what is durable. It holds two kinds of
// CRC-framed binary record: a full record (one checkpoint's state plus
// its selective message log, self-contained, in internal/wire's record
// encoding) binds its sequence number, and a truncation record unbinds
// every sequence number above its line (a rollback). Segments of the
// previous format, which framed JSON records, make Open fail, untouched.
// A commit — FinalizeBatch or TruncateAfter — appends its
// frames to the active segment, cuts the file to end at them and issues
// ONE fsync; that sync is the commit. Open replays the segment files
// present, in order, each up to its first frame that does not verify,
// and so arrives at exactly the acknowledged history (plus, at most, a
// commit that was durable but interrupted before it was acknowledged).
//
// MANIFEST.json is what pollers of a live datadir read (ReadManifest,
// CompleteSeqs, LastCompleteSeq): after the sync, every commit rewrites
// it by temp file + rename with no sync of its own, so it names a
// sequence number only once that number's frame is durable, and is
// visible before the commit returns. It lists the finalized sequence
// numbers as closed runs [first, last] — one run under OCSML, more only
// after a rebuild over a damaged log left a gap — so what a commit
// writes there does not grow with the checkpoints already taken. It is
// a hint, not a commit record: a crash may leave an older version of it,
// an empty file or none, and Open then loses nothing; the same goes for
// a file of another shape (a build that listed every seq wrote "seqs").
// Open takes two things from it that the log does not carry: the owner
// check, and the GC floor (the first run's start), below which frames in
// the part of the log the hint had seen stay collected.
//
// The manifest of every process, intersected (Intersect,
// LastCompleteSeq), yields the last finalized global checkpoint S_k on
// disk; the recovery handshake (internal/handshake) agrees on it as the
// line and transport.ResumeProtocol restarts a process from it, and GCTo
// garbage-collects everything below that watermark.
package fsstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ocsml/internal/checkpoint"
	"ocsml/internal/handshake"
	"ocsml/internal/metrics"
	"ocsml/internal/wire"
)

// SegmentMeta records one segment file's durable extent: Size is the
// byte length the last commit left the file at, and the offset the next
// one appends at.
type SegmentMeta struct {
	Index int   `json:"index"`
	Size  int64 `json:"size"`
}

// Manifest records what a process has durably finalized: the store's
// in-memory view and the admin API's response body. MANIFEST.json holds
// the same thing with Seqs folded into runs (hintFile).
type Manifest struct {
	// Proc is the owning process id.
	Proc int `json:"proc"`
	// N is the cluster size the process was configured with.
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
// for concurrent use (the real-network runtime finalizes from a storage
// goroutine while a rollback may truncate from the protocol loop, and
// the cluster's GC loop prunes below the global watermark).
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
			"Checkpoints durably finalized (segment append synced, hint published).", "proc").With(p),
		FinalizeErrors: reg.MustCounterVec("ocsml_fsstore_finalize_errors_total",
			"Finalize attempts that failed before the commit was acknowledged.", "proc").With(p),
		Fsyncs: reg.MustCounterVec("ocsml_fsstore_fsyncs_total",
			"File and directory fsync syscalls issued by the durability protocol.", "proc").With(p),
		BytesWritten: reg.MustCounterVec("ocsml_fsstore_bytes_written_total",
			"Bytes handed to stable storage (segments, checkpoint states, manifests).", "proc").With(p),
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
// "mkdir", "create", "write", "truncate", "sync", "syncdir", "rename",
// "remove", path the file or directory the call names. A non-nil return
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

// Open creates (or reopens) the store for one process with default
// Options. The segment log is replayed, so a restarted process sees what
// it had finalized before the crash.
func Open(datadir string, proc, n int) (*Store, error) {
	return OpenWith(datadir, proc, n, DefaultOptions())
}

// OpenWith is Open with explicit engine Options.
//
// Open is also the crash-recovery entry point. It derives the manifest
// from one in-order scan of the segment files present: a full frame
// binds (or re-binds) its seq, a truncation frame unbinds every seq
// above its line (as does a full frame above its own seq, since a
// commit only extends the last one), and the first frame that fails to
// verify ends the scan of its segment. MANIFEST.json, when it parses,
// adds the owner check and the GC floor (for the part of the log it had
// seen); torn, empty or missing it adds nothing and costs nothing. Then
// the debris goes: temp files of an interrupted hint publication,
// segment tails beyond the last verifying frame (cut and synced) and
// segment files the scan found nothing valid in, and the hint is
// republished if it differs from the log. A CRC-valid frame of a kind
// this build does not read is none of those: Open refuses the directory
// with an error and repairs nothing in it.
func OpenWith(datadir string, proc, n int, opts Options) (*Store, error) {
	return openWith(datadir, proc, n, opts, nil)
}

// openWith is OpenWith with the fault hook already installed, so a test
// can fail the calls Open itself makes.
func openWith(datadir string, proc, n int, opts Options, fault func(op, path string) error) (*Store, error) {
	if proc < 0 || n < 2 || proc >= n {
		return nil, fmt.Errorf("fsstore: invalid proc %d of %d", proc, n)
	}
	dir := ProcDir(datadir, proc)
	s := &Store{
		dir: dir, proc: proc, n: n, opts: opts.withDefaults(),
		man:   Manifest{Proc: proc, N: n},
		index: map[int]recLoc{},
		fault: fault,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.doLocked("mkdir", dir, func() error { return os.MkdirAll(dir, 0o755) }); err != nil {
		return nil, err
	}
	hint, err := os.ReadFile(filepath.Join(dir, hintName))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	// A hint that does not decode — torn, empty, absent, or written by a
	// build that listed "seqs" — says nothing. One that does is never
	// expanded: Open takes the owner, the GC floor (the first run's start)
	// and how far into the log the hint had seen (its last segment entry).
	floor, seen := 0, SegmentMeta{}
	if old, err := decodeHint(hint); err == nil {
		if old.Proc != proc {
			return nil, fmt.Errorf("fsstore: manifest in %s belongs to P%d, not P%d", dir, old.Proc, proc)
		}
		if len(old.Runs) > 0 && len(old.Segments) > 0 {
			floor, seen = old.Runs[0][0], old.Segments[len(old.Segments)-1]
		}
	}
	if err := s.replayLocked(floor, seen, hint); err != nil {
		return nil, err
	}
	return s, nil
}

// replayLocked is Open's loader: scan every segment file in index order
// into the manifest and the seq -> location index, drop what the hint
// says GC had collected (seqs below floor, in the log up to seen), then
// repair the directory and republish the hint unless its bytes, hint,
// already say what the log does. Every segment scans before anything is
// repaired, so a refused directory is left exactly as found.
func (s *Store) replayLocked(floor int, seen SegmentMeta, hint []byte) error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	var segIdxs []int
	var debris []string
	for _, e := range entries {
		if idx, ok := parseSegmentName(e.Name()); ok {
			segIdxs = append(segIdxs, idx)
		} else if !e.IsDir() && strings.HasPrefix(e.Name(), ".tmp-") {
			debris = append(debris, filepath.Join(s.dir, e.Name())) // an interrupted hint publication
		}
	}
	sort.Ints(segIdxs)
	// The hint's GC floor covers the log as far as the hint had seen it: a
	// frame committed after an older hint was published is not below that
	// hint's floor.
	collect := func() {
		for q := range s.index {
			if q < floor {
				delete(s.index, q)
			}
		}
		floor = 0
	}
	last := -1 // no seq above it is bound
	for _, idx := range segIdxs {
		frames, valid, err := scanSegment(SegmentFile(s.dir, idx), s.proc, idx)
		if err != nil {
			return err
		}
		if len(frames) == 0 {
			// Torn header, a header naming another proc or index, or no
			// whole frame: nothing the file holds was ever acknowledged.
			debris = append(debris, SegmentFile(s.dir, idx))
			continue
		}
		s.man.Segments = append(s.man.Segments, SegmentMeta{Index: idx, Size: valid})
		for _, fr := range frames {
			if floor > 0 && (idx > seen.Index || idx == seen.Index && fr.loc.off >= seen.Size) {
				collect()
			}
			// A truncation frame unbinds what lies above its line. So does
			// a full frame: a commit only ever extends the store's last
			// seq, so whatever the log still binds above a committed seq
			// had been rolled back or collected by then.
			if fr.seq < last {
				for q := range s.index {
					if q > fr.seq {
						delete(s.index, q)
					}
				}
				last = fr.seq
			}
			if fr.kind == kindFull {
				s.index[fr.seq] = fr.loc // later occurrences win: a re-finalized seq
				last = max(last, fr.seq)
			}
		}
	}
	collect()
	for q := range s.index {
		s.man.Seqs = append(s.man.Seqs, q)
	}
	sort.Ints(s.man.Seqs)

	for _, meta := range s.man.Segments {
		if err := s.truncateTailLocked(SegmentFile(s.dir, meta.Index), meta.Size); err != nil {
			return err
		}
	}
	for _, path := range debris {
		err := s.doLocked("remove", path, func() error { return os.Remove(path) })
		if err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	if mdata := encodeHint(&s.man); !bytes.Equal(mdata, hint) {
		return s.writeHintLocked(mdata)
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

// hintName is the published hint's file name in a process directory.
const hintName = "MANIFEST.json"

// maxHintSeqs bounds how many seqs a reader expands a hint's runs into:
// the bound wire.maxRbSeqs puts on the same list in an RB_LINE.
const maxHintSeqs = 1 << 20

// hintFile is MANIFEST.json: the manifest with its seqs as closed runs
// [first, last], ascending — one run under OCSML, more only where a
// rebuild left a gap — so the file's size follows the number of gaps and
// segments, not the number of checkpoints. encodeHint and decodeHint are
// the only code that knows the shape.
type hintFile struct {
	Proc     int           `json:"proc"`
	N        int           `json:"n"`
	Runs     [][2]int      `json:"runs"`
	Segments []SegmentMeta `json:"segments,omitempty"`
}

// encodeHint renders m as the hint file's bytes.
func encodeHint(m *Manifest) []byte {
	h := hintFile{Proc: m.Proc, N: m.N, Runs: [][2]int{}, Segments: m.Segments}
	if k := len(m.Seqs); k > 0 && m.Seqs[k-1]-m.Seqs[0] == k-1 {
		// Seqs ascend strictly, so the endpoints alone say they are
		// contiguous: the common case costs nothing per seq.
		h.Runs = append(h.Runs, [2]int{m.Seqs[0], m.Seqs[k-1]})
	} else {
		for _, q := range m.Seqs {
			if last := len(h.Runs) - 1; last >= 0 && h.Runs[last][1]+1 == q {
				h.Runs[last][1] = q
			} else {
				h.Runs = append(h.Runs, [2]int{q, q})
			}
		}
	}
	data, _ := json.Marshal(&h) // a struct of ints and slices of ints: cannot fail
	return data
}

// decodeHint parses a hint file and checks its runs are well formed:
// bounds non-negative, first <= last, each run above the one before. It
// allocates in proportion to the bytes given, never to what the runs
// claim. A hint of the previous format ("seqs") decodes to one with no
// runs: it says nothing.
func decodeHint(raw []byte) (hintFile, error) {
	var h hintFile
	if err := json.Unmarshal(raw, &h); err != nil {
		return hintFile{}, err
	}
	prev := -1
	for _, run := range h.Runs {
		if run[0] <= prev || run[1] < run[0] {
			return hintFile{}, fmt.Errorf("run %v is not a non-negative [first, last] above the run before it", run)
		}
		prev = run[1]
	}
	return h, nil
}

// seqs expands the runs, refusing — before allocating — more than
// maxHintSeqs in total: a poller must not be made to allocate what a
// few bytes of hint claim.
func (h *hintFile) seqs() ([]int, error) {
	total := 0
	for _, run := range h.Runs {
		if run[1]-run[0] >= maxHintSeqs-total {
			return nil, fmt.Errorf("runs name more than %d seqs", maxHintSeqs)
		}
		total += run[1] - run[0] + 1
	}
	if total == 0 {
		return nil, nil // as a hint without seqs always read: /v1/manifest prints it
	}
	seqs := make([]int, 0, total)
	for _, run := range h.Runs {
		for q := run[0]; q <= run[1]; q++ {
			seqs = append(seqs, q)
		}
	}
	return seqs, nil
}

// writeHintLocked publishes data as MANIFEST.json by temp file + rename,
// so a poller reads the old hint or the new one and never a torn one.
// Nothing is synced, on purpose: the segment log is the durable truth,
// and Open survives whatever a crash makes of this file. The bytes still
// count as handed to stable storage.
func (s *Store) writeHintLocked(data []byte) error {
	var tmp *os.File
	err := s.doLocked("create", filepath.Join(s.dir, ".tmp-*"), func() (err error) {
		tmp, err = os.CreateTemp(s.dir, ".tmp-*")
		return err
	})
	if err != nil {
		return err
	}
	err = s.doLocked("write", tmp.Name(), func() error { _, err := tmp.Write(data); return err })
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		hint := filepath.Join(s.dir, hintName)
		err = s.doLocked("rename", hint, func() error { return os.Rename(tmp.Name(), hint) })
	}
	if err != nil {
		// Best-effort temp cleanup: the primary write error is returned,
		// and Open removes what this leaves.
		_ = s.doLocked("remove", tmp.Name(), func() error { return os.Remove(tmp.Name()) })
		return err
	}
	s.noteWriteLocked(int64(len(data)), 0)
	return nil
}

// publishLocked makes seqs and segs the manifest, in memory and in the
// published hint. The caller has already synced every frame they name.
// If the publication fails the in-memory manifest is put back, so it
// never runs ahead of what pollers can read and a retry starts from the
// same state.
func (s *Store) publishLocked(seqs []int, segs []SegmentMeta) error {
	oldSeqs, oldSegs := s.man.Seqs, s.man.Segments
	s.man.Seqs, s.man.Segments = seqs, segs
	err := s.writeHintLocked(encodeHint(&s.man))
	if err != nil {
		s.man.Seqs, s.man.Segments = oldSeqs, oldSegs
	}
	return err
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
// frame appended to the active segment under a single file fsync, then
// the hint published — and returns how long a prefix committed. The
// first record that fails validation stops the batch: the
// records before it commit, it and every record behind it do not
// (committing past it would gap the manifest), and err is that first
// failure. A failed segment write or hint publication
// commits nothing in memory, and the appended bytes sit beyond the
// durable size for the next commit to overwrite; frames that did reach
// disk may be re-admitted by a later Open.
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
// committable prefix, one segment append, one hint publication.
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
	segs, off, err := s.appendLocked(buf)
	if err != nil {
		return 0, err
	}
	seqs := s.man.Seqs
	for _, rec := range recs[:len(ends)] {
		seqs = append(seqs, rec.Seq)
	}
	if err := s.publishLocked(seqs, segs); err != nil {
		return 0, err
	}
	start := 0
	for i, end := range ends {
		s.index[recs[i].Seq] = recLoc{seg: segs[len(segs)-1].Index, off: off + int64(start), size: int64(end - start)}
		start = end
	}
	return len(ends), stopErr
}

// appendLocked is the durability point of every commit: frames go to
// the active segment — or, once that has reached SegmentMaxBytes, to a
// fresh one behind its header — under ONE file fsync (plus the directory
// sync that makes a fresh segment's name durable). It returns the
// segment list as the append leaves it and the file offset frames
// landed at; nothing in memory changes until the caller publishes.
func (s *Store) appendLocked(frames []byte) (segs []SegmentMeta, off int64, err error) {
	segs = append(segs, s.man.Segments...)
	newSeg := len(segs) == 0 || segs[len(segs)-1].Size >= s.opts.SegmentMaxBytes
	buf := frames
	if newSeg {
		next := 1
		if len(segs) > 0 {
			next = segs[len(segs)-1].Index + 1
		}
		segs = append(segs, SegmentMeta{Index: next})
		buf = append(segmentHeader(s.proc, next), frames...)
	}
	active := &segs[len(segs)-1]
	if err := s.writeSegmentLocked(SegmentFile(s.dir, active.Index), buf, active.Size); err != nil {
		return nil, 0, err
	}
	s.noteWriteLocked(int64(len(buf)), 1)
	if newSeg {
		if err := s.syncDirLocked(); err != nil {
			return nil, 0, err
		}
		s.noteWriteLocked(0, 1)
	}
	active.Size += int64(len(buf))
	return segs, active.Size - int64(len(frames)), nil
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
// the line is appended and synced, then the hint is published, so no
// later Open serves a dropped seq whatever became of the hint. The
// dropped frames stay in place (reclaimed by GCTo; a re-finalized seq's
// newer frame wins over them). If the call fails after its frame reached
// disk, a later Open may still apply the rollback that was asked for.
func (s *Store) TruncateAfter(seq int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	keep := sort.SearchInts(s.man.Seqs, seq+1)
	drop := s.man.Seqs[keep:]
	if len(drop) == 0 {
		return nil
	}
	segs, _, err := s.appendLocked(appendTruncateFrame(nil, seq))
	if err != nil {
		return err
	}
	if err := s.publishLocked(s.man.Seqs[:keep], segs); err != nil {
		return err
	}
	for _, q := range drop {
		delete(s.index, q)
	}
	return nil
}

// GCTo garbage-collects checkpoints below the globally finalized
// watermark wm (the last complete S_k across all manifests): records
// with Seq < wm leave the manifest and the leading segments no live
// record is left in are unlinked. Seqs the store never had — or a
// watermark it does not hold — make GCTo a no-op, so callers may poll
// with whatever line the manifests intersect to.
//
// The floor lives in the hint alone. If a crash loses it, Open serves
// the collected records whose segment survived again: more than was
// asked for, never less, and never a rolled-back record, because the
// truncation frame that covers one outlives it (see below).
func (s *Store) GCTo(wm int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	first := sort.SearchInts(s.man.Seqs, wm)
	if wm <= 0 || first == 0 || first == len(s.man.Seqs) || s.man.Seqs[first] != wm {
		return nil
	}
	drop, keep := s.man.Seqs[:first], append([]int(nil), s.man.Seqs[first:]...)
	// Only leading segments may go, and never the last (active) one: a
	// truncation frame unbinds seqs in every segment before its own, so
	// removing a segment from the middle could resurrect a rolled-back
	// record at the next Open that finds no hint.
	live := map[int]bool{}
	for _, q := range keep {
		live[s.index[q].seg] = true
	}
	dead := 0
	for dead < len(s.man.Segments)-1 && !live[s.man.Segments[dead].Index] {
		dead++
	}
	deadSegs := s.man.Segments[:dead]

	// Hint first: pollers stop seeing the collected seqs before their
	// bytes go. The segments go oldest first, so what a crash mid-removal
	// leaves is still a suffix of the log, which is all Open needs.
	if err := s.publishLocked(keep, s.man.Segments[dead:]); err != nil {
		return err
	}
	for _, q := range drop {
		delete(s.index, q)
	}
	for _, meta := range deadSegs {
		// Best-effort: the hint no longer references this segment, and a
		// later Open or GCTo finds a file this leaves.
		path := SegmentFile(s.dir, meta.Index)
		_ = s.doLocked("remove", path, func() error { return os.Remove(path) })
	}
	if m := s.metrics; m != nil {
		m.GCRemoved.Add(int64(len(drop)))
	}
	return s.syncDirLocked()
}

// RecoverStore loads every process's finalized checkpoints from disk into
// an in-memory checkpoint store — what a recovery manager reconstructs
// after a cluster-wide failure. Processes with no directory yet contribute
// nothing (their store is empty).
func RecoverStore(datadir string, n int) (*checkpoint.Store, error) {
	cs := checkpoint.NewStore(n)
	for p := 0; p < n; p++ {
		s, err := Open(datadir, p, n)
		if err != nil {
			return nil, err
		}
		recs, err := s.LoadAll()
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			cs.Proc(p).Add(rec)
		}
	}
	return cs, nil
}

// ReadManifest reads a process's published hint without opening the
// store: no directory creation, no replay, no repair. This is the safe
// way to poll a datadir that live processes are still writing to —
// Open's sweep would delete the temp file of a publication in flight and
// fail that process's rename. A commit publishes only after its sync, so
// every seq read here is durable. A missing directory or manifest yields
// an empty manifest (the process has published nothing yet). This is the
// one place a hint's runs are expanded into Seqs: malformed runs, or runs
// naming more than maxHintSeqs seqs, are a corrupt manifest, refused
// before anything is allocated for them.
func ReadManifest(datadir string, proc int) (Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(ProcDir(datadir, proc), hintName))
	switch {
	case os.IsNotExist(err):
		return Manifest{Proc: proc}, nil
	case err != nil:
		return Manifest{}, err
	}
	h, err := decodeHint(raw)
	var seqs []int
	if err == nil {
		seqs, err = h.seqs()
	}
	if err != nil {
		return Manifest{}, fmt.Errorf("fsstore: corrupt manifest for P%d: %w", proc, err)
	}
	return Manifest{Proc: h.Proc, N: h.N, Seqs: seqs, Segments: h.Segments}, nil
}

// LastCompleteSeq intersects the manifests of all n processes and returns
// the highest sequence number every process has durably finalized — the
// last global checkpoint S_k on disk — or -1 if none exists. Reads are
// manifest-only (ReadManifest), so polling a live datadir is safe.
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
// ascending — the durable global checkpoints S_k the datadir can prove.
// Reads are manifest-only (ReadManifest), so polling a live datadir is
// safe.
func CompleteSeqs(datadir string, n int) ([]int, error) {
	groups := make([][]int, 0, n)
	for p := 0; p < n; p++ {
		m, err := ReadManifest(datadir, p)
		if err != nil {
			return nil, err
		}
		groups = append(groups, m.Seqs)
	}
	return handshake.Intersect(groups), nil
}
