// Package fsstore is the file-backed stable-storage implementation used
// by the real-network runtime (internal/transport, cmd/ocsmld): finalized
// checkpoints C_{i,k} actually reach a disk, with the durability ordering
// the paper's recovery argument needs.
//
// Layout, one directory per process under a shared data directory:
//
//	<datadir>/p<id>/seg_000001.wal     segmented append-only checkpoint log
//	<datadir>/p<id>/MANIFEST.json      finalized seqs + durable segment sizes
//
// There is one kind of record and one commit path. FinalizeBatch encodes
// every record of its batch as a self-contained CRC-framed frame (the
// checkpoint state plus its selective message log), appends the frames
// to the active segment with ONE fsync for the whole batch, then
// rewrites the manifest (sequence numbers plus the durable byte length
// of each segment) via temp file + fsync + rename + directory sync. A
// crash at any point leaves either the previous manifest (the batch
// invisible: its bytes sit beyond the recorded segment size and are
// truncated on Open) or the new one (every referenced byte durable) —
// never a manifest pointing at missing data.
//
// The manifest of every process, intersected (Intersect,
// LastCompleteSeq), yields the last finalized global checkpoint S_k on
// disk; the recovery handshake (transport.Coordinate) agrees on it as the
// line and transport.ResumeProtocol restarts a process from it, and GCTo
// garbage-collects everything below that watermark.
package fsstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
	"ocsml/internal/metrics"
)

// SegmentMeta records one segment file's durable extent: Size is the
// byte length the last committed batch covered. Bytes beyond Size are
// an interrupted group commit and are never read.
type SegmentMeta struct {
	Index int   `json:"index"`
	Size  int64 `json:"size"`
}

// Manifest records what a process has durably finalized.
type Manifest struct {
	// Proc is the owning process id.
	Proc int `json:"proc"`
	// N is the cluster size the process was configured with.
	N int `json:"n"`
	// Seqs lists every finalized checkpoint sequence number on disk,
	// ascending (gap-free from the first entry under OCSML).
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
	//ocsml:guardedby mu
	man Manifest
	// index locates every manifested checkpoint in the segmented log.
	//ocsml:guardedby mu
	index map[int]recLoc
	// finalizeErr, when set, is consulted before each record's bytes are
	// written — the error-injection hook of the durability tests.
	//ocsml:guardedby mu
	finalizeErr func(checkpoint.Record) error
	// metrics, when set, receives this store's durability instruments.
	//ocsml:guardedby mu
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
			"Checkpoints durably finalized (segment append + manifest committed).", "proc").With(p),
		FinalizeErrors: reg.MustCounterVec("ocsml_fsstore_finalize_errors_total",
			"Finalize attempts that failed before the manifest commit.", "proc").With(p),
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

// noteWriteLocked accounts one completed durable write. Caller holds mu
// (or the store has not escaped its constructor).
func (s *Store) noteWriteLocked(bytes, fsyncs int64) {
	if m := s.metrics; m != nil {
		m.Fsyncs.Add(fsyncs)
		m.BytesWritten.Add(bytes)
	}
}

// SetFinalizeErrHook installs (or, with nil, removes) a hook consulted
// before each record's bytes are written; a non-nil return fails that
// record (and, in a batch, every record queued behind it) before any of
// its bytes reach the segment. Tests use it to prove a failed write is
// retried and never skipped past.
func (s *Store) SetFinalizeErrHook(fn func(checkpoint.Record) error) {
	s.mu.Lock()
	s.finalizeErr = fn
	s.mu.Unlock()
}

// ProcDir returns the directory a process's store lives in.
func ProcDir(datadir string, proc int) string {
	return filepath.Join(datadir, fmt.Sprintf("p%d", proc))
}

// Open creates (or reopens) the store for one process with default
// Options. An existing manifest is loaded, so a restarted process sees
// what it had finalized before the crash.
func Open(datadir string, proc, n int) (*Store, error) {
	return OpenWith(datadir, proc, n, DefaultOptions())
}

// OpenWith is Open with explicit engine Options.
//
// Open is also the crash-recovery entry point: temp files left by a
// crash between an atomic write and its rename are deleted, segment
// files the manifest does not reference (a crash between segment
// creation or GC and the manifest commit) are removed, segment tails
// beyond the manifest's durable sizes (an interrupted group commit) are
// truncated away, and a manifest that is itself unreadable — or that
// disagrees with the bytes on disk — is rebuilt from the records that
// verify. A durable frame of a kind this build does not read (a delta
// record of an older build) is none of those: Open refuses the
// directory with an error and repairs nothing in it.
func OpenWith(datadir string, proc, n int, opts Options) (*Store, error) {
	if proc < 0 || n < 2 || proc >= n {
		return nil, fmt.Errorf("fsstore: invalid proc %d of %d", proc, n)
	}
	dir := ProcDir(datadir, proc)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir: dir, proc: proc, n: n, opts: opts.withDefaults(),
		man:   Manifest{Proc: proc, N: n},
		index: map[int]recLoc{},
	}
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	switch {
	case os.IsNotExist(err):
		// Nothing durable: any segment file present is debris from a
		// crash before the very first manifest commit (swept below).
	case err != nil:
		return nil, err
	default:
		var m Manifest
		rebuild := false
		if err := json.Unmarshal(raw, &m); err != nil {
			rebuild = true // torn/partially written manifest
		} else if m.Proc != proc {
			return nil, fmt.Errorf("fsstore: manifest in %s belongs to P%d, not P%d", dir, m.Proc, proc)
		} else {
			s.man = m
			if err := s.loadSegments(); errors.Is(err, errRecordKind) {
				return nil, err
			} else if err != nil {
				rebuild = true // manifest references bytes the disk cannot prove
			}
		}
		if rebuild {
			if err := s.rebuildManifest(); err != nil {
				return nil, fmt.Errorf("fsstore: corrupt manifest in %s and rebuild failed: %w", dir, err)
			}
		}
	}
	// Debris goes last, so a refused directory is left exactly as found.
	if err := s.clearDebris(); err != nil {
		return nil, err
	}
	if err := s.sweepSegments(); err != nil {
		return nil, err
	}
	return s, nil
}

// clearDebris removes temp files a crash may have stranded (writeAtomic
// names them ".tmp-*"; only a completed rename makes data visible).
func (s *Store) clearDebris() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), ".tmp-") {
			if err := os.Remove(filepath.Join(s.dir, e.Name())); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return nil
}

// sweepSegments removes segment files the manifest does not reference:
// the debris of a crash between creating a fresh segment (or unlinking
// a GC'd one) and the manifest commit that would have recorded it.
// Runs at Open-time, before the store escapes its constructor.
func (s *Store) sweepSegments() error {
	known := map[int]bool{}
	for _, meta := range s.man.Segments { //ocsml:nolock Open-time sweep: the store has not escaped its constructor yet
		known[meta.Index] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		idx, ok := parseSegmentName(e.Name())
		if !ok || known[idx] {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, e.Name())); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// loadSegments scans every manifested segment up to its durable size,
// builds the seq -> location index, and then truncates tails an
// interrupted group commit left beyond the durable sizes (only once
// every segment has scanned, so a refused directory is left untouched).
// An error means the manifest references bytes the disk cannot prove
// (missing file, torn or corrupt frame inside a durable prefix) and the
// caller falls back to a full rebuild. Runs at Open-time, before the
// store escapes.
func (s *Store) loadSegments() error {
	manifested := map[int]bool{}
	for _, q := range s.man.Seqs { //ocsml:nolock Open-time load: the store has not escaped its constructor yet
		manifested[q] = true
	}
	index := map[int]recLoc{}
	for _, meta := range s.man.Segments { //ocsml:nolock Open-time load, as above
		frames, valid, err := scanSegment(SegmentFile(s.dir, meta.Index), s.proc, meta.Index, meta.Size, true)
		if err != nil {
			return err
		}
		if valid < meta.Size {
			return fmt.Errorf("fsstore: segment %d: durable prefix %d short of manifest size %d", meta.Index, valid, meta.Size)
		}
		// Later occurrences win: a seq truncated by a rollback and then
		// re-finalized appears twice, and only the newest frame is live.
		for _, fr := range frames {
			if manifested[fr.rec.Seq] {
				index[fr.rec.Seq] = fr.loc
			}
		}
	}
	for _, q := range s.man.Seqs { //ocsml:nolock Open-time load, as above
		if _, ok := index[q]; !ok {
			return fmt.Errorf("fsstore: manifested seq %d is in no segment", q)
		}
	}
	for _, meta := range s.man.Segments { //ocsml:nolock Open-time load, as above
		if err := truncateTail(SegmentFile(s.dir, meta.Index), meta.Size); err != nil {
			return err
		}
	}
	s.index = index //ocsml:nolock Open-time load, as above
	return nil
}

// truncateTail cuts a segment file back to its durable size and syncs
// the truncation, so garbage from an interrupted batch cannot linger.
func truncateTail(path string, size int64) error {
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
	if err := f.Truncate(size); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rebuildManifest reconstructs the manifest from the bytes on disk: the
// segments are scanned tolerantly (stopping each at its first torn
// frame), and a sequence number is recovered only if its newest frame
// decodes to a whole record. The durability protocol commits bytes
// before the manifest, so every previously manifested checkpoint
// verifies; a checkpoint whose manifest commit was interrupted verifies
// too and is safely re-admitted. Torn tails are cut and the rebuilt
// manifest is written back atomically — after every segment has
// scanned, so a refused directory is left untouched.
func (s *Store) rebuildManifest() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	var segIdxs []int
	for _, e := range entries {
		if idx, ok := parseSegmentName(e.Name()); ok {
			segIdxs = append(segIdxs, idx)
		}
	}
	sort.Ints(segIdxs)
	man := Manifest{Proc: s.proc, N: s.n}
	newest := map[int]scannedFrame{}
	for _, idx := range segIdxs {
		frames, valid, err := scanSegment(SegmentFile(s.dir, idx), s.proc, idx, -1, false)
		if err != nil {
			return err
		}
		if valid <= int64(segHeaderSize) {
			continue // torn header or empty: sweepSegments removes the file
		}
		for _, fr := range frames {
			newest[fr.rec.Seq] = fr // later occurrences win
		}
		man.Segments = append(man.Segments, SegmentMeta{Index: idx, Size: valid})
	}
	index := map[int]recLoc{}
	for q, fr := range newest {
		if _, err := fr.rec.record(); err != nil {
			continue // state and log disagree: not provably durable
		}
		index[q] = fr.loc
		man.Seqs = append(man.Seqs, q)
	}
	sort.Ints(man.Seqs)
	for _, meta := range man.Segments {
		if err := truncateTail(SegmentFile(s.dir, meta.Index), meta.Size); err != nil {
			return err
		}
	}
	s.man, s.index = man, index    //ocsml:nolock Open-time rebuild: the store has not escaped its constructor yet
	return s.writeManifestLocked() //ocsml:nolock Open-time rebuild, as above
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

// writeAtomic writes data to path via a temp file + fsync + rename, then
// fsyncs the directory so the rename itself is durable.
func (s *Store) writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		//ocsml:errsink best-effort temp cleanup; the primary write error is returned
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		//ocsml:errsink best-effort temp cleanup; the primary write error is returned
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		//ocsml:errsink best-effort temp cleanup; the primary write error is returned
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		//ocsml:errsink best-effort temp cleanup; the primary write error is returned
		os.Remove(tmpName)
		return err
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	// temp-file fsync + directory fsync
	//ocsml:nolock every caller holds mu except the Open-time manifest rebuild, before the store escapes
	s.noteWriteLocked(int64(len(data)), 2)
	return nil
}

func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ckptState is the on-disk checkpoint state: the Record minus its log,
// which travels in the same segment frame.
type ckptState struct {
	checkpoint.Tentative
	FinalizedAt int64  `json:"finalizedAt"`
	CFEFold     uint64 `json:"cfeFold"`
	CFEWork     int64  `json:"cfeWork"`
	CFEProgress int64  `json:"cfeProgress"`
	StableAt    int64  `json:"stableAt"`
	LogEntries  int    `json:"logEntries"`
}

// stateOf projects a Record onto its on-disk state.
func stateOf(rec checkpoint.Record) ckptState {
	return ckptState{
		Tentative:   rec.Tentative,
		FinalizedAt: int64(rec.FinalizedAt),
		CFEFold:     rec.CFEFold,
		CFEWork:     rec.CFEWork,
		CFEProgress: rec.CFEProgress,
		StableAt:    int64(rec.StableAt),
		LogEntries:  len(rec.Log),
	}
}

// recordOf rehydrates a Record from its state and log.
func recordOf(st ckptState, log []checkpoint.LoggedMsg) checkpoint.Record {
	return checkpoint.Record{
		Tentative:   st.Tentative,
		Log:         log,
		FinalizedAt: des.Time(st.FinalizedAt),
		CFEFold:     st.CFEFold,
		CFEWork:     st.CFEWork,
		CFEProgress: st.CFEProgress,
		StableAt:    des.Time(st.StableAt),
	}
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
// one manifest commit — and returns how long a prefix committed. The
// first record that fails validation, the error hook or encoding stops
// the batch: the records before it commit, it and every record behind
// it do not (committing past it would gap the manifest), and err is
// that first failure. A failed segment write or manifest commit commits
// nothing: the in-memory manifest is left matching disk, and the
// appended bytes sit beyond the durable size for the next commit to
// overwrite.
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
// committable prefix, one segment append, one manifest commit.
func (s *Store) commitLocked(recs []checkpoint.Record) (int, error) {
	// Choose the target segment before encoding so frame offsets are
	// final: append to the active segment, or rotate to a fresh one.
	segs := append([]SegmentMeta(nil), s.man.Segments...)
	newSeg := len(segs) == 0 || segs[len(segs)-1].Size >= s.opts.SegmentMaxBytes
	if newSeg {
		next := 1
		if len(segs) > 0 {
			next = segs[len(segs)-1].Index + 1
		}
		segs = append(segs, SegmentMeta{Index: next})
	}
	active := &segs[len(segs)-1]
	var buf []byte
	if newSeg {
		buf = segmentHeader(s.proc, active.Index)
	}

	var (
		locs    []recLoc
		stopErr error
	)
	tail := s.man.LastSeq()
	for _, rec := range recs {
		switch {
		case rec.Proc != s.proc:
			stopErr = fmt.Errorf("fsstore: record for P%d written to store of P%d", rec.Proc, s.proc)
		case rec.Seq <= tail:
			stopErr = fmt.Errorf("fsstore: P%d finalize seq %d not above last accepted %d", s.proc, rec.Seq, tail)
		case s.finalizeErr != nil:
			stopErr = s.finalizeErr(rec)
		}
		if stopErr != nil {
			break
		}
		st := stateOf(rec)
		payload, err := json.Marshal(&segRecord{Seq: rec.Seq, Kind: segFull, State: &st, Log: rec.Log})
		if err != nil {
			stopErr = err
			break
		}
		start := len(buf)
		buf = appendFrame(buf, payload)
		locs = append(locs, recLoc{seg: active.Index, off: active.Size + int64(start), size: int64(len(buf) - start)})
		tail = rec.Seq
	}
	if len(locs) == 0 {
		return 0, stopErr
	}

	// One segment fsync covers the whole batch — the amortization the
	// group commit exists for. A fresh segment also needs its directory
	// entry durable before the manifest may reference it.
	if err := writeSegment(SegmentFile(s.dir, active.Index), buf, active.Size); err != nil {
		return 0, err
	}
	s.noteWriteLocked(int64(len(buf)), 1)
	if newSeg {
		if err := s.syncDir(); err != nil {
			return 0, err
		}
		s.noteWriteLocked(0, 1)
	}
	active.Size += int64(len(buf))

	// Manifest commit. On failure, roll the in-memory manifest back so
	// it matches disk — a phantom Seqs entry surviving here would let
	// the next successful commit publish a seq whose bytes were never
	// covered by a manifest.
	oldSeqs, oldSegs := s.man.Seqs, s.man.Segments
	seqs := append([]int(nil), oldSeqs...)
	for _, rec := range recs[:len(locs)] {
		seqs = append(seqs, rec.Seq)
	}
	s.man.Seqs, s.man.Segments = seqs, segs
	if err := s.writeManifestLocked(); err != nil {
		s.man.Seqs, s.man.Segments = oldSeqs, oldSegs
		return 0, err
	}
	for i, loc := range locs {
		s.index[recs[i].Seq] = loc
	}
	return len(locs), stopErr
}

// writeSegment appends buf at off and fsyncs the file — the single
// durability point of a group commit's data.
func writeSegment(path string, buf []byte, off int64) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(buf, off); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeManifestLocked commits the in-memory manifest to disk. The file
// is machine-read (ocsmlctl renders it from the API), so it is written
// compactly: it is rewritten whole on every commit.
func (s *Store) writeManifestLocked() error {
	mdata, err := json.Marshal(&s.man)
	if err != nil {
		return err
	}
	return s.writeAtomic(filepath.Join(s.dir, "MANIFEST.json"), mdata)
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
	sr, err := s.readSegRecord(loc)
	if err != nil {
		return checkpoint.Record{}, err
	}
	if sr.Seq != seq {
		return checkpoint.Record{}, fmt.Errorf("fsstore: P%d index points seq %d at a frame holding seq %d", s.proc, seq, sr.Seq)
	}
	rec, err := sr.record()
	if err != nil {
		return rec, fmt.Errorf("fsstore: P%d %w", s.proc, err)
	}
	return rec, nil
}

// TruncateAfter removes finalized checkpoints with Seq > seq from the
// manifest — a cluster-wide rollback discards checkpoints above the
// recovery line so the restarted run can legitimately re-produce those
// sequence numbers. Truncated segment bytes stay in place (unreferenced,
// reclaimed by GCTo; a re-finalized seq's newer frame wins over them).
func (s *Store) TruncateAfter(seq int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	keep := s.man.Seqs[:0]
	var drop []int
	for _, q := range s.man.Seqs {
		if q <= seq {
			keep = append(keep, q)
		} else {
			drop = append(drop, q)
		}
	}
	if len(drop) == 0 {
		return nil
	}
	s.man.Seqs = keep
	// Once the manifest no longer references the dropped seqs, their
	// bytes are invisible garbage.
	if err := s.writeManifestLocked(); err != nil {
		s.man.Seqs = append(s.man.Seqs, drop...)
		return err
	}
	for _, q := range drop {
		delete(s.index, q)
	}
	return nil
}

// GCTo garbage-collects checkpoints below the globally finalized
// watermark wm (the last complete S_k across all manifests): records
// with Seq < wm leave the manifest and segments no live record
// references are unlinked. Seqs the store never had — or a watermark it
// does not hold — make GCTo a no-op, so callers may poll with whatever
// line the manifests intersect to.
func (s *Store) GCTo(wm int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if wm <= 0 || len(s.man.Seqs) == 0 || s.man.Seqs[0] >= wm {
		return nil
	}
	hasWm := false
	for _, q := range s.man.Seqs {
		if q == wm {
			hasWm = true
			break
		}
	}
	if !hasWm {
		return nil
	}

	// Drop the collected seqs from the manifest and prune segments no
	// surviving record lives in.
	keep := make([]int, 0, len(s.man.Seqs))
	var drop []int
	for _, q := range s.man.Seqs {
		if q >= wm {
			keep = append(keep, q)
		} else {
			drop = append(drop, q)
		}
	}
	live := map[int]bool{}
	for _, q := range keep {
		live[s.index[q].seg] = true
	}
	keptSegs := make([]SegmentMeta, 0, len(s.man.Segments))
	var deadSegs []int
	for i, meta := range s.man.Segments {
		if live[meta.Index] || i == len(s.man.Segments)-1 {
			keptSegs = append(keptSegs, meta) // the active segment always stays
		} else {
			deadSegs = append(deadSegs, meta.Index)
		}
	}
	oldSeqs, oldSegs := s.man.Seqs, s.man.Segments
	s.man.Seqs, s.man.Segments = keep, keptSegs

	// Manifest first: after it commits, the dead segments are
	// unreferenced garbage; a crash mid-removal leaves orphans Open's
	// sweep deletes.
	if err := s.writeManifestLocked(); err != nil {
		s.man.Seqs, s.man.Segments = oldSeqs, oldSegs
		return err
	}
	for _, q := range drop {
		delete(s.index, q)
	}
	for _, idx := range deadSegs {
		//ocsml:errsink manifest no longer references this segment; removal is opportunistic GC
		os.Remove(SegmentFile(s.dir, idx))
	}
	if m := s.metrics; m != nil {
		m.GCRemoved.Add(int64(len(drop)))
	}
	return s.syncDir()
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

// ReadManifest reads a process's manifest without opening the store: no
// directory creation, no debris sweep, no rebuild. This is the safe way
// to poll a datadir that live processes are still writing to — Open's
// sweep would delete the temp file of an atomic write in flight and fail
// that process's rename. A missing directory or manifest yields an empty
// manifest (the process has durably finalized nothing yet).
func ReadManifest(datadir string, proc int) (Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(ProcDir(datadir, proc), "MANIFEST.json"))
	switch {
	case os.IsNotExist(err):
		return Manifest{Proc: proc}, nil
	case err != nil:
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return Manifest{}, fmt.Errorf("fsstore: corrupt manifest for P%d: %w", proc, err)
	}
	return m, nil
}

// Intersect returns the sequence numbers present in every one of the
// groups, ascending. It is a true intersection: a sequence number counts
// only if every group has it, so gaps in one manifest (possible after a
// torn-manifest rebuild) cannot surface a line some process lacks. The
// recovery coordinator applies it to the RB_LINE reports exactly as the
// datadir helpers below apply it to the on-disk manifests.
func Intersect(groups [][]int) []int {
	if len(groups) == 0 {
		return nil
	}
	count := map[int]int{}
	for _, group := range groups {
		seen := map[int]bool{}
		for _, q := range group {
			if !seen[q] {
				seen[q] = true
				count[q]++
			}
		}
	}
	var seqs []int
	for q, c := range count {
		if c == len(groups) {
			seqs = append(seqs, q)
		}
	}
	sort.Ints(seqs)
	return seqs
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
	return Intersect(groups), nil
}
