// Package fsstore is the file-backed stable-storage implementation used
// by the real-network runtime (internal/transport, cmd/ocsmld): finalized
// checkpoints C_{i,k} actually reach a disk, with the durability ordering
// the paper's recovery argument needs.
//
// Layout, one directory per process under a shared data directory:
//
//	<datadir>/p<id>/seg_000001.wal     segmented append-only checkpoint log
//	<datadir>/p<id>/MANIFEST.json      finalized seqs + durable segment sizes
//	<datadir>/p<id>/tent.json          scratch early-flush of CT (volatile)
//
// Durability is a pipelined group commit: queued finalizations are
// encoded into CRC-framed records — a full state snapshot every
// Options.SnapshotEvery records, incremental deltas in between — and
// appended to the active segment with ONE fsync for the whole batch,
// then the manifest (sequence numbers plus the durable byte length of
// each segment) is rewritten via temp file + fsync + rename + directory
// sync. A crash at any point leaves either the previous manifest (the
// batch invisible: its bytes sit beyond the recorded segment size and
// are truncated on Open) or the new one (every referenced byte durable)
// — never a manifest pointing at missing data.
//
// The manifest of every process, intersected, yields the last finalized
// global checkpoint S_k on disk; internal/recovery's RecoverLine
// restarts a cluster from it, and GCTo garbage-collects everything
// below that watermark (compacting the watermark record to a full
// snapshot first, so surviving delta chains stay resolvable).
package fsstore

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
	"ocsml/internal/metrics"
)

// countingWriter counts the bytes written through it (log-size
// accounting for StoreMetrics).
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

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

// Options tunes the durability engine. The zero value of any field
// selects its default.
type Options struct {
	// GroupWindow is the max-latency flush window of a synchronous
	// Finalize: how long the caller lingers for other finalizations to
	// join its group commit before forcing the flush itself. 0 (the
	// default) flushes immediately; FinalizeAsync callers coalesce
	// regardless.
	GroupWindow time.Duration
	// MaxBatch bounds how many queued finalizations one commit covers
	// (default 64).
	MaxBatch int
	// SegmentMaxBytes rotates the active segment once its durable size
	// reaches this bound (default 4 MiB).
	SegmentMaxBytes int64
	// SnapshotEvery writes a full state snapshot every k-th record, with
	// incremental deltas in between (default 8; 1 disables deltas).
	SnapshotEvery int
}

// DefaultOptions returns the engine defaults.
func DefaultOptions() Options {
	return Options{MaxBatch: 64, SegmentMaxBytes: 4 << 20, SnapshotEvery: 8}
}

func (o Options) withDefaults() Options {
	def := DefaultOptions()
	if o.GroupWindow < 0 {
		o.GroupWindow = 0
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = def.MaxBatch
	}
	if o.SegmentMaxBytes <= 0 {
		o.SegmentMaxBytes = def.SegmentMaxBytes
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = def.SnapshotEvery
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
	// queue holds finalizations accepted but not yet committed; a drain
	// commits it in enqueue order, MaxBatch records per fsync.
	//ocsml:guardedby mu
	queue []*pending
	// lastState is the most recently committed record's state — the
	// base the next delta is computed against. haveLast is false right
	// after Open or TruncateAfter, forcing a full snapshot.
	//ocsml:guardedby mu
	lastState ckptState
	//ocsml:guardedby mu
	haveLast bool
	// sinceFull counts records since the last full snapshot.
	//ocsml:guardedby mu
	sinceFull int
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
// verify.
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
	if err := s.clearDebris(); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	switch {
	case os.IsNotExist(err):
		// Nothing durable: any segment file present is debris from a
		// crash before the very first manifest commit.
		if err := s.sweepSegments(); err != nil {
			return nil, err
		}
		return s, nil
	case err != nil:
		return nil, err
	}
	var m Manifest
	rebuild := false
	if err := json.Unmarshal(raw, &m); err != nil {
		rebuild = true // torn/partially written manifest
	} else if m.Proc != proc {
		return nil, fmt.Errorf("fsstore: manifest in %s belongs to P%d, not P%d", dir, m.Proc, proc)
	} else {
		s.man = m
		if err := s.loadSegments(); err != nil {
			rebuild = true // manifest references bytes the disk cannot prove
		}
	}
	if rebuild {
		if err := s.rebuildManifest(); err != nil {
			return nil, fmt.Errorf("fsstore: corrupt manifest in %s and rebuild failed: %w", dir, err)
		}
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
// builds the seq -> location index, and truncates tails an interrupted
// group commit left beyond the durable sizes. An error means the
// manifest references bytes the disk cannot prove (missing file, torn
// or corrupt frame inside a durable prefix) and the caller falls back
// to a full rebuild. Runs at Open-time, before the store escapes.
func (s *Store) loadSegments() error {
	manifested := map[int]bool{}
	for _, q := range s.man.Seqs { //ocsml:nolock Open-time load: the store has not escaped its constructor yet
		manifested[q] = true
	}
	index := map[int]recLoc{}
	for _, meta := range s.man.Segments { //ocsml:nolock Open-time load, as above
		path := SegmentFile(s.dir, meta.Index)
		frames, valid, err := scanSegment(path, s.proc, meta.Index, meta.Size, true)
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
		if err := truncateTail(path, meta.Size); err != nil {
			return err
		}
	}
	for _, q := range s.man.Seqs { //ocsml:nolock Open-time load, as above
		if _, ok := index[q]; !ok {
			return fmt.Errorf("fsstore: manifested seq %d is in no segment", q)
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
// frame), and a sequence number is recovered only if its record — including a delta's whole
// base chain — replays from durable bytes. The durability protocol
// commits bytes before the manifest, so every previously manifested
// checkpoint verifies; a checkpoint whose manifest commit was
// interrupted verifies too and is safely re-admitted. The rebuilt
// manifest is written back atomically.
func (s *Store) rebuildManifest() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	man := Manifest{Proc: s.proc, N: s.n}
	index := map[int]recLoc{}
	candidates := map[int]bool{}
	var segIdxs []int
	for _, e := range entries {
		if idx, ok := parseSegmentName(e.Name()); ok {
			segIdxs = append(segIdxs, idx)
		}
	}
	sort.Ints(segIdxs)
	for _, idx := range segIdxs {
		path := SegmentFile(s.dir, idx)
		frames, valid, err := scanSegment(path, s.proc, idx, -1, false)
		if err != nil {
			return err
		}
		if valid <= int64(segHeaderSize) {
			continue // torn header or empty: sweepSegments removes the file
		}
		for _, fr := range frames {
			index[fr.rec.Seq] = fr.loc // later occurrences win
			candidates[fr.rec.Seq] = true
		}
		man.Segments = append(man.Segments, SegmentMeta{Index: idx, Size: valid})
		if err := truncateTail(path, valid); err != nil {
			return err
		}
	}
	s.index = index //ocsml:nolock Open-time rebuild: the store has not escaped its constructor yet
	seqs := make([]int, 0, len(candidates))
	for q := range candidates {
		seqs = append(seqs, q)
	}
	sort.Ints(seqs)
	for _, q := range seqs {
		if _, err := s.loadLocked(q); err != nil { //ocsml:nolock Open-time rebuild, as above
			continue // torn checkpoint, log or chain: not provably durable
		}
		man.Seqs = append(man.Seqs, q)
	}
	s.man = man                                       //ocsml:nolock Open-time rebuild, as above
	mdata, err := json.MarshalIndent(&s.man, "", " ") //ocsml:nolock Open-time rebuild, as above
	if err != nil {
		return err
	}
	return s.writeAtomic(filepath.Join(s.dir, "MANIFEST.json"), mdata)
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

// SaveTentative persists an early flush of the tentative checkpoint CT
// (the paper's "store at convenience" write that may precede
// finalization). It is scratch state: a crash before finalization
// legitimately discards it.
func (s *Store) SaveTentative(t checkpoint.Tentative) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return s.writeAtomic(filepath.Join(s.dir, "tent.json"), data)
}

// pending is one finalization accepted into the commit queue. done is
// buffered; the committing drain resolves it exactly once.
type pending struct {
	rec  checkpoint.Record
	done chan error
}

// Pending is the handle of an asynchronous finalization.
type Pending struct {
	s *Store
	p *pending
}

// Wait blocks until the record is durably committed (or failed),
// driving a group commit itself if no other caller has flushed the
// queue yet.
func (w *Pending) Wait() error {
	select {
	case err := <-w.p.done:
		return err
	default:
	}
	w.s.drain()
	return <-w.p.done
}

// enqueue validates a record and appends it to the commit queue.
func (s *Store) enqueue(rec checkpoint.Record) (*pending, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tail := s.man.LastSeq()
	if k := len(s.queue); k > 0 {
		tail = s.queue[k-1].rec.Seq
	}
	var err error
	switch {
	case rec.Proc != s.proc:
		err = fmt.Errorf("fsstore: record for P%d written to store of P%d", rec.Proc, s.proc)
	case rec.Seq <= tail:
		err = fmt.Errorf("fsstore: P%d finalize seq %d not above last accepted %d", s.proc, rec.Seq, tail)
	}
	if err != nil {
		if m := s.metrics; m != nil {
			m.FinalizeErrors.Inc()
		}
		return nil, err
	}
	p := &pending{rec: rec, done: make(chan error, 1)}
	s.queue = append(s.queue, p)
	return p, nil
}

// drain commits the whole queue, MaxBatch records per group commit.
func (s *Store) drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainLocked()
}

func (s *Store) drainLocked() {
	for len(s.queue) > 0 {
		batch := s.queue
		if len(batch) > s.opts.MaxBatch {
			batch = batch[:s.opts.MaxBatch:s.opts.MaxBatch]
			s.queue = s.queue[s.opts.MaxBatch:]
		} else {
			s.queue = nil
		}
		s.commitBatchLocked(batch)
	}
}

// Finalize durably persists a finalized checkpoint: the record joins
// the commit queue and the call drives (or joins) a group commit. With
// a non-zero GroupWindow the caller lingers up to that long for other
// finalizations to share its fsync before flushing itself. Idempotent
// per sequence number; out-of-order sequence numbers are an error.
func (s *Store) Finalize(rec checkpoint.Record) error {
	p, err := s.enqueue(rec)
	if err != nil {
		return err
	}
	if w := s.opts.GroupWindow; w > 0 {
		select {
		case err := <-p.done:
			// Another caller's drain committed this record meanwhile.
			return err
		case <-time.After(w):
		}
	}
	s.drain()
	return <-p.done
}

// FinalizeAsync queues a finalization and returns immediately; the
// commit happens when any caller drives a drain (a synchronous
// Finalize, a Wait, a TruncateAfter) or the queue reaches MaxBatch
// during that drain. Queued records commit in enqueue order.
func (s *Store) FinalizeAsync(rec checkpoint.Record) (*Pending, error) {
	p, err := s.enqueue(rec)
	if err != nil {
		return nil, err
	}
	return &Pending{s: s, p: p}, nil
}

// FinalizeBatch persists recs (ascending seqs) through one drain —
// batches of MaxBatch records per fsync — and returns how long a prefix
// committed. A failed record fails every record behind it (committing
// past it would gap the manifest), and err is that first failure.
func (s *Store) FinalizeBatch(recs []checkpoint.Record) (committed int, err error) {
	waits := make([]*pending, 0, len(recs))
	for _, rec := range recs {
		p, enqErr := s.enqueue(rec)
		if enqErr != nil {
			err = enqErr
			break
		}
		waits = append(waits, p)
	}
	s.drain()
	for _, p := range waits {
		if werr := <-p.done; werr != nil {
			return committed, werr
		}
		committed++
	}
	return committed, err
}

// commitBatchLocked is one group commit: encode every record of the
// batch (full snapshot or delta per the SnapshotEvery cadence), append
// the frames to the active segment with a single file fsync, then
// commit the manifest. On a manifest failure the in-memory manifest is
// rolled back to match disk — the appended bytes sit beyond the durable
// size and the next commit overwrites them.
func (s *Store) commitBatchLocked(batch []*pending) {
	fail := func(ps []*pending, err error) {
		for _, p := range ps {
			if m := s.metrics; m != nil {
				m.FinalizeErrors.Inc()
			}
			p.done <- err
		}
	}
	prevState, prevHave, prevSince := s.lastState, s.haveLast, s.sinceFull
	rollbackState := func() {
		s.lastState, s.haveLast, s.sinceFull = prevState, prevHave, prevSince
	}

	// Choose the target segment before encoding so frame offsets are
	// final: append to the active segment, or rotate to a fresh one.
	segIdx, writeOff := 1, int64(0)
	newSeg := true
	if k := len(s.man.Segments); k > 0 {
		last := s.man.Segments[k-1]
		if last.Size < s.opts.SegmentMaxBytes {
			segIdx, writeOff, newSeg = last.Index, last.Size, false
		} else {
			segIdx = last.Index + 1
		}
	}
	var buf []byte
	if newSeg {
		buf = segmentHeader(s.proc, segIdx)
	}

	// Encode the committable prefix; the first failing record stops the
	// batch (committing records behind it would gap the manifest).
	var (
		encoded []*pending
		seqs    []int
		locs    []recLoc
		stopErr error
	)
	for _, p := range batch {
		if s.finalizeErr != nil {
			if err := s.finalizeErr(p.rec); err != nil {
				stopErr = err
				break
			}
		}
		st := stateOf(p.rec)
		sr := segRecord{Seq: p.rec.Seq, Log: p.rec.Log}
		full := !s.haveLast || s.sinceFull+1 >= s.opts.SnapshotEvery
		if full {
			sr.Kind = segFull
			sr.State = &st
		} else {
			sr.Kind = segDelta
			sr.Base = s.lastState.Seq
			d := diffState(s.lastState, st)
			sr.Delta = &d
		}
		payload, err := json.Marshal(&sr)
		if err != nil {
			stopErr = err
			break
		}
		off := writeOff + int64(len(buf))
		buf = appendFrame(buf, payload)
		locs = append(locs, recLoc{
			seg: segIdx, off: off, size: writeOff + int64(len(buf)) - off,
			kind: sr.Kind, base: sr.Base,
		})
		if full {
			s.sinceFull = 0
		} else {
			s.sinceFull++
		}
		s.lastState, s.haveLast = st, true
		encoded = append(encoded, p)
		seqs = append(seqs, p.rec.Seq)
	}
	rest := batch[len(encoded):]
	if len(encoded) == 0 {
		fail(rest, stopErr)
		return
	}

	// One segment fsync covers the whole batch — the amortization the
	// group commit exists for. A fresh segment also needs its directory
	// entry durable before the manifest may reference it.
	if err := writeSegment(SegmentFile(s.dir, segIdx), buf, writeOff); err != nil {
		rollbackState()
		fail(batch, err)
		return
	}
	s.noteWriteLocked(int64(len(buf)), 1)
	if newSeg {
		if err := s.syncDir(); err != nil {
			rollbackState()
			fail(batch, err)
			return
		}
		s.noteWriteLocked(0, 1)
	}

	// Manifest commit. On failure, roll the in-memory manifest back so
	// it matches disk — a phantom Seqs entry surviving here would let
	// the next successful commit publish a seq whose bytes were never
	// covered by a manifest (the divergence bug this rollback fixes).
	oldSeqs, oldSegs := s.man.Seqs, s.man.Segments
	s.man.Seqs = append(append([]int(nil), oldSeqs...), seqs...)
	segsCopy := append([]SegmentMeta(nil), oldSegs...)
	if newSeg {
		segsCopy = append(segsCopy, SegmentMeta{Index: segIdx, Size: writeOff + int64(len(buf))})
	} else {
		segsCopy[len(segsCopy)-1].Size = writeOff + int64(len(buf))
	}
	s.man.Segments = segsCopy
	if err := s.writeManifestLocked(); err != nil {
		s.man.Seqs, s.man.Segments = oldSeqs, oldSegs
		rollbackState()
		fail(batch, err)
		return
	}

	for i, p := range encoded {
		s.index[p.rec.Seq] = locs[i]
		if m := s.metrics; m != nil {
			m.Finalizes.Inc()
		}
		p.done <- nil
	}
	if len(rest) > 0 {
		fail(rest, stopErr)
	}
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

func (s *Store) writeManifestLocked() error {
	mdata, err := json.MarshalIndent(&s.man, "", " ")
	if err != nil {
		return err
	}
	return s.writeAtomic(filepath.Join(s.dir, "MANIFEST.json"), mdata)
}

// Load reads one finalized checkpoint back from disk, replaying its
// incremental chain if the record is a delta.
func (s *Store) Load(seq int) (checkpoint.Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadLocked(seq)
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
	st, err := s.resolveStateLocked(&sr)
	if err != nil {
		return checkpoint.Record{}, err
	}
	rec := recordOf(st, sr.Log)
	if len(rec.Log) != st.LogEntries {
		return rec, fmt.Errorf("fsstore: P%d seq %d log has %d entries, checkpoint state says %d",
			s.proc, seq, len(rec.Log), st.LogEntries)
	}
	return rec, nil
}

// resolveStateLocked reconstructs a segment record's full state,
// walking a delta's base chain back to the nearest full snapshot and
// replaying the deltas forward.
func (s *Store) resolveStateLocked(sr *segRecord) (ckptState, error) {
	if sr.Kind == segFull {
		if sr.State == nil {
			return ckptState{}, fmt.Errorf("fsstore: P%d seq %d: full record without state", s.proc, sr.Seq)
		}
		return *sr.State, nil
	}
	if sr.Kind != segDelta {
		return ckptState{}, fmt.Errorf("fsstore: P%d seq %d: unknown record kind %q", s.proc, sr.Seq, sr.Kind)
	}
	// Collect the chain target..base order, then apply oldest-first.
	chain := []*segRecord{sr}
	base := sr.Base
	var st ckptState
	for {
		bloc, ok := s.index[base]
		if !ok {
			return ckptState{}, fmt.Errorf("fsstore: P%d seq %d: delta chain base %d is in no segment", s.proc, sr.Seq, base)
		}
		bsr, err := s.readSegRecord(bloc)
		if err != nil {
			return ckptState{}, fmt.Errorf("fsstore: P%d seq %d: delta chain base %d: %w", s.proc, sr.Seq, base, err)
		}
		if bsr.Kind == segFull {
			if bsr.State == nil {
				return ckptState{}, fmt.Errorf("fsstore: P%d seq %d: chain base %d without state", s.proc, sr.Seq, base)
			}
			st = *bsr.State
			break
		}
		chain = append(chain, &bsr)
		base = bsr.Base
		if len(chain) > len(s.index)+1 {
			return ckptState{}, fmt.Errorf("fsstore: P%d seq %d: delta chain cycle", s.proc, sr.Seq)
		}
	}
	for i := len(chain) - 1; i >= 0; i-- {
		st = applyDelta(st, chain[i].Seq, chain[i].Delta)
	}
	return st, nil
}

// TruncateAfter removes finalized checkpoints with Seq > seq from the
// manifest — a cluster-wide rollback discards checkpoints above the
// recovery line so the restarted run can legitimately re-produce those
// sequence numbers. Queued finalizations are flushed first; truncated
// segment bytes stay in place (unreferenced, reclaimed by GCTo or
// overwritten on reuse).
func (s *Store) TruncateAfter(seq int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainLocked()
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
	// The next record's delta base would be a discarded state: force a
	// full snapshot so surviving chains never cross the rollback.
	s.haveLast = false
	s.sinceFull = 0
	return nil
}

// GCTo garbage-collects checkpoints below the globally finalized
// watermark wm (the last complete S_k across all manifests): records
// with Seq < wm leave the manifest and segments no live record
// references are unlinked. If the watermark record is a delta it is first compacted to
// a full snapshot (appended like a group commit of one), so surviving
// chains resolve without the collected records. Seqs the store never
// had — or a watermark it does not hold — make GCTo a no-op, so callers
// may poll with whatever line the manifests intersect to.
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

	// 1. Compaction: the watermark must stand alone. A delta watermark
	// is re-appended as a full snapshot (crash boundary: bytes beyond
	// the durable size are harmless until the manifest below commits).
	if loc := s.index[wm]; loc.kind == segDelta {
		rec, err := s.loadLocked(wm)
		if err != nil {
			return err
		}
		st := stateOf(rec)
		sr := segRecord{Seq: wm, Kind: segFull, State: &st, Log: rec.Log}
		payload, err := json.Marshal(&sr)
		if err != nil {
			return err
		}
		segIdx, writeOff := 1, int64(0)
		newSeg := true
		if k := len(s.man.Segments); k > 0 {
			last := s.man.Segments[k-1]
			if last.Size < s.opts.SegmentMaxBytes {
				segIdx, writeOff, newSeg = last.Index, last.Size, false
			} else {
				segIdx = last.Index + 1
			}
		}
		var buf []byte
		if newSeg {
			buf = segmentHeader(s.proc, segIdx)
		}
		off := writeOff + int64(len(buf))
		buf = appendFrame(buf, payload)
		if err := writeSegment(SegmentFile(s.dir, segIdx), buf, writeOff); err != nil {
			return err
		}
		s.noteWriteLocked(int64(len(buf)), 1)
		if newSeg {
			if err := s.syncDir(); err != nil {
				return err
			}
			s.noteWriteLocked(0, 1)
			s.man.Segments = append(append([]SegmentMeta(nil), s.man.Segments...),
				SegmentMeta{Index: segIdx, Size: writeOff + int64(len(buf))})
		} else {
			segs := append([]SegmentMeta(nil), s.man.Segments...)
			segs[len(segs)-1].Size = writeOff + int64(len(buf))
			s.man.Segments = segs
		}
		s.index[wm] = recLoc{seg: segIdx, off: off, size: writeOff + int64(len(buf)) - off, kind: segFull}
		// The compacted snapshot is the freshest committed state: keep
		// the delta base tracking coherent with what Load now returns.
		if s.haveLast && s.lastState.Seq == wm {
			s.lastState = st
		}
	}

	// 2. Drop the collected seqs from the manifest and prune segments no
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
	for _, q := range drop {
		delete(s.index, q)
	}
	live := map[int]bool{}
	for _, l := range s.index {
		live[l.seg] = true
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
		seqs := s.Manifest().Seqs
		sort.Ints(seqs)
		for _, seq := range seqs {
			rec, err := s.Load(seq)
			if err != nil {
				return nil, err
			}
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
