package fsstore

// Tests of the durability engine: exact fsync counts per commit and per
// GC sweep, manifest rollback on a failed commit, batch prefix semantics,
// the S_k GC watermark, concurrent use, datadirs of earlier formats and of
// another process, and the segment crash-point matrix (torn header, torn
// batch tail, orphan segment).

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"ocsml/internal/checkpoint"
	"ocsml/internal/metrics"
	"ocsml/internal/wire"
)

// TestGroupCommitAmortizesFsyncs is the acceptance gate of the engine:
// the fsync counter counts actual syscalls, and a commit costs exactly
// one whatever its depth — plus the directory sync at a segment's birth.
func TestGroupCommitAmortizesFsyncs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	sm := NewStoreMetrics(reg, 0)
	s.SetMetrics(sm)

	const depth = 16
	last := 0
	for _, step := range []struct {
		what   string
		do     func() error
		fsyncs int64
	}{
		{"first commit of a fresh store (segment + its directory entry)", func() error { return s.Finalize(rec(0, 1, 2)) }, 2},
		{"a later commit of one record", func() error { return s.Finalize(rec(0, 2, 2)) }, 1},
		{"a later commit of 16 records", func() error {
			batch := make([]checkpoint.Record, 0, depth)
			for seq := 3; seq < 3+depth; seq++ {
				batch = append(batch, rec(0, seq, 2))
			}
			last = 2 + depth
			n, err := s.FinalizeBatch(batch)
			if err == nil && n != depth {
				t.Fatalf("FinalizeBatch committed %d of %d", n, depth)
			}
			return err
		}, 1},
		{"a TruncateAfter that drops nothing", func() error { return s.TruncateAfter(last) }, 0},
		{"a TruncateAfter that drops two records", func() error { last -= 2; return s.TruncateAfter(last) }, 1},
	} {
		base := sm.Fsyncs.Value()
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.what, err)
		}
		if got := sm.Fsyncs.Value() - base; got != step.fsyncs {
			t.Fatalf("%s cost %d fsyncs, want %d", step.what, got, step.fsyncs)
		}
	}
	if got := sm.Finalizes.Value(); got != 2+depth {
		t.Fatalf("finalized counter = %d, want %d", got, 2+depth)
	}
	if got := s.Manifest().Seqs; len(got) != last {
		t.Fatalf("manifest seqs = %v, want %d entries", got, last)
	}
	// Every surviving record replays, both live and after reopen.
	for seq := 1; seq <= last; seq++ {
		got, err := s.Load(seq)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rec(0, seq, 2)) {
			t.Fatalf("seq %d round-trip mismatch", seq)
		}
	}
	s2, err := Open(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.LastSeq(); got != last {
		t.Fatalf("reopened LastSeq = %d, want %d", got, last)
	}
	for seq := 1; seq <= last; seq++ {
		if _, err := s2.Load(seq); err != nil {
			t.Fatalf("reopened load seq %d: %v", seq, err)
		}
	}
}

// TestManifestRollbackOnFailedCommit: a commit that fails after its
// bytes reached the segment — here its cut of the file — must leave the
// in-memory manifest at what the last acknowledged commit left, so a
// retry of the same seq commits cleanly and disk and memory agree. A poll
// in between may see the failed commit's frame (a scan reads what the
// file holds); the store does not serve it.
func TestManifestRollbackOnFailedCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(rec(0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	s.SetFaultHook(failFirst("truncate"))
	if err := s.Finalize(rec(0, 2, 1)); err == nil {
		t.Fatal("a commit whose cut failed succeeded")
	}
	if s.LastSeq() != 1 {
		t.Fatalf("LastSeq after the failed commit = %d, want 1 (in-memory manifest diverged from disk)", s.LastSeq())
	}
	if _, err := s.Load(2); err == nil {
		t.Fatal("the store serves the failed commit's record")
	}
	// Retry the same seq, then one more: disk must agree with memory.
	if err := s.Finalize(rec(0, 2, 1)); err != nil {
		t.Fatalf("retry after the failed commit: %v", err)
	}
	if err := s.Finalize(rec(0, 3, 0)); err != nil {
		t.Fatal(err)
	}
	if got := s.Manifest().Seqs; !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("manifest seqs = %v, want [1 2 3]", got)
	}
	m, err := readManifest(dir, 0, bufio.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Seqs, []int{1, 2, 3}) {
		t.Fatalf("on-disk manifest seqs = %v, want [1 2 3]", m.Seqs)
	}
	s2, err := Open(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 3; seq++ {
		if _, err := s2.Load(seq); err != nil {
			t.Fatalf("load seq %d after rollback+retry: %v", seq, err)
		}
	}
}

// TestLoadUndecodableRecord: a frame whose CRC verifies but whose record
// does not decode opens (the scan reads only a frame's kind and seq) and
// fails to Load, with an error that names the process, the seq and the
// segment.
func TestLoadUndecodableRecord(t *testing.T) {
	r := rec(0, 1, 3)
	body := wire.AppendRecord(nil, &r)
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"record cut short", body[:len(body)-1]},
		{"bytes behind the record", append(slices.Clone(body), 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			seg, start := openFrame(segmentHeader(0, 1), kindFull)
			seg = sealFrame(append(append(seg, 1), tc.body...), start) // seq 1
			pdir := ProcDir(dir, 0)
			if err := os.MkdirAll(pdir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(SegmentFile(pdir, 1), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			_, err = s.Load(1)
			if err == nil {
				t.Fatal("an undecodable record loaded without error")
			}
			for _, want := range []string{"P0", "seq 1", "segment 1"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("Load error %q does not name %s", err, want)
				}
			}
		})
	}
}

// TestManifestedSeqInNoSegment: a hint naming a seq no segment holds
// (the shape a pre-segment per-seq datadir had) is never served. Open
// and the pollers take their seqs from the log, and Load of the missing
// seq is an error, not an empty record.
func TestManifestedSeqInNoSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 2; seq++ {
		if err := s.Finalize(rec(0, seq, 2)); err != nil {
			t.Fatal(err)
		}
	}
	man := s.Manifest()
	man.Seqs = append(man.Seqs, 3)
	if err := os.WriteFile(filepath.Join(s.Dir(), hintName), parentHint(man), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 0, 2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := s2.Manifest().Seqs; !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("manifest seqs after reopen = %v, want [1 2] (seq 3 is in no segment)", got)
	}
	if _, err := s2.Load(3); err == nil || !strings.Contains(err.Error(), "in no segment") {
		t.Fatalf("Load(3) err = %v, want an in-no-segment error", err)
	}
	if m, err := readManifest(dir, 0, bufio.NewReader(nil)); err != nil || !reflect.DeepEqual(m.Seqs, []int{1, 2}) {
		t.Fatalf("readManifest = (%v, %v), want seqs [1 2]", m.Seqs, err)
	}
}

// TestGCToWatermark: records below the globally finalized S_k leave the
// manifest and disk; the watermark itself and everything above it stay
// loadable.
func TestGCToWatermark(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.SegmentMaxBytes = 3 * int64(len(frame(rec(0, 1, 2)))) // force rotation so old segments can die
	s, err := OpenWith(dir, 0, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	sm := NewStoreMetrics(reg, 0)
	s.SetMetrics(sm)
	for seq := 1; seq <= 12; seq++ {
		if err := s.Finalize(rec(0, seq, 2)); err != nil {
			t.Fatal(err)
		}
	}
	segsBefore := len(s.Manifest().Segments)
	if err := s.GCTo(10); err != nil {
		t.Fatal(err)
	}
	if got := s.Manifest().Seqs; !reflect.DeepEqual(got, []int{10, 11, 12}) {
		t.Fatalf("post-GC manifest seqs = %v, want [10 11 12]", got)
	}
	if got := sm.GCRemoved.Value(); got != 9 {
		t.Fatalf("gc-removed counter = %d, want 9", got)
	}
	if segsAfter := len(s.Manifest().Segments); segsAfter >= segsBefore {
		t.Fatalf("GC kept all %d segments (had %d before)", segsAfter, segsBefore)
	}
	for seq := 10; seq <= 12; seq++ {
		got, err := s.Load(seq)
		if err != nil {
			t.Fatalf("post-GC load seq %d: %v", seq, err)
		}
		if !reflect.DeepEqual(got, rec(0, seq, 2)) {
			t.Fatalf("post-GC seq %d round-trip mismatch", seq)
		}
	}
	if _, err := s.Load(9); err == nil {
		t.Fatal("collected seq 9 still loads")
	}
	// Idempotent and monotone: re-collecting the same or an unknown
	// watermark is a no-op.
	if err := s.GCTo(10); err != nil {
		t.Fatal(err)
	}
	if err := s.GCTo(999); err != nil {
		t.Fatal(err)
	}
	if got := s.Manifest().Seqs; !reflect.DeepEqual(got, []int{10, 11, 12}) {
		t.Fatalf("idempotent GC changed seqs to %v", got)
	}
	// Survives reopen: the surviving records replay from disk.
	s2, err := OpenWith(dir, 0, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 10; seq <= 12; seq++ {
		got, err := s2.Load(seq)
		if err != nil {
			t.Fatalf("reopened post-GC load seq %d: %v", seq, err)
		}
		if !reflect.DeepEqual(got, rec(0, seq, 2)) {
			t.Fatalf("reopened post-GC seq %d mismatch", seq)
		}
	}
	// New finalizes continue above the watermark.
	if err := s2.Finalize(rec(0, 13, 1)); err != nil {
		t.Fatal(err)
	}
}

// TestGCToFsyncsOnlyOnUnlink: the GC floor is in memory, so a sweep that
// unlinks no segment does no I/O at all, and one that unlinks a segment
// issues one directory fsync, counted like every other.
func TestGCToFsyncsOnlyOnUnlink(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.SegmentMaxBytes = 3 * int64(len(frame(rec(0, 1, 2)))) // three rec(0, seq, 2) frames to a segment
	s, err := OpenWith(dir, 0, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	sm := NewStoreMetrics(metrics.NewRegistry(), 0)
	s.SetMetrics(sm)
	finalizeUpTo(t, s, 6)
	var ops []string
	s.SetFaultHook(func(op, _ string) error {
		ops = append(ops, op)
		return nil
	})
	for _, step := range []struct {
		wm     int
		ops    []string
		fsyncs int64
	}{
		{2, nil, 0},                           // inside the first segment
		{4, []string{"remove", "syncdir"}, 1}, // the first segment goes
		{5, nil, 0},                           // inside the active segment
	} {
		ops = nil
		base := sm.Fsyncs.Value()
		if err := s.GCTo(step.wm); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ops, step.ops) {
			t.Errorf("GCTo(%d) changed the directory by %v, want %v", step.wm, ops, step.ops)
		}
		if got := sm.Fsyncs.Value() - base; got != step.fsyncs {
			t.Errorf("GCTo(%d) counted %d fsyncs, want %d", step.wm, got, step.fsyncs)
		}
	}
	if got := s.Manifest().Seqs; !reflect.DeepEqual(got, []int{5, 6}) {
		t.Fatalf("seqs after the sweeps = %v, want [5 6]", got)
	}
}

// TestSegmentRotation: the active segment rotates at SegmentMaxBytes
// and every record stays loadable across the rotation and a reopen.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.SegmentMaxBytes = 2 * int64(len(frame(rec(0, 1, 2))))
	s, err := OpenWith(dir, 0, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 10; seq++ {
		if err := s.Finalize(rec(0, seq, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if segs := s.Manifest().Segments; len(segs) < 2 {
		t.Fatalf("no rotation at 512-byte cap: segments = %v", segs)
	}
	s2, err := OpenWith(dir, 0, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 10; seq++ {
		got, err := s2.Load(seq)
		if err != nil {
			t.Fatalf("rotated load seq %d: %v", seq, err)
		}
		if !reflect.DeepEqual(got, rec(0, seq, 2)) {
			t.Fatalf("rotated seq %d mismatch", seq)
		}
	}
}

// TestRefinalizedFrameWinsOverStale: a rollback may be followed by
// re-finalized seqs; the re-finalized frame (not the stale one still in
// the segment) must win, live and on reopen.
func TestRefinalizedFrameWinsOverStale(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 4; seq++ {
		if err := s.Finalize(rec(0, seq, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.TruncateAfter(2); err != nil {
		t.Fatal(err)
	}
	// Re-produce seqs 3 and 4 with different payloads.
	want3, want4 := rec(0, 3, 3), rec(0, 4, 0)
	if err := s.Finalize(want3); err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(want4); err != nil {
		t.Fatal(err)
	}
	check := func(s *Store, label string) {
		t.Helper()
		got3, err := s.Load(3)
		if err != nil {
			t.Fatalf("%s load 3: %v", label, err)
		}
		if !reflect.DeepEqual(got3, want3) {
			t.Fatalf("%s: stale pre-rollback seq 3 won over the re-finalized record", label)
		}
		got4, err := s.Load(4)
		if err != nil {
			t.Fatalf("%s load 4: %v", label, err)
		}
		if !reflect.DeepEqual(got4, want4) {
			t.Fatalf("%s: stale pre-rollback seq 4 won over the re-finalized record", label)
		}
	}
	check(s, "live")
	s2, err := Open(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	check(s2, "reopened")
}

// TestCrashPointMatrix covers the segment crash boundaries the chaos
// runner also drives end-to-end: debris at each commit boundary must
// never make the manifest point at missing data, and everything the
// manifest references must still load.
func TestCrashPointMatrix(t *testing.T) {
	seed := func(t *testing.T) (string, *Store) {
		t.Helper()
		dir := t.TempDir()
		opts := DefaultOptions()
		opts.SegmentMaxBytes = 3 * int64(len(frame(rec(0, 1, 2))))
		s, err := OpenWith(dir, 0, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		for seq := 1; seq <= 6; seq++ {
			if err := s.Finalize(rec(0, seq, 2)); err != nil {
				t.Fatal(err)
			}
		}
		return dir, s
	}
	verify := func(t *testing.T, dir string) {
		t.Helper()
		s, err := Open(dir, 0, 2)
		if err != nil {
			t.Fatalf("reopen with crash debris: %v", err)
		}
		for _, seq := range s.Manifest().Seqs {
			if _, err := s.Load(seq); err != nil {
				t.Fatalf("manifest points at unloadable seq %d: %v", seq, err)
			}
		}
		for seq := 1; seq <= 6; seq++ {
			got, err := s.Load(seq)
			if err != nil {
				t.Fatalf("previously durable seq %d lost: %v", seq, err)
			}
			if !reflect.DeepEqual(got, rec(0, seq, 2)) {
				t.Fatalf("seq %d corrupted by crash debris", seq)
			}
		}
	}

	t.Run("torn segment header", func(t *testing.T) {
		// Crash while creating a fresh segment: only half the header hit
		// disk, and no manifest references the file.
		dir, s := seed(t)
		next := len(s.Manifest().Segments) + 1
		if err := os.WriteFile(SegmentFile(s.Dir(), next), []byte(segMagic[:4]), 0o644); err != nil {
			t.Fatal(err)
		}
		verify(t, dir)
	})

	t.Run("torn group-commit batch", func(t *testing.T) {
		// Crash mid-batch-append: garbage bytes sit beyond the durable
		// size of the active segment.
		dir, s := seed(t)
		segs := s.Manifest().Segments
		last := segs[len(segs)-1]
		f, err := os.OpenFile(SegmentFile(s.Dir(), last.Index), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("\x99\x00\x00\x00garbage-from-a-torn-batch")); err != nil {
			t.Fatal(err)
		}
		f.Close()
		verify(t, dir)
		// The tail was truncated: a second reopen sees a clean file.
		fi, err := os.Stat(SegmentFile(ProcDir(dir, 0), last.Index))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != last.Size {
			t.Fatalf("torn tail not truncated: size %d, durable %d", fi.Size(), last.Size)
		}
	})

	t.Run("crash between compaction and segment GC", func(t *testing.T) {
		// A segment file outside the log: a live one cloned under an
		// index its header does not name.
		dir, s := seed(t)
		segs := s.Manifest().Segments
		firstSeg := SegmentFile(s.Dir(), segs[0].Index)
		orphan := SegmentFile(s.Dir(), segs[len(segs)-1].Index+3)
		raw, err := os.ReadFile(firstSeg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(orphan, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		verify(t, dir)
		if _, err := os.Stat(orphan); !os.IsNotExist(err) {
			t.Fatalf("orphan segment survived the open sweep (err=%v)", err)
		}
	})

	t.Run("torn manifest over segments", func(t *testing.T) {
		// A torn hint an earlier build left: every record still comes from
		// the segments' durable bytes.
		dir, s := seed(t)
		raw := parentHint(s.Manifest())
		if err := os.WriteFile(filepath.Join(s.Dir(), hintName), raw[:len(raw)/3], 0o644); err != nil {
			t.Fatal(err)
		}
		verify(t, dir)
	})
}

// TestFinalizeBatch: whatever stops a batch — a record of another
// process, a seq not above LastSeq, a descending pair — exactly the
// prefix before the failing record commits (committing past it would gap
// the manifest); a batch whose one fsync fails commits nothing. Either
// way the first error is returned and counted once, and the rest commits
// on retry.
func TestFinalizeBatch(t *testing.T) {
	batch := func(proc int, seqs ...int) []checkpoint.Record {
		recs := make([]checkpoint.Record, 0, len(seqs))
		for _, seq := range seqs {
			recs = append(recs, rec(proc, seq, 1))
		}
		return recs
	}
	foreign := batch(0, 1, 2, 3, 4)
	foreign[2].Proc = 1
	cases := []struct {
		name     string
		pre      []checkpoint.Record // committed before the batch under test
		recs     []checkpoint.Record
		failOp   string // the fault hook fails the first call of this kind
		want     int
		wantSeqs []int
		retry    []checkpoint.Record
	}{
		{name: "injected write failure", recs: batch(0, 1, 2, 3), failOp: "sync",
			want: 0, wantSeqs: nil, retry: batch(0, 1, 2, 3)},
		{name: "wrong proc", recs: foreign,
			want: 2, wantSeqs: []int{1, 2}, retry: batch(0, 3, 4)},
		{name: "seq not above LastSeq", pre: batch(0, 1, 2), recs: batch(0, 2, 3),
			want: 0, wantSeqs: []int{1, 2}, retry: batch(0, 3)},
		{name: "descending pair", recs: batch(0, 1, 3, 2, 4),
			want: 2, wantSeqs: []int{1, 3}, retry: batch(0, 4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			sm := NewStoreMetrics(metrics.NewRegistry(), 0)
			s.SetMetrics(sm)
			if n, err := s.FinalizeBatch(tc.pre); err != nil || n != len(tc.pre) {
				t.Fatalf("pre-commit = (%d, %v)", n, err)
			}
			if tc.failOp != "" {
				s.SetFaultHook(failFirst(tc.failOp))
			}
			committed, err := s.FinalizeBatch(tc.recs)
			if err == nil {
				t.Fatal("batch failure not surfaced")
			}
			if committed != tc.want {
				t.Fatalf("committed = %d, want %d (prefix before the failing record)", committed, tc.want)
			}
			if got := s.Manifest().Seqs; !reflect.DeepEqual(got, tc.wantSeqs) {
				t.Fatalf("manifest seqs = %v, want %v", got, tc.wantSeqs)
			}
			if got := sm.FinalizeErrors.Value(); got != 1 {
				t.Fatalf("finalize-errors counter = %d, want 1", got)
			}
			if got, want := sm.Finalizes.Value(), int64(len(tc.pre)+tc.want); got != want {
				t.Fatalf("finalized counter = %d, want %d", got, want)
			}
			if n, err := s.FinalizeBatch(tc.retry); err != nil || n != len(tc.retry) {
				t.Fatalf("retry batch = (%d, %v), want (%d, nil)", n, err, len(tc.retry))
			}
			// Disk agrees with memory: a cold reopen loads back exactly the
			// records that were finalized.
			s2, err := Open(dir, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := s2.Manifest().Seqs, s.Manifest().Seqs; !reflect.DeepEqual(got, want) {
				t.Fatalf("reopened manifest seqs = %v, want %v", got, want)
			}
			finalized := slices.Concat(tc.pre, tc.recs[:tc.want], tc.retry)
			if got, err := s2.LoadAll(); err != nil || !reflect.DeepEqual(got, finalized) {
				t.Fatalf("reopened LoadAll = (%v, %v), want the finalized records %v", got, err, finalized)
			}
		})
	}
}

// TestStoreConcurrentUse drives the store the way the runtime does —
// one storage goroutine finalizing in batches while a rollback
// truncates, the node's GC step collects and the admin plane reads — and is
// meaningful under -race. Whatever interleaving ran, every manifested
// seq must load, live and after reopen.
func TestStoreConcurrentUse(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.SegmentMaxBytes = 5 * int64(len(frame(rec(0, 1, 2)))) // rotate, so GC has segments to unlink
	s, err := OpenWith(dir, 0, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	s.SetMetrics(NewStoreMetrics(metrics.NewRegistry(), 0))
	const rounds = 60
	stop := make(chan struct{})
	var readers sync.WaitGroup
	background := func(fn func()) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					fn()
				}
			}
		}()
	}
	background(func() { // rollback: drop the newest checkpoint
		if err := s.TruncateAfter(s.LastSeq() - 1); err != nil {
			t.Errorf("TruncateAfter: %v", err)
		}
	})
	background(func() { // GC: collect below the second-newest seq
		if seqs := s.Manifest().Seqs; len(seqs) > 2 {
			if err := s.GCTo(seqs[len(seqs)-2]); err != nil {
				t.Errorf("GCTo: %v", err)
			}
		}
	})
	background(func() { // admin plane and recovery reads
		// A seq read from the manifest may be truncated or collected before
		// the Load: only the race detector judges this goroutine.
		for _, q := range s.Manifest().Seqs {
			_, _ = s.Load(q)
		}
	})
	// The writer: like Node.persistFinalized it continues from LastSeq, so
	// a truncation just re-produces the dropped seqs.
	for i := 0; i < rounds; i++ {
		next := s.LastSeq() + 1
		if next < 1 {
			next = 1
		}
		// A TruncateAfter may slip in below next before the commit; the
		// batch still lands above whatever LastSeq is by then.
		if _, err := s.FinalizeBatch([]checkpoint.Record{rec(0, next, 2), rec(0, next+1, 1)}); err != nil {
			t.Fatalf("FinalizeBatch at seq %d: %v", next, err)
		}
	}
	close(stop)
	readers.Wait()
	// The truncator may have had the last word; end on a commit so the
	// checks below never pass on an empty manifest.
	if err := s.Finalize(rec(0, s.LastSeq()+2, 1)); err != nil {
		t.Fatal(err)
	}
	check := func(s *Store, label string) {
		t.Helper()
		seqs := s.Manifest().Seqs
		recs, err := s.LoadAll()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for i, r := range recs {
			if r.Seq != seqs[i] {
				t.Fatalf("%s: LoadAll[%d] is seq %d, manifest says %d", label, i, r.Seq, seqs[i])
			}
		}
	}
	check(s, "live")
	s2, err := OpenWith(dir, 0, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	check(s2, "reopened")
	// The GC floor was in memory: the reopened store may serve collected
	// seqs again, below the live ones, and otherwise agrees.
	got, want := s2.Manifest(), s.Manifest()
	if k := len(got.Seqs) - len(want.Seqs); k < 0 || !reflect.DeepEqual(got.Seqs[k:], want.Seqs) || !reflect.DeepEqual(got.Segments, want.Segments) {
		t.Fatalf("reopened manifest %+v does not end in the live one %+v", got, want)
	}
}

// copyDatadir copies a checked-in process directory into a fresh
// datadir and returns it.
func copyDatadir(t *testing.T, fixture string) string {
	t.Helper()
	datadir := t.TempDir()
	dst := ProcDir(datadir, 0)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join("testdata", fixture, "p0")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return datadir
}

func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if e.IsDir() {
			files[e.Name()+"/"] = nil
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = raw
	}
	return files
}

// TestPreviousFormatDatadirs pins the on-disk compatibility contract
// against directories the previous formats' builds wrote
// (testdata/parent-*: seqs 1..5 of the rec fixture under an OCSMSEG1
// header, 5 full JSON records vs 1 full + 4 deltas; and under this
// header as kind-1 records, whose encoding lacks JoinedBy, and as kind-3
// records, whose log entries carry two timestamps and absolute IDs),
// against a log of this format that ends in a frame of a kind this build
// does not know, and against another process's log moved into this
// process's directory. Each is durable data this build may not read as
// its own: Open and readManifest must fail naming the format, the kind or
// the owner, and the segment, and Open must not truncate, sweep or
// rewrite anything. Each runs twice, beside the hint an earlier build left
// (or would have: a fresh one where the directory has none) and beside
// that hint torn; the row names keep the scans that once read the two.
// (Before the refusal, a header of another format was debris: the first
// Open unlinked every acknowledged checkpoint. Before the owner check
// moved into the header, only the hint stopped Open of P0 from deleting a
// log of P1's.)
func TestPreviousFormatDatadirs(t *testing.T) {
	fixture := func(name string) func(*testing.T) string {
		return func(t *testing.T) string { return copyDatadir(t, name) }
	}
	laterKind := func(t *testing.T) string {
		dir := t.TempDir()
		s, err := Open(dir, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		finalizeUpTo(t, s, 3)
		active := s.Manifest().Segments[0]
		f, err := os.OpenFile(SegmentFile(s.Dir(), active.Index), os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt(sealFrame(openFrame(nil, kindFull+1)), active.Size); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	// otherOwner is a log of P1's (rotated, so two segments) moved into
	// P0's directory.
	otherOwner := func(t *testing.T) string {
		dir := t.TempDir()
		s, err := OpenWith(dir, 1, 2, Options{SegmentMaxBytes: 3 * int64(len(frame(rec(1, 1, 2))))})
		if err != nil {
			t.Fatal(err)
		}
		for seq := 1; seq <= 5; seq++ {
			if err := s.Finalize(rec(1, seq, 2)); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.Rename(ProcDir(dir, 1), ProcDir(dir, 0)); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	seg := filepath.Base(SegmentFile("", 1))
	for _, tc := range []struct {
		name    string
		datadir func(*testing.T) string
		want    []string
	}{
		{"parent-full", fixture("parent-full"), []string{`"OCSMSEG1"`, seg}},
		{"parent-delta", fixture("parent-delta"), []string{`"OCSMSEG1"`, seg}},
		{"parent-kind1", fixture("parent-kind1"), []string{"unsupported record kind 1", seg}},
		{"parent-kind3", fixture("parent-kind3"), []string{"unsupported record kind 3", seg}},
		{"a later record kind", laterKind, []string{fmt.Sprintf("unsupported record kind %d", kindFull+1), seg}},
		{"another process's log", otherOwner, []string{"names P1, not P0", seg}},
	} {
		for _, tornHint := range []bool{false, true} {
			name := tc.name + " refused by the manifest-led scan"
			if tornHint {
				name = tc.name + " refused by the torn-hint scan"
			}
			t.Run(name, func(t *testing.T) {
				dir := tc.datadir(t)
				pdir := ProcDir(dir, 0)
				// Files a successful Open would leave alone stay too.
				if err := os.WriteFile(filepath.Join(pdir, ".tmp-stale"), []byte("x"), 0o644); err != nil {
					t.Fatal(err)
				}
				hint := readDir(t, pdir)[hintName]
				if hint == nil {
					hint = parentHint(Manifest{Proc: 0, N: 2, Seqs: []int{1, 2, 3}})
				}
				if tornHint {
					hint = hint[:len(hint)/2]
				}
				if err := os.WriteFile(filepath.Join(pdir, hintName), hint, 0o644); err != nil {
					t.Fatal(err)
				}
				before := readDir(t, pdir)
				for _, read := range []func() error{
					func() error { _, err := Open(dir, 0, 2); return err },
					func() error { _, err := readManifest(dir, 0, bufio.NewReader(nil)); return err },
				} {
					err := read()
					if err == nil {
						t.Fatal("the datadir was read as P0's")
					}
					for _, want := range tc.want {
						if !strings.Contains(err.Error(), want) {
							t.Fatalf("refusal %q does not name %s", err, want)
						}
					}
				}
				if after := readDir(t, pdir); !reflect.DeepEqual(after, before) {
					t.Fatal("the refused directory was modified")
				}
			})
		}
	}
}
