package fsstore

// Tests of the one-sync commit's contract: the segment log is the only
// durable artefact. A commit writes the log and nothing else, Open and
// every poller read the log alone, and a MANIFEST.json hint that an
// earlier build left beside it is ignored, whatever it holds.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"ocsml/internal/checkpoint"
	"ocsml/internal/metrics"
)

// hintName is the file in which earlier builds published a manifest hint
// beside the log. This build neither writes nor reads it; tests plant one
// to show that.
const hintName = "MANIFEST.json"

// parentHint renders m as the hint an earlier build published: its seqs
// folded into closed runs [first, last].
func parentHint(m Manifest) []byte {
	runs := [][2]int{}
	for _, q := range m.Seqs {
		if k := len(runs) - 1; k >= 0 && runs[k][1]+1 == q {
			runs[k][1] = q
		} else {
			runs = append(runs, [2]int{q, q})
		}
	}
	data, err := json.Marshal(struct {
		Proc     int           `json:"proc"`
		N        int           `json:"n"`
		Runs     [][2]int      `json:"runs"`
		Segments []SegmentMeta `json:"segments,omitempty"`
	}{m.Proc, m.N, runs, m.Segments})
	if err != nil {
		panic(err) // ints and slices of ints
	}
	return data
}

// finalizeUpTo finalizes rec(0, seq, 2) for seq 1..last into a fresh
// store, one commit each.
func finalizeUpTo(t *testing.T, s *Store, last int) {
	t.Helper()
	for seq := 1; seq <= last; seq++ {
		if err := s.Finalize(rec(0, seq, 2)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMissingManifestKeepsSegments: the segments are the whole store. A
// commit leaves nothing beside them, and a reopen serves every record
// from them alone.
func TestMissingManifestKeepsSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	finalizeUpTo(t, s, 6)
	for name := range readDir(t, s.Dir()) {
		if _, ok := parseSegmentName(name); !ok {
			t.Fatalf("the commits left %s beside the segments", name)
		}
	}
	s2, err := Open(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Manifest().Seqs; !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("seqs after reopening = %v, want [1 2 3 4 5 6]", got)
	}
	for seq := 1; seq <= 6; seq++ {
		if got, err := s2.Load(seq); err != nil || !reflect.DeepEqual(got, rec(0, seq, 2)) {
			t.Fatalf("Load(%d) after reopening = (%+v, %v)", seq, got, err)
		}
	}
}

// TestCommittedBatchEndsTheFile: a commit whose write or sync failed
// leaves its frames beyond the durable size. The retry may be
// shorter, and Open scans to the first frame that does not verify — so
// the commit must cut the file at its own end, or the stale frames
// verify behind it and come back as checkpoints nobody finalized.
// (At the parent the stale frames were harmless: its Open never read
// past the manifest's sizes.)
func TestCommittedBatchEndsTheFile(t *testing.T) {
	for _, tc := range []struct {
		name  string
		retry checkpoint.Record
	}{
		// Stale seq 8 sits exactly behind an equal-length seq 7.
		{"retry of the same length", rec(0, 7, 2)},
		{"shorter retry", rec(0, 7, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			finalizeUpTo(t, s, 6)
			active := s.Manifest().Segments[0]
			path := SegmentFile(s.Dir(), active.Index)
			f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			stale := append(frame(rec(0, 7, 2)), frame(rec(0, 8, 2))...)
			if _, err := f.WriteAt(stale, active.Size); err != nil {
				t.Fatal(err)
			}
			f.Close()

			if err := s.Finalize(tc.retry); err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := s.Manifest().Segments[0].Size; fi.Size() != want {
				t.Fatalf("segment is %d bytes after the commit, want it to end at the batch (%d)", fi.Size(), want)
			}
			s2, err := Open(dir, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got := s2.LastSeq(); got != 7 {
				t.Fatalf("reopened LastSeq = %d, want 7 (stale seq 8 verified behind the retry)", got)
			}
			if got, err := s2.Load(7); err != nil || !reflect.DeepEqual(got, tc.retry) {
				t.Fatalf("reopened Load(7) = (%+v, %v), want the retried record", got, err)
			}
		})
	}
}

// TestLostHintMatrix pins that a hint an earlier build left is ignored,
// one datadir per (history, hint) pair: whatever MANIFEST.json holds —
// the hint that build would have published after any operation of the
// history, an empty file, garbage, nothing — Open serves every
// acknowledged checkpoint with its acknowledged content and never a
// rolled-back one, serves exactly what it serves with no hint at all,
// leaves the hint as it was, and leaves a directory a second Open has
// nothing to do to. The GC floor is in memory only, so a reopen may serve
// again a collected seq whose segment survived (mayAlso).
func TestLostHintMatrix(t *testing.T) {
	opts := DefaultOptions()
	opts.SegmentMaxBytes = 3 * int64(len(frame(rec(0, 1, 2)))) // three rec(0, seq, 2) frames to a segment
	type op func(*Store) error
	finalize := func(r checkpoint.Record) op { return func(s *Store) error { return s.Finalize(r) } }
	oneToSix := func() []op {
		var ops []op
		for seq := 1; seq <= 6; seq++ {
			ops = append(ops, finalize(rec(0, seq, 2)))
		}
		return ops
	}
	truncate3 := func(s *Store) error { return s.TruncateAfter(3) }
	originals := func(seqs ...int) map[int]checkpoint.Record {
		m := map[int]checkpoint.Record{}
		for _, q := range seqs {
			m[q] = rec(0, q, 2)
		}
		return m
	}
	refinalized := originals(1, 2, 3)
	refinalized[4], refinalized[5] = rec(0, 4, 0), rec(0, 5, 3)

	histories := []struct {
		name string
		ops  []op
		// acked is what the history acknowledged and did not roll back;
		// mayAlso lists collected seqs a reopen may serve again.
		acked   map[int]checkpoint.Record
		mayAlso []int
	}{
		{name: "commits across a rotation", ops: oneToSix(), acked: originals(1, 2, 3, 4, 5, 6)},
		{name: "rollback", ops: append(oneToSix(), truncate3), acked: originals(1, 2, 3)},
		{name: "rollback then re-finalize",
			ops:   append(oneToSix(), truncate3, finalize(refinalized[4]), finalize(refinalized[5])),
			acked: refinalized},
		{name: "GC of a whole segment",
			ops:   append(oneToSix(), func(s *Store) error { return s.GCTo(4) }),
			acked: originals(4, 5, 6)},
		{name: "GC inside a segment",
			ops:   append(oneToSix(), func(s *Store) error { return s.GCTo(5) }),
			acked: originals(5, 6), mayAlso: []int{4}},
		// Nothing in the runtime rolls back below a collected watermark,
		// but the API allows it: the collected 5 survives in its segment
		// above the re-finalized 4', which unbinds it.
		{name: "GC, rollback below the floor, lower re-finalize",
			ops: append(oneToSix(), func(s *Store) error { return s.GCTo(6) },
				func(s *Store) error { return s.TruncateAfter(5) }, finalize(rec(0, 4, 0))),
			acked: map[int]checkpoint.Record{4: rec(0, 4, 0)}},
	}
	for _, h := range histories {
		// Build the history once, keeping the hint an earlier build would
		// have published after each operation.
		master := t.TempDir()
		s, err := OpenWith(master, 0, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		type hintCase struct {
			name string
			data []byte // nil: no file
		}
		hints := []hintCase{{"absent", nil}, {"zero-length", []byte{}}, {"garbage", []byte("{nope")}}
		for i, o := range h.ops {
			if err := o(s); err != nil {
				t.Fatalf("%s: op %d: %v", h.name, i, err)
			}
			name := "current"
			if i < len(h.ops)-1 {
				name = fmt.Sprintf("as published by op %d", i+1)
			}
			hints = append(hints, hintCase{name, parentHint(s.Manifest())})
		}
		files := readDir(t, s.Dir())

		var bare Manifest // what Open serves with no hint: the first row's
		for _, hc := range hints {
			t.Run(h.name+"/"+hc.name, func(t *testing.T) {
				dir := t.TempDir()
				pdir := ProcDir(dir, 0)
				if err := os.MkdirAll(pdir, 0o755); err != nil {
					t.Fatal(err)
				}
				for name, raw := range files {
					if err := os.WriteFile(filepath.Join(pdir, name), raw, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				if hc.data != nil {
					if err := os.WriteFile(filepath.Join(pdir, hintName), hc.data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				s, err := OpenWith(dir, 0, 2, opts)
				if err != nil {
					t.Fatal(err)
				}
				seqs := s.Manifest().Seqs
				for q, want := range h.acked {
					if got, err := s.Load(q); err != nil || !reflect.DeepEqual(got, want) {
						t.Errorf("acknowledged seq %d: Load = (%+v, %v), want %+v", q, got, err, want)
					}
				}
				for _, q := range seqs {
					_, acked := h.acked[q]
					if !acked && !slices.Contains(h.mayAlso, q) {
						t.Errorf("seqs %v: seq %d was rolled back or never acknowledged", seqs, q)
					}
					// A collected seq that comes back is the record it was.
					if got, err := s.Load(q); err != nil || (!acked && !reflect.DeepEqual(got, rec(0, q, 2))) {
						t.Errorf("listed seq %d: Load = (%+v, %v)", q, got, err)
					}
				}
				if hc.data == nil {
					bare = s.Manifest()
				} else if got := s.Manifest(); !reflect.DeepEqual(got, bare) {
					t.Errorf("manifest under this hint %+v, with none %+v", got, bare)
				}
				if raw, err := os.ReadFile(filepath.Join(pdir, hintName)); hc.data != nil && (err != nil || !slices.Equal(raw, hc.data)) {
					t.Errorf("the hint after Open = (%q, %v), want it as it was", raw, err)
				}
				// The repair is complete: a second Open changes nothing.
				if s2, ops := writesOfOpen(t, dir, opts); len(ops) != 0 {
					t.Errorf("a second Open changed the directory: %v", ops)
				} else if got, want := s2.Manifest(), s.Manifest(); !reflect.DeepEqual(got, want) {
					t.Errorf("second reopen manifest %+v, first %+v", got, want)
				}
			})
		}
	}
}

// writesOfOpen reopens the store and returns the directory-changing calls
// the Open made: empty means Open found nothing to repair.
func writesOfOpen(t *testing.T, datadir string, opts Options) (*Store, []string) {
	t.Helper()
	var ops []string
	s, err := openWith(datadir, 0, 2, opts, func(op, path string) error {
		ops = append(ops, op+" "+filepath.Base(path))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetFaultHook(nil)
	return s, ops
}

// TestCommitAndOpenDirectoryOps pins what a commit and an Open do to the
// directory, logged through the fault hook: a FinalizeBatch into an
// existing segment and a TruncateAfter are each a create, write, truncate
// and sync of that segment and nothing else, and an Open of a clean
// directory — or of none — makes no call at all. What a commit hands to
// stable storage does not grow with the history: the commit of seq 2,000
// costs the commit of seq 20 plus the seq's own digits.
func TestCommitAndOpenDirectoryOps(t *testing.T) {
	dir := t.TempDir()
	if _, ops := writesOfOpen(t, dir, DefaultOptions()); len(ops) != 0 {
		t.Fatalf("Open of a datadir with no store in it changed the directory: %v", ops)
	}
	s, err := Open(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := NewStoreMetrics(metrics.NewRegistry(), 0)
	s.SetMetrics(m)
	var ops []string
	s.SetFaultHook(func(op, path string) error {
		ops = append(ops, op+" "+filepath.Base(path))
		return nil
	})
	seg := filepath.Base(SegmentFile("", 1))
	want := []string{"create " + seg, "write " + seg, "truncate " + seg, "sync " + seg}
	at := func(seq int) checkpoint.Record {
		r := rec(0, 1, 2)
		r.Seq = seq
		return r
	}
	// commit finalizes every seq below point in batches of 50, then point
	// alone, and returns what that one commit wrote.
	next := 1
	commit := func(point int) int64 {
		t.Helper()
		for next < point {
			var batch []checkpoint.Record
			for ; next < point && len(batch) < 50; next++ {
				batch = append(batch, at(next))
			}
			if _, err := s.FinalizeBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		ops = nil
		before := m.BytesWritten.Value()
		if _, err := s.FinalizeBatch([]checkpoint.Record{at(point)}); err != nil {
			t.Fatal(err)
		}
		next = point + 1
		if !slices.Equal(ops, want) {
			t.Fatalf("the commit of seq %d changed the directory by %v, want %v", point, ops, want)
		}
		return m.BytesWritten.Value() - before
	}
	step20 := commit(20)
	step2000 := commit(2000)
	if got := len(s.Manifest().Segments); got != 1 {
		t.Fatalf("the history spans %d segments, want 1", got)
	}
	// Two seq fields (the frame's and the record's), one varint byte more
	// each at 2,000 than at 20.
	if d := step2000 - step20; d != 2 {
		t.Errorf("a commit wrote %d B at seq 20 and %d B at seq 2000: %d B more, want 2", step20, step2000, d)
	}
	ops = nil
	if err := s.TruncateAfter(1990); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ops, want) {
		t.Fatalf("TruncateAfter changed the directory by %v, want %v", ops, want)
	}
	s.SetFaultHook(nil)
	if _, ops := writesOfOpen(t, dir, DefaultOptions()); len(ops) != 0 {
		t.Fatalf("Open of a clean directory changed it: %v", ops)
	}
}

// TestPollFlatInHistory: a poll streams each segment through one reused
// buffer, so what readManifest and LastCompleteSeq allocate does not grow
// with the history, apart from the seq lists they build. Over a
// 4-process datadir, a poll at 2,000 records per process makes exactly as
// many allocations as one at 20, plus what growing those lists by append
// costs (one list for readManifest, four for LastCompleteSeq). Reading
// each file whole would allocate the log's size on every poll, and the
// benchmark polls with its collector off.
func TestPollFlatInHistory(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const procs = 4
	appendAllocs := func(k int) float64 {
		var seqs []int
		n := 0
		for i := 0; i < k; i++ {
			if len(seqs) == cap(seqs) {
				n++
			}
			seqs = append(seqs, i)
		}
		return float64(n)
	}
	measure := func(records int) (read, last float64) {
		dir := t.TempDir()
		for p := 0; p < procs; p++ {
			s, err := Open(dir, p, procs)
			if err != nil {
				t.Fatal(err)
			}
			for seq := 1; seq <= records; {
				var batch []checkpoint.Record
				for ; seq <= records && len(batch) < 100; seq++ {
					batch = append(batch, rec(p, seq, 2))
				}
				if _, err := s.FinalizeBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
		}
		read = testing.AllocsPerRun(20, func() {
			if m, err := readManifest(dir, 0, bufio.NewReader(nil)); err != nil || len(m.Seqs) != records {
				t.Fatalf("readManifest = (%d seqs, %v), want %d", len(m.Seqs), err, records)
			}
		})
		last = testing.AllocsPerRun(20, func() {
			if got, err := LastCompleteSeq(dir, procs); err != nil || got != records {
				t.Fatalf("LastCompleteSeq = (%d, %v), want %d", got, err, records)
			}
		})
		return read, last
	}
	read20, last20 := measure(20)
	read2k, last2k := measure(2000)
	grow := appendAllocs(2000) - appendAllocs(20)
	t.Logf("readManifest %v -> %v allocs, LastCompleteSeq %v -> %v; a list's growth %v", read20, read2k, last20, last2k, grow)
	if read2k-read20 != grow {
		t.Errorf("readManifest allocates %v times at 20 records and %v at 2,000, want %v more", read20, read2k, grow)
	}
	if last2k-last20 != procs*grow {
		t.Errorf("LastCompleteSeq allocates %v times at 20 records and %v at 2,000, want %v more", last20, last2k, procs*grow)
	}
}

// TestScanRacesWriter: a poll beside a live writer — commits of three
// records, a rotation every four, GC unlinking the leading segments —
// never fails, though it meets half-written tails, newborn segments and
// segments unlinked since it listed them, and never reports a seq above
// the writer's last acknowledged seq plus the batch in flight.
func TestScanRacesWriter(t *testing.T) {
	const batch = 3
	dir := t.TempDir()
	opts := Options{SegmentMaxBytes: 4 * int64(len(frame(rec(0, 1, 2))))}
	s, err := OpenWith(dir, 0, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for next := 1; next < 600; next += batch {
			recs := make([]checkpoint.Record, 0, batch)
			for q := next; q < next+batch; q++ {
				recs = append(recs, rec(0, q, 2))
			}
			if _, err := s.FinalizeBatch(recs); err != nil {
				t.Error(err)
				return
			}
			if err := s.GCTo(next - 4); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	polls := 0
	for !done.Load() {
		m, err := readManifest(dir, 0, bufio.NewReader(nil))
		if err != nil {
			t.Fatalf("poll %d: %v", polls, err)
		}
		if bound := s.LastSeq() + batch; m.LastSeq() > bound {
			t.Fatalf("poll %d reports seq %d, above the last acknowledged seq plus a batch (%d)", polls, m.LastSeq(), bound)
		}
		polls++
	}
	wg.Wait()
	if m, err := readManifest(dir, 0, bufio.NewReader(nil)); err != nil || m.LastSeq() != s.LastSeq() {
		t.Fatalf("the poll after the writer = (last %d, %v), want %d", m.LastSeq(), err, s.LastSeq())
	}
	t.Logf("%d polls", polls)
}

// failAfter is a segment file whose reads fail with EIO once left bytes
// have been read from it.
type failAfter struct {
	*os.File
	left int
}

func (f *failAfter) Read(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, syscall.EIO
	}
	if len(p) > f.left {
		p = p[:f.left]
	}
	n, err := f.File.Read(p)
	f.left -= n
	return n, err
}

// TestReadErrorRefused: only the end of a file makes a header or a frame
// short. A read that fails any other way says nothing of what the file
// holds, so scanSegment, Open and the pollers return the error, and Open
// repairs nothing, though the directory holds a torn tail and a torn
// segment that a clean Open would cut and sweep. The read fails inside
// the header, inside a frame header, and inside the payload of a frame
// that verifies; then a real one, EISDIR from a directory that bears a
// segment's name.
func TestReadErrorRefused(t *testing.T) {
	dir := t.TempDir()
	fr := len(frame(rec(0, 1, 2)))
	s, err := OpenWith(dir, 0, 2, Options{SegmentMaxBytes: int64(segHeaderSize + 2*fr)})
	if err != nil {
		t.Fatal(err)
	}
	finalizeUpTo(t, s, 5)
	pdir := s.Dir()
	segs := s.Manifest().Segments
	active := SegmentFile(pdir, segs[len(segs)-1].Index)
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame(rec(0, 6, 2))[:fr/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.WriteFile(SegmentFile(pdir, 9), []byte(segMagic[:5]), 0o644); err != nil {
		t.Fatal(err)
	}
	before := readDir(t, pdir)
	first := SegmentFile(pdir, segs[0].Index)
	raw := before[filepath.Base(first)]

	for _, tc := range []struct {
		name string
		cut  int
	}{
		{"in the header", 5},
		{"in a frame header", segHeaderSize + 3},
		{"in a verifying frame's payload", segHeaderSize + fr + fr/2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []int
			_, err := scanSegment(bufio.NewReaderSize(nil, 16), &failAfter{left: tc.cut, File: mustOpen(t, first)}, first, 0, segs[0].Index,
				func(f scannedFrame) { got = append(got, f.seq) })
			if !errors.Is(err, syscall.EIO) {
				t.Fatalf("scanSegment = %v after frames %v, want EIO", err, got)
			}
			if full, err := scanSegment(bufio.NewReader(nil), bytes.NewReader(raw), first, 0, segs[0].Index, func(scannedFrame) {}); err != nil || full != int64(len(raw)) {
				t.Fatalf("the file itself scans to %d of %d B, %v", full, len(raw), err)
			}

			openSegment = func(path string) (io.ReadCloser, error) {
				f, err := os.Open(path)
				if err != nil || path != first {
					return f, err
				}
				return &failAfter{File: f, left: tc.cut}, nil
			}
			defer func() { openSegment = func(path string) (io.ReadCloser, error) { return os.Open(path) } }()
			if _, err := Open(dir, 0, 2); !errors.Is(err, syscall.EIO) {
				t.Fatalf("Open = %v, want EIO", err)
			}
			if _, err := readManifest(dir, 0, bufio.NewReader(nil)); !errors.Is(err, syscall.EIO) {
				t.Fatalf("readManifest = %v, want EIO", err)
			}
			if _, err := LastCompleteSeq(dir, 1); !errors.Is(err, syscall.EIO) {
				t.Fatalf("LastCompleteSeq = %v, want EIO", err)
			}
			if after := readDir(t, pdir); !reflect.DeepEqual(after, before) {
				t.Fatal("a read error changed the directory")
			}
		})
	}

	t.Run("a directory named as a segment", func(t *testing.T) {
		if err := os.Mkdir(SegmentFile(pdir, 7), 0o755); err != nil {
			t.Fatal(err)
		}
		before := readDir(t, pdir)
		if _, err := Open(dir, 0, 2); !errors.Is(err, syscall.EISDIR) {
			t.Fatalf("Open = %v, want EISDIR", err)
		}
		if after := readDir(t, pdir); !reflect.DeepEqual(after, before) {
			t.Fatal("a read error changed the directory")
		}
	})
}

func mustOpen(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestHostileHints: a hint an earlier build left costs a reader nothing,
// whatever its runs claim, since no reader opens it. readManifest and
// LastCompleteSeq read the log, allocating nothing like what the runs
// claim, and Open serves the log's seqs and leaves the hint as it was.
func TestHostileHints(t *testing.T) {
	for _, runs := range []string{
		`[[0,1099511627776]]`,           // 1<<40 seqs in one run
		`[[5,3]]`,                       // last < first
		`[[1,4],[3,9]]`,                 // overlapping
		`[[7,9],[1,2]]`,                 // descending
		`[[-2,1]]`,                      // negative bound
		`[[1,600000],[600001,1200000]]`, // each run plausible, the total over a million
	} {
		t.Run(runs, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			finalizeUpTo(t, s, 3)
			segs, err := json.Marshal(s.Manifest().Segments)
			if err != nil {
				t.Fatal(err)
			}
			hint := fmt.Sprintf(`{"proc":0,"n":2,"runs":%s,"segments":%s}`, runs, segs)
			if err := os.WriteFile(filepath.Join(s.Dir(), hintName), []byte(hint), 0o644); err != nil {
				t.Fatal(err)
			}
			want := []int{1, 2, 3}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := readManifest(dir, 0, bufio.NewReader(nil))
			runtime.ReadMemStats(&after)
			if err != nil || !reflect.DeepEqual(m.Seqs, want) {
				t.Errorf("readManifest = (%v, %v), want the log's %v", m.Seqs, err, want)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
				t.Errorf("readManifest allocated %d B beside a %d B hint", got, len(hint))
			}
			if got, err := LastCompleteSeq(dir, 1); err != nil || got != 3 {
				t.Errorf("LastCompleteSeq = (%d, %v), want 3", got, err)
			}

			runtime.ReadMemStats(&before)
			s2, err := Open(dir, 0, 2)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("Open failed beside a hint it does not read: %v", err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
				t.Errorf("Open allocated %d B beside a %d B hint and three records", got, len(hint))
			}
			if got := s2.Manifest().Seqs; !reflect.DeepEqual(got, want) {
				t.Errorf("seqs after Open = %v, want %v", got, want)
			}
			if raw := readDir(t, s2.Dir())[hintName]; string(raw) != hint {
				t.Errorf("the hint after Open = %s, want it as it was", raw)
			}
		})
	}
}

// TestHintFormats: a gapped log reads the same through the store and
// through a poll, and a hint in either format an earlier build wrote —
// closed runs, or every seq listed — is ignored: everything acknowledged
// is served, the file is left as it was, and a GC floor only the hint
// carried is gone (more served than asked for, never a rolled-back
// record).
func TestHintFormats(t *testing.T) {
	oldFormat := func(t *testing.T, m Manifest) []byte {
		t.Helper()
		data, err := json.Marshal(&m) // the exported struct is the format that listed every seq
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	t.Run("gapped manifest round-trips", func(t *testing.T) {
		// A log whose middle frame is gone: {1,2,3,5,6}.
		dir := t.TempDir()
		pdir := ProcDir(dir, 0)
		if err := os.MkdirAll(pdir, 0o755); err != nil {
			t.Fatal(err)
		}
		seg := segmentHeader(0, 1)
		for _, q := range []int{1, 2, 3, 5, 6} {
			seg = append(seg, frame(rec(0, q, 2))...)
		}
		if err := os.WriteFile(SegmentFile(pdir, 1), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		check := func(s *Store, want []int) {
			t.Helper()
			if got := s.Manifest().Seqs; !reflect.DeepEqual(got, want) {
				t.Fatalf("Manifest().Seqs = %v, want %v", got, want)
			}
			m, err := readManifest(dir, 0, bufio.NewReader(nil))
			m.N = 2
			if err != nil || !reflect.DeepEqual(m, s.Manifest()) {
				t.Fatalf("readManifest = (%+v, %v), want the store's manifest %+v", m, err, s.Manifest())
			}
		}
		check(s, []int{1, 2, 3, 5, 6})
		s, ops := writesOfOpen(t, dir, DefaultOptions())
		if len(ops) != 0 {
			t.Fatalf("reopening wrote: %v", ops)
		}
		check(s, []int{1, 2, 3, 5, 6})
		if err := s.Finalize(rec(0, 7, 0)); err != nil {
			t.Fatal(err)
		}
		check(s, []int{1, 2, 3, 5, 6, 7})
		if all, err := CompleteSeqs(dir, 1); err != nil || !reflect.DeepEqual(all, []int{1, 2, 3, 5, 6, 7}) {
			t.Fatalf("CompleteSeqs = (%v, %v)", all, err)
		}
	})

	t.Run("previous-format hint is ignored", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		for seq := 1; seq <= 5; seq++ {
			if err := s.Finalize(rec(0, seq, seq%3)); err != nil {
				t.Fatal(err)
			}
		}
		hint := oldFormat(t, s.Manifest())
		if err := os.WriteFile(filepath.Join(s.Dir(), hintName), hint, 0o644); err != nil {
			t.Fatal(err)
		}
		want := []int{1, 2, 3, 4, 5}
		if m, err := readManifest(dir, 0, bufio.NewReader(nil)); err != nil || !reflect.DeepEqual(m.Seqs, want) {
			t.Fatalf("readManifest = (%v, %v), want the log's %v", m.Seqs, err, want)
		}
		s, ops := writesOfOpen(t, dir, DefaultOptions())
		if len(ops) != 0 {
			t.Fatalf("Open wrote: %v", ops)
		}
		if got := s.Manifest().Seqs; !reflect.DeepEqual(got, want) {
			t.Fatalf("seqs = %v, want %v", got, want)
		}
		if recs, err := s.LoadAll(); err != nil || len(recs) != 5 {
			t.Fatalf("LoadAll = (%d records, %v), want 5", len(recs), err)
		}
		if raw := readDir(t, s.Dir())[hintName]; !slices.Equal(raw, hint) {
			t.Fatalf("hint after Open = %s, want it as it was", raw)
		}
	})

	t.Run("previous-format hint that carried a GC floor", func(t *testing.T) {
		opts := DefaultOptions()
		opts.SegmentMaxBytes = 3 * int64(len(frame(rec(0, 1, 2)))) // three rec(0, seq, 2) frames to a segment
		dir := t.TempDir()
		s, err := OpenWith(dir, 0, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		finalizeUpTo(t, s, 6)
		if err := s.TruncateAfter(5); err != nil { // 6 is rolled back
			t.Fatal(err)
		}
		again := rec(0, 6, 0)
		if err := s.Finalize(again); err != nil {
			t.Fatal(err)
		}
		if err := s.GCTo(5); err != nil { // 1..3 go with their segment; 4 is collected in place
			t.Fatal(err)
		}
		kept := s.Manifest()
		if !reflect.DeepEqual(kept.Seqs, []int{5, 6}) {
			t.Fatalf("seqs after GCTo(5) = %v, want [5 6]", kept.Seqs)
		}
		if err := os.WriteFile(filepath.Join(s.Dir(), hintName), oldFormat(t, kept), 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := OpenWith(dir, 0, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		// The floor was in memory: the collected 4, whose segment survives,
		// is served again. The rolled-back 6 is not.
		if got := s2.Manifest().Seqs; !reflect.DeepEqual(got, []int{4, 5, 6}) {
			t.Fatalf("seqs = %v, want [4 5 6]: the kept seqs and the collected one still on disk", got)
		}
		for q, want := range map[int]checkpoint.Record{4: rec(0, 4, 2), 5: rec(0, 5, 2), 6: again} {
			if r, err := s2.Load(q); err != nil || !reflect.DeepEqual(r, want) {
				t.Fatalf("Load(%d) = (%+v, %v), want %+v", q, r, err, want)
			}
		}
		if _, ops := writesOfOpen(t, dir, opts); len(ops) != 0 {
			t.Fatalf("a second Open wrote: %v", ops)
		}
	})
}

// TestParentHintDatadir opens testdata/parent-hint, a directory the build
// before this one wrote (seqs 1..5 of rec(0, seq, 2), Open(dir, 0, 2)):
// beside its segment lie the MANIFEST.json hint that build published and
// a temp file of a publication whose rename failed. It opens without
// changing anything, serves every seq, loads each record, and polls the
// same; the two files stay as they were.
func TestParentHintDatadir(t *testing.T) {
	dir := copyDatadir(t, "parent-hint")
	pdir := ProcDir(dir, 0)
	before := readDir(t, pdir)
	var temps int
	for name := range before {
		if len(name) > 5 && name[:5] == ".tmp-" {
			temps++
		}
	}
	if before[hintName] == nil || temps != 1 {
		t.Fatalf("the fixture holds %d files, want a segment, the hint and one temp file", len(before))
	}
	s, ops := writesOfOpen(t, dir, DefaultOptions())
	if len(ops) != 0 {
		t.Fatalf("Open changed the directory: %v", ops)
	}
	want := []int{1, 2, 3, 4, 5}
	if got := s.Manifest().Seqs; !reflect.DeepEqual(got, want) {
		t.Fatalf("seqs = %v, want %v", got, want)
	}
	for _, q := range want {
		if got, err := s.Load(q); err != nil || !reflect.DeepEqual(got, rec(0, q, 2)) {
			t.Fatalf("Load(%d) = (%+v, %v), want %+v", q, got, err, rec(0, q, 2))
		}
	}
	if m, err := readManifest(dir, 0, bufio.NewReader(nil)); err != nil || !reflect.DeepEqual(m.Seqs, want) {
		t.Fatalf("readManifest = (%v, %v), want %v", m.Seqs, err, want)
	}
	if err := s.Finalize(rec(0, 6, 1)); err != nil {
		t.Fatal(err)
	}
	after := readDir(t, pdir)
	for name, raw := range before {
		if _, seg := parseSegmentName(name); !seg && !slices.Equal(after[name], raw) {
			t.Fatalf("%s changed", name)
		}
	}
}
