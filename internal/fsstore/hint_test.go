package fsstore

// Tests of the one-sync commit's contract: the segment log alone says
// what is durable, and MANIFEST.json is a hint whose loss, staleness or
// corruption costs an Open nothing.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ocsml/internal/checkpoint"
	"ocsml/internal/metrics"
)

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

// TestMissingManifestKeepsSegments: segments without a MANIFEST.json are
// a lost hint, not debris. (The parent treated every segment as
// unreferenced and swept them all: the reopened store was empty.)
func TestMissingManifestKeepsSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	finalizeUpTo(t, s, 6)
	if err := os.Remove(filepath.Join(s.Dir(), "MANIFEST.json")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Manifest().Seqs; !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("seqs after reopening without a manifest = %v, want [1 2 3 4 5 6]", got)
	}
	for seq := 1; seq <= 6; seq++ {
		if got, err := s2.Load(seq); err != nil || !reflect.DeepEqual(got, rec(0, seq, 2)) {
			t.Fatalf("Load(%d) after reopening without a manifest = (%+v, %v)", seq, got, err)
		}
	}
}

// TestCommittedBatchEndsTheFile: a commit whose sync or publication
// failed leaves its frames beyond the durable size. The retry may be
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
			if err := os.Remove(filepath.Join(s.Dir(), "MANIFEST.json")); err != nil {
				t.Fatal(err)
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

// TestLostHintMatrix pins the contract of the package comment, one
// datadir per (history, hint) pair: whatever MANIFEST.json holds after
// a crash — the current hint, any version published earlier, an empty
// file, garbage, nothing — Open serves every acknowledged checkpoint
// with its acknowledged content, never a rolled-back one, and leaves a
// directory a second Open has nothing to do to. Under the parent every
// "zero-length", "garbage" and "absent" row of a truncated history
// failed (rebuildManifest resurrected the rolled-back seqs, a missing
// manifest emptied the store), and the earlier-version rows could not
// arise (the manifest was synced before the commit returned).
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
		// mayAlso lists collected seqs a lost GC floor may serve again.
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
		// above the re-finalized 4', and the hint GCTo(6) published has a
		// floor above it.
		{name: "GC, rollback below the floor, lower re-finalize",
			ops: append(oneToSix(), func(s *Store) error { return s.GCTo(6) },
				func(s *Store) error { return s.TruncateAfter(5) }, finalize(rec(0, 4, 0))),
			acked: map[int]checkpoint.Record{4: rec(0, 4, 0)}},
	}
	for _, h := range histories {
		// Build the history once, keeping every hint it published.
		master := t.TempDir()
		s, err := OpenWith(master, 0, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		hintPath := filepath.Join(s.Dir(), "MANIFEST.json")
		type hintCase struct {
			name string
			data []byte // nil: no file
		}
		hints := []hintCase{{"absent", nil}, {"zero-length", []byte{}}, {"garbage", []byte("{nope")}}
		for i, o := range h.ops {
			if err := o(s); err != nil {
				t.Fatalf("%s: op %d: %v", h.name, i, err)
			}
			raw, err := os.ReadFile(hintPath)
			if err != nil {
				t.Fatal(err)
			}
			name := "current"
			if i < len(h.ops)-1 {
				name = fmt.Sprintf("as published by op %d", i+1)
			}
			hints = append(hints, hintCase{name, raw})
		}
		files := readDir(t, s.Dir())

		for _, hc := range hints {
			t.Run(h.name+"/"+hc.name, func(t *testing.T) {
				dir := t.TempDir()
				pdir := ProcDir(dir, 0)
				if err := os.MkdirAll(pdir, 0o755); err != nil {
					t.Fatal(err)
				}
				for name, raw := range files {
					if name == "MANIFEST.json" {
						raw = hc.data
						if raw == nil {
							continue
						}
					}
					if err := os.WriteFile(filepath.Join(pdir, name), raw, 0o644); err != nil {
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
				if hc.name == "current" && len(seqs) != len(h.acked) {
					t.Errorf("seqs under the current hint = %v, want exactly the %d acknowledged", seqs, len(h.acked))
				}
				// The repair is complete: a second Open changes nothing.
				after := readDir(t, pdir)
				s2, err := OpenWith(dir, 0, 2, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := readDir(t, pdir); !reflect.DeepEqual(got, after) {
					t.Error("a second reopen changed the directory")
				}
				if got, want := s2.Manifest(), s.Manifest(); !reflect.DeepEqual(got, want) {
					t.Errorf("second reopen manifest %+v, first %+v", got, want)
				}
			})
		}
	}
}

// writesOfOpen reopens the store and returns the directory-changing calls
// the Open made, its MkdirAll aside: empty means Open found nothing to
// repair and no hint to republish.
func writesOfOpen(t *testing.T, datadir string, opts Options) (*Store, []string) {
	t.Helper()
	var ops []string
	s, err := openWith(datadir, 0, 2, opts, func(op, path string) error {
		if op != "mkdir" {
			ops = append(ops, op+" "+filepath.Base(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetFaultHook(nil)
	return s, ops
}

// TestHintFlatInHistory pins what a commit costs in hint bytes: nothing
// that grows with the number of checkpoints already finalized. Records
// that differ only in their seq are finalized up to seq 20 and up to seq
// 2,000 (GC off, one segment); the hint after the second point may be
// longer than after the first only by the digits of its last seq and of
// the segment's size, and the bytes one commit hands to stable storage
// (frame + hint) likewise. (At the parent the hint listed every seq: 113 B
// after seq 20, 8,957 B after seq 2,000, and each commit 8,848 B dearer.)
func TestHintFlatInHistory(t *testing.T) {
	const slack = 16 // digits of "last" and of the segment size, in the hint and in the frame's two seq fields
	dir := t.TempDir()
	s, err := Open(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := NewStoreMetrics(metrics.NewRegistry(), 0)
	s.SetMetrics(m)
	at := func(seq int) checkpoint.Record {
		r := rec(0, 1, 2)
		r.Seq = seq
		return r
	}
	// measure finalizes every seq below point in batches of 50, then point
	// alone, and returns that one commit's byte step and the hint's length.
	next := 1
	measure := func(point int) (step, hintLen int64) {
		for next < point {
			var batch []checkpoint.Record
			for ; next < point && len(batch) < 50; next++ {
				batch = append(batch, at(next))
			}
			if _, err := s.FinalizeBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		before := m.BytesWritten.Value()
		if err := s.Finalize(at(point)); err != nil {
			t.Fatal(err)
		}
		next = point + 1
		fi, err := os.Stat(filepath.Join(s.Dir(), hintName))
		if err != nil {
			t.Fatal(err)
		}
		return m.BytesWritten.Value() - before, fi.Size()
	}
	step20, hint20 := measure(20)
	step2000, hint2000 := measure(2000)
	if got := len(s.Manifest().Segments); got != 1 {
		t.Fatalf("the history spans %d segments, want 1 (a rotation legitimately adds a segment entry)", got)
	}
	t.Logf("hint %d -> %d B, commit step %d -> %d B", hint20, hint2000, step20, step2000)
	if d := hint2000 - hint20; d < 0 || d > slack {
		t.Errorf("hint is %d B after seq 20 and %d B after seq 2000: grew %d B, want at most %d", hint20, hint2000, d, slack)
	}
	if d := step2000 - step20; d < 0 || d > slack {
		t.Errorf("a commit wrote %d B at seq 20 and %d B at seq 2000: grew %d B, want at most %d", step20, step2000, d, slack)
	}
}

// TestHostileHints: a hint that parses must not be able to make a reader
// allocate what its runs claim. ReadManifest refuses each as corrupt;
// Open, which never expands a hint, treats the malformed ones as lost and
// takes only the floor from the others — it must not fail either way.
func TestHostileHints(t *testing.T) {
	for _, runs := range []string{
		`[[0,1099511627776]]`,           // 1<<40 seqs in one run
		`[[5,3]]`,                       // last < first
		`[[1,4],[3,9]]`,                 // overlapping
		`[[7,9],[1,2]]`,                 // descending
		`[[-2,1]]`,                      // negative bound
		`[[1,600000],[600001,1200000]]`, // each run plausible, the total over the bound
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
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := ReadManifest(dir, 0)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "corrupt manifest") {
				t.Errorf("ReadManifest = (%d seqs, %v), want a corrupt-manifest error", len(m.Seqs), err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
				t.Errorf("ReadManifest allocated %d B refusing a %d B hint", got, len(hint))
			}
			if _, err := LastCompleteSeq(dir, 2); err == nil {
				t.Error("LastCompleteSeq read the hint without error")
			}

			runtime.ReadMemStats(&before)
			s2, err := Open(dir, 0, 2)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("Open failed on a hint it cannot use: %v", err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
				t.Errorf("Open allocated %d B over a %d B hint and three records", got, len(hint))
			}
			// No floor these hints claim is above seq 1, and the republished
			// hint is one pollers can read again.
			want := []int{1, 2, 3}
			if got := s2.Manifest().Seqs; !reflect.DeepEqual(got, want) {
				t.Errorf("seqs after Open = %v, want %v", got, want)
			}
			if m, err := ReadManifest(dir, 0); err != nil || !reflect.DeepEqual(m.Seqs, want) {
				t.Errorf("republished hint reads (%v, %v), want %v", m.Seqs, err, want)
			}
		})
	}
}

// TestHintFormats is the regression surface of the hint's shape: a gapped
// manifest must stay expressible, and a hint written by a build that
// listed "seqs" is a lost hint — everything acknowledged is served, the
// file is republished as runs, and a GC floor only it carried is lost
// once (more served than asked for, never a rolled-back record).
func TestHintFormats(t *testing.T) {
	oldFormat := func(t *testing.T, m Manifest) []byte {
		t.Helper()
		data, err := json.Marshal(&m) // the exported struct is the previous file format
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(data, []byte(`"seqs":[`)) {
			t.Fatalf("previous-format hint %s lists no seqs", data)
		}
		return data
	}

	t.Run("gapped manifest round-trips", func(t *testing.T) {
		// A rebuild over a log whose middle frame is gone: {1,2,3,5,6}.
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
		check := func(s *Store, want []int, runs string) {
			t.Helper()
			if got := s.Manifest().Seqs; !reflect.DeepEqual(got, want) {
				t.Fatalf("Manifest().Seqs = %v, want %v", got, want)
			}
			if m, err := ReadManifest(dir, 0); err != nil || !reflect.DeepEqual(m, s.Manifest()) {
				t.Fatalf("ReadManifest = (%+v, %v), want the store's manifest %+v", m, err, s.Manifest())
			}
			if raw := readDir(t, pdir)[hintName]; !bytes.Contains(raw, []byte(`"runs":`+runs+`,`)) {
				t.Fatalf("hint %s does not list runs %s", raw, runs)
			}
		}
		check(s, []int{1, 2, 3, 5, 6}, `[[1,3],[5,6]]`)
		s, ops := writesOfOpen(t, dir, DefaultOptions())
		if len(ops) != 0 {
			t.Fatalf("reopening over the republished hint wrote: %v", ops)
		}
		check(s, []int{1, 2, 3, 5, 6}, `[[1,3],[5,6]]`)
		if err := s.Finalize(rec(0, 7, 0)); err != nil {
			t.Fatal(err)
		}
		check(s, []int{1, 2, 3, 5, 6, 7}, `[[1,3],[5,7]]`)
		if all, err := CompleteSeqs(dir, 1); err != nil || !reflect.DeepEqual(all, []int{1, 2, 3, 5, 6, 7}) {
			t.Fatalf("CompleteSeqs = (%v, %v)", all, err)
		}
	})

	t.Run("previous-format hint is republished as runs", func(t *testing.T) {
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
		segs := s.Manifest().Segments
		if err := os.WriteFile(filepath.Join(s.Dir(), hintName), oldFormat(t, s.Manifest()), 0o644); err != nil {
			t.Fatal(err)
		}
		// Pollers of a directory no build has reopened see a hint that
		// says nothing, not an error.
		if m, err := ReadManifest(dir, 0); err != nil || len(m.Seqs) != 0 {
			t.Fatalf("ReadManifest of the previous format = (%v, %v), want no seqs and no error", m.Seqs, err)
		}
		s, err = Open(dir, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Manifest().Seqs; !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5}) {
			t.Fatalf("seqs = %v, want 1..5", got)
		}
		if recs, err := s.LoadAll(); err != nil || len(recs) != 5 {
			t.Fatalf("LoadAll = (%d records, %v), want 5", len(recs), err)
		}
		after := readDir(t, s.Dir())
		if want := fmt.Sprintf(`{"proc":0,"n":2,"runs":[[1,5]],"segments":[{"index":1,"size":%d}]}`, segs[0].Size); string(after[hintName]) != want {
			t.Fatalf("republished hint = %s, want %s", after[hintName], want)
		}
		if _, ops := writesOfOpen(t, dir, DefaultOptions()); len(ops) != 0 {
			t.Fatalf("a second Open wrote: %v", ops)
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
		// The floor is lost with the hint that carried it: the collected 4,
		// whose segment survives, is served again. The rolled-back 6 is not.
		if got := s2.Manifest().Seqs; !reflect.DeepEqual(got, []int{4, 5, 6}) {
			t.Fatalf("seqs = %v, want [4 5 6]: the kept seqs and the collected one still on disk", got)
		}
		for q, want := range map[int]checkpoint.Record{4: rec(0, 4, 2), 5: rec(0, 5, 2), 6: again} {
			if r, err := s2.Load(q); err != nil || !reflect.DeepEqual(r, want) {
				t.Fatalf("Load(%d) = (%+v, %v), want %+v", q, r, err, want)
			}
		}
		if raw := readDir(t, s2.Dir())[hintName]; !bytes.Contains(raw, []byte(`"runs":[[`)) || bytes.Contains(raw, []byte(`"seqs"`)) {
			t.Fatalf("hint after reopen = %s, want the runs format", raw)
		}
		if _, ops := writesOfOpen(t, dir, opts); len(ops) != 0 {
			t.Fatalf("a second Open wrote: %v", ops)
		}
	})
}
