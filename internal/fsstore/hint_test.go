package fsstore

// Tests of the one-sync commit's contract: the segment log alone says
// what is durable, and MANIFEST.json is a hint whose loss, staleness or
// corruption costs an Open nothing.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"ocsml/internal/checkpoint"
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
	frame := func(r checkpoint.Record) []byte {
		st := stateOf(r)
		payload, err := json.Marshal(&segRecord{Seq: r.Seq, Kind: segFull, State: &st, Log: r.Log})
		if err != nil {
			t.Fatal(err)
		}
		return appendFrame(nil, payload)
	}
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
	opts.SegmentMaxBytes = 1024 // three rec(0, seq, 2) frames to a segment
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
