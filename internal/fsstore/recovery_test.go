package fsstore

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeManifest fabricates a process directory whose log binds exactly
// seqs: one segment holding their frames, ascending. A seq left out is a
// gap, as a log missing a frame leaves one.
func writeManifest(t *testing.T, datadir string, proc int, seqs []int) {
	t.Helper()
	dir := ProcDir(datadir, proc)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seg := segmentHeader(proc, 1)
	for _, q := range seqs {
		seg = append(seg, frame(rec(proc, q, 1))...)
	}
	if err := os.WriteFile(SegmentFile(dir, 1), seg, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestManifestIntersection drives LastCompleteSeq and CompleteSeqs through
// the edge cases a crashed-and-rebuilt datadir can produce: empty stores,
// laggards, and gapped manifests left by a log that lost a frame.
func TestManifestIntersection(t *testing.T) {
	cases := []struct {
		name     string
		seqs     [][]int // per process; nil = directory never written to
		wantLast int
		wantAll  []int
	}{
		{
			name:     "zero finalized checkpoints",
			seqs:     [][]int{nil, nil, nil},
			wantLast: -1,
			wantAll:  nil,
		},
		{
			name:     "one process empty blocks every line",
			seqs:     [][]int{{1, 2}, nil, {1, 2}},
			wantLast: -1,
			wantAll:  nil,
		},
		{
			name:     "all aligned",
			seqs:     [][]int{{1, 2, 3}, {1, 2, 3}, {1, 2, 3}},
			wantLast: 3,
			wantAll:  []int{1, 2, 3},
		},
		{
			name:     "laggard holds the line back",
			seqs:     [][]int{{1, 2, 3}, {1}, {1, 2}},
			wantLast: 1,
			wantAll:  []int{1},
		},
		{
			name: "gap in one manifest must not surface the missing seq",
			// P0's log lost seq 2; seq 2 is not a durable global line even
			// though max(min(last)) says so.
			seqs:     [][]int{{1, 3}, {1, 2}, {1, 2}},
			wantLast: 1,
			wantAll:  []int{1},
		},
		{
			name:     "gap shared by all is fine",
			seqs:     [][]int{{1, 3}, {1, 3}, {1, 2, 3}},
			wantLast: 3,
			wantAll:  []int{1, 3},
		},
		{
			name:     "disjoint manifests",
			seqs:     [][]int{{1}, {2}, {3}},
			wantLast: -1,
			wantAll:  nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			n := len(tc.seqs)
			for p, seqs := range tc.seqs {
				if seqs != nil {
					writeManifest(t, dir, p, seqs)
				}
			}
			last, err := LastCompleteSeq(dir, n)
			if err != nil {
				t.Fatal(err)
			}
			if last != tc.wantLast {
				t.Fatalf("LastCompleteSeq = %d, want %d", last, tc.wantLast)
			}
			all, err := CompleteSeqs(dir, n)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(all, tc.wantAll) {
				t.Fatalf("CompleteSeqs = %v, want %v", all, tc.wantAll)
			}
		})
	}
}

// TestTornManifestRebuild: a hint an earlier build left, cut off
// mid-write, fails nothing. The manifest is rebuilt from the checkpoints
// that verify on disk, and the torn file is left as it was: nothing reads
// it, so nothing needs it repaired.
func TestTornManifestRebuild(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 3; seq++ {
		if err := s.Finalize(rec(1, seq, seq)); err != nil {
			t.Fatal(err)
		}
	}
	hint := parentHint(s.Manifest())
	torn := hint[:len(hint)/2]
	manifest := filepath.Join(s.Dir(), hintName)
	if err := os.WriteFile(manifest, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 1, 3)
	if err != nil {
		t.Fatalf("torn manifest failed the reopen: %v", err)
	}
	if got := s2.Manifest(); got.Proc != 1 || got.N != 3 || !reflect.DeepEqual(got.Seqs, []int{1, 2, 3}) {
		t.Fatalf("rebuilt manifest = P%d/n=%d %v, want P1/n=3 [1 2 3]", got.Proc, got.N, got.Seqs)
	}
	if raw, err := os.ReadFile(manifest); err != nil || !reflect.DeepEqual(raw, torn) {
		t.Fatalf("the torn hint after reopen = (%q, %v), want it as it was", raw, err)
	}
}

// TestTornManifestNoCheckpoints: a torn hint with nothing durable on disk
// opens to an empty manifest, not an error.
func TestTornManifestNoCheckpoints(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(ProcDir(dir, 0), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ProcDir(dir, 0), hintName), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, 0, 2)
	if err != nil {
		t.Fatalf("torn empty manifest failed the reopen: %v", err)
	}
	if s.LastSeq() != -1 {
		t.Fatalf("LastSeq = %d, want -1", s.LastSeq())
	}
}
