package fsstore

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeManifest fabricates a process directory with just a manifest —
// enough for the intersection helpers, which read manifests only.
func writeManifest(t *testing.T, datadir string, proc, n int, seqs []int) {
	t.Helper()
	dir := ProcDir(datadir, proc)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	data := encodeHint(&Manifest{Proc: proc, N: n, Seqs: seqs})
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestManifestIntersection drives LastCompleteSeq and CompleteSeqs through
// the edge cases a crashed-and-rebuilt datadir can produce: empty stores,
// laggards, and gapped manifests left by a torn-manifest rebuild.
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
			// P0 rebuilt after a torn manifest and lost seq 2; seq 2 is
			// not a durable global line even though max(min(last)) says so.
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
					writeManifest(t, dir, p, n, seqs)
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

// TestOpenClearsStaleTempFiles: temp files stranded by a crash between
// write and rename are swept on reopen; durable files are untouched.
func TestOpenClearsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(rec(0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{".tmp-manifest-torn", ".tmp-123456"} {
		if err := os.WriteFile(filepath.Join(s.Dir(), name), []byte("{\"par"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(s2.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if len(e.Name()) >= 5 && e.Name()[:5] == ".tmp-" {
			t.Fatalf("stale temp file %s survived reopen", e.Name())
		}
	}
	if s2.LastSeq() != 1 {
		t.Fatalf("LastSeq after sweep = %d, want 1", s2.LastSeq())
	}
	if _, err := s2.Load(1); err != nil {
		t.Fatalf("durable checkpoint lost in sweep: %v", err)
	}
}

// TestTornManifestRebuild: a manifest cut off mid-write (crash between
// temp-file write and rename that somehow reached the real name, or a
// partial overwrite) is rebuilt from the checkpoints that verify on disk.
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
	manifest := filepath.Join(s.Dir(), "MANIFEST.json")
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 1, 3)
	if err != nil {
		t.Fatalf("torn manifest failed the reopen: %v", err)
	}
	if got := s2.Manifest().Seqs; !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("rebuilt manifest seqs = %v, want [1 2 3]", got)
	}
	// The rebuild is written back: a third open must not rebuild again.
	raw, err = os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeHint(raw)
	if err != nil {
		t.Fatalf("rebuilt manifest does not decode: %v", err)
	}
	if m.Proc != 1 || m.N != 3 {
		t.Fatalf("rebuilt manifest header = P%d/n=%d, want P1/n=3", m.Proc, m.N)
	}
}

// TestTornManifestNoCheckpoints: a torn manifest with nothing durable on
// disk rebuilds to an empty manifest, not an error.
func TestTornManifestNoCheckpoints(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ProcDir(dir, 0), "MANIFEST.json"), []byte("{nope"), 0o644); err != nil {
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
