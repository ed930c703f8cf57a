package fsstore

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
)

func rec(proc, seq int, logn int) checkpoint.Record {
	at := des.Time(seq) * 1000
	r := checkpoint.Record{
		Tentative: checkpoint.Tentative{
			Proc: proc, Seq: seq, TakenAt: at,
			StateBytes: 1 << 20, Fold: uint64(seq)*7919 + 1, Work: int64(seq) * 10,
		},
		FinalizedAt: at + 500,
		CFEFold:     uint64(seq)*7919 + 99,
		CFEWork:     int64(seq)*10 + 3,
		CFEProgress: int64(seq) * 10,
		StableAt:    at + 700,
	}
	for i := 0; i < logn; i++ {
		r.Log = append(r.Log, checkpoint.LoggedMsg{
			ID: int64(seq*100 + i), Src: proc, Dst: (proc + 1) % 4,
			Dir:   checkpoint.Direction(i % 2),
			Bytes: 2048, Tag: uint64(i) + 1, AppSeq: int64(i),
		})
	}
	return r
}

// frame is the segment frame a commit writes for r. Tests state segment
// size limits in frames of a fixture record, so a rotation lands on the
// same record whatever the encoding makes a frame cost.
func frame(r checkpoint.Record) []byte {
	return appendFullFrame(nil, &r)
}

func TestFinalizeLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := rec(1, 1, 3)
	if err := s.Finalize(want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestManifestOrderingAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 3; seq++ {
		if err := s.Finalize(rec(0, seq, seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Finalize(rec(0, 2, 0)); err == nil {
		t.Fatal("out-of-order finalize accepted")
	}
	// Reopen: manifest survives, last seq visible.
	s2, err := Open(dir, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s2.LastSeq() != 3 {
		t.Fatalf("reopened LastSeq = %d, want 3", s2.LastSeq())
	}
	if got := s2.Manifest().Seqs; !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("manifest seqs = %v", got)
	}
}

func TestTruncateAfter(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 4; seq++ {
		if err := s.Finalize(rec(2, seq, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.TruncateAfter(2); err != nil {
		t.Fatal(err)
	}
	if s.LastSeq() != 2 {
		t.Fatalf("LastSeq after truncate = %d, want 2", s.LastSeq())
	}
	if _, err := s.Load(4); err == nil {
		t.Fatal("truncated checkpoint still loads")
	}
	// The protocol may legitimately re-produce seq 3 after the rollback.
	if err := s.Finalize(rec(2, 3, 2)); err != nil {
		t.Fatal(err)
	}
}

func TestLoadAllAndLastCompleteSeq(t *testing.T) {
	dir := t.TempDir()
	const n = 4
	for p := 0; p < n; p++ {
		s, err := Open(dir, p, n)
		if err != nil {
			t.Fatal(err)
		}
		last := 2
		if p == 3 {
			last = 1 // P3 lags: S_2 is incomplete on disk
		}
		for seq := 1; seq <= last; seq++ {
			if err := s.Finalize(rec(p, seq, seq)); err != nil {
				t.Fatal(err)
			}
		}
	}
	line, err := LastCompleteSeq(dir, n)
	if err != nil {
		t.Fatal(err)
	}
	if line != 1 {
		t.Fatalf("LastCompleteSeq = %d, want 1", line)
	}
	// A reopened store loads what the pollers read: S_1 on every process.
	for p := 0; p < n; p++ {
		s, err := Open(dir, p, n)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := s.LoadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 || recs[0].Seq != 1 || recs[0].CFEFold != rec(p, 1, 0).CFEFold {
			t.Fatalf("P%d reloads %d record(s), want S_1 with its fold first", p, len(recs))
		}
	}
}

// TestForeignManifestRejected: the owner check is the segment header. A
// log of P1's found in P0's directory is an operator error (datadir
// mixup), not crash debris: opening it as P0's fails, and sweeping it
// would have destroyed P1's checkpoints, so every file stays as it was. A
// hint of an earlier build naming another process, beside a log of P0's,
// says nothing: nothing reads it.
func TestForeignManifestRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(rec(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(ProcDir(dir, 1), ProcDir(dir, 0)); err != nil {
		t.Fatal(err)
	}
	before := readDir(t, ProcDir(dir, 0))
	if _, err := Open(dir, 0, 2); err == nil {
		t.Fatal("foreign log accepted")
	}
	if got := readDir(t, ProcDir(dir, 0)); !reflect.DeepEqual(got, before) {
		t.Fatal("the refused directory was modified")
	}

	dir = t.TempDir()
	s, err = Open(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(rec(0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), hintName), []byte(`{"proc":1,"n":2,"seqs":[1]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(dir, 0, 2); err != nil || s.LastSeq() != 1 {
		t.Fatalf("Open beside a foreign hint = %v, want P0's log served", err)
	}
}

func TestFinalizeErrorRetried(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(rec(0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	// Seq 2's commit fails at its one fsync: the store must be left
	// exactly as it was — no manifest entry — so the caller's retry of the
	// same record succeeds without a gap.
	s.SetFaultHook(failFirst("sync"))
	if err := s.Finalize(rec(0, 2, 2)); err == nil {
		t.Fatal("injected finalize error not surfaced")
	}
	if s.LastSeq() != 1 {
		t.Fatalf("LastSeq after failed finalize = %d, want 1", s.LastSeq())
	}
	if err := s.Finalize(rec(0, 2, 2)); err != nil {
		t.Fatalf("retried finalize: %v", err)
	}
	if err := s.Finalize(rec(0, 3, 0)); err != nil {
		t.Fatal(err)
	}
	if got := s.Manifest().Seqs; !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("manifest seqs = %v, want [1 2 3] (no gap)", got)
	}
	// Reopen and replay-validate: the retried record is fully durable.
	s2, err := Open(dir, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Load(2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec(0, 2, 2)) {
		t.Fatal("retried record does not round-trip")
	}
}

// TestReadManifestDoesNotDisturbDatadir: a poll is a read. What Open
// would repair — a torn tail behind the last frame, a segment that is
// only a torn header — and files that are not the log's survive it, and
// a poll of a process with no directory creates none.
func TestReadManifestDoesNotDisturbDatadir(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(rec(0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	active := SegmentFile(s.Dir(), 1)
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("a commit in flight")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for path, data := range map[string]string{
		SegmentFile(s.Dir(), 2):              "OCSM",
		filepath.Join(s.Dir(), ".tmp-other"): "x",
	} {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := readDir(t, s.Dir())
	m, err := ReadManifest(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Seqs, []int{1}) {
		t.Fatalf("manifest seqs = %v", m.Seqs)
	}
	if got := readDir(t, s.Dir()); !reflect.DeepEqual(got, before) {
		t.Fatal("the poll changed the directory")
	}
	// Absent process directory: empty manifest, nothing created.
	m, err = ReadManifest(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Seqs) != 0 {
		t.Fatalf("absent dir manifest seqs = %v", m.Seqs)
	}
	if _, err := os.Stat(ProcDir(dir, 1)); !os.IsNotExist(err) {
		t.Fatalf("ReadManifest created the process directory (err=%v)", err)
	}
}
