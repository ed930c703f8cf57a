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

func TestRecoverStoreAndLastCompleteSeq(t *testing.T) {
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
	cs, err := RecoverStore(dir, n)
	if err != nil {
		t.Fatal(err)
	}
	if got := cs.MaxCompleteSeq(); got != 1 {
		t.Fatalf("recovered MaxCompleteSeq = %d, want 1", got)
	}
	g, ok := cs.Global(1)
	if !ok {
		t.Fatal("recovered store missing S_1")
	}
	for p := 0; p < n; p++ {
		if g.Recs[p].CFEFold != rec(p, 1, 0).CFEFold {
			t.Fatalf("P%d recovered fold mismatch", p)
		}
	}
}

func TestForeignManifestRejected(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, 0, 2); err != nil {
		t.Fatal(err)
	}
	// A parseable manifest belonging to another process is an operator
	// error (datadir mixup), not crash debris — it must fail the open.
	if err := os.WriteFile(filepath.Join(ProcDir(dir, 0), "MANIFEST.json"),
		[]byte(`{"proc":1,"n":2,"seqs":[1]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 0, 2); err == nil {
		t.Fatal("foreign manifest accepted")
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

func TestReadManifestDoesNotDisturbDatadir(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(rec(0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	// A live writer's in-flight temp file must survive a ReadManifest poll
	// (Open's debris sweep would delete it).
	tmp := filepath.Join(s.Dir(), ".tmp-inflight")
	if err := os.WriteFile(tmp, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Seqs, []int{1}) {
		t.Fatalf("manifest seqs = %v", m.Seqs)
	}
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("in-flight temp file disturbed: %v", err)
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
