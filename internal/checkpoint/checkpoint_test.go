package checkpoint

import (
	"testing"
	"unsafe"

	"ocsml/internal/des"
)

func rec(proc, seq int, taken, fin des.Time) Record {
	return Record{
		Tentative:   Tentative{Proc: proc, Seq: seq, TakenAt: taken, StateBytes: 100},
		FinalizedAt: fin,
	}
}

func TestProcStoreOrdering(t *testing.T) {
	s := NewStore(2)
	ps := s.Proc(0)
	ps.Add(rec(0, 1, 10, 20))
	ps.Add(rec(0, 2, 30, 40))
	if ps.Len() != 2 || ps.MaxSeq() != 2 {
		t.Fatalf("Len=%d MaxSeq=%d", ps.Len(), ps.MaxSeq())
	}
	if _, ok := ps.Get(1); !ok {
		t.Fatal("Get(1) missing")
	}
	if _, ok := ps.Get(3); ok {
		t.Fatal("Get(3) should be absent")
	}
}

func TestProcStoreRejectsOutOfOrder(t *testing.T) {
	ps := NewStore(1).Proc(0)
	ps.Add(rec(0, 2, 1, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("adding seq <= previous should panic")
		}
	}()
	ps.Add(rec(0, 2, 3, 4))
}

func TestProcStoreRejectsWrongProc(t *testing.T) {
	ps := NewStore(2).Proc(0)
	defer func() {
		if recover() == nil {
			t.Fatal("adding another process's record should panic")
		}
	}()
	ps.Add(rec(1, 1, 1, 2))
}

func TestGlobalAssembly(t *testing.T) {
	s := NewStore(3)
	for p := 0; p < 3; p++ {
		s.Proc(p).Add(rec(p, 1, des.Time(p), des.Time(10+p)))
	}
	g, ok := s.Global(1)
	if !ok {
		t.Fatal("Global(1) should exist")
	}
	if len(g.Recs) != 3 || g.Recs[2].Proc != 2 {
		t.Fatalf("bad global: %+v", g)
	}
	first, last := g.Span()
	if first != 0 || last != 12 {
		t.Fatalf("Span = (%v,%v), want (0,12)", first, last)
	}
	if _, ok := s.Global(2); ok {
		t.Fatal("Global(2) should not exist")
	}
}

func TestMaxCompleteSeq(t *testing.T) {
	s := NewStore(3)
	if s.MaxCompleteSeq() != -1 {
		t.Fatal("empty store should report -1")
	}
	for p := 0; p < 3; p++ {
		s.Proc(p).Add(rec(p, 0, 0, 1))
		s.Proc(p).Add(rec(p, 1, 2, 3))
	}
	s.Proc(0).Add(rec(0, 2, 4, 5))
	if got := s.MaxCompleteSeq(); got != 1 {
		t.Fatalf("MaxCompleteSeq = %d, want 1", got)
	}
	seqs := s.CompleteSeqs()
	if len(seqs) != 2 || seqs[0] != 0 || seqs[1] != 1 {
		t.Fatalf("CompleteSeqs = %v", seqs)
	}
}

func TestMarkStableAndMaxStableSeq(t *testing.T) {
	s := NewStore(2)
	for p := 0; p < 2; p++ {
		s.Proc(p).Add(rec(p, 0, 0, 1))
		s.Proc(p).Add(rec(p, 1, 2, 3))
	}
	if s.MaxStableSeq() != -1 {
		t.Fatal("nothing stable yet")
	}
	s.Proc(0).MarkStable(0, 5)
	s.Proc(1).MarkStable(0, 6)
	s.Proc(0).MarkStable(1, 7)
	if got := s.MaxStableSeq(); got != 0 {
		t.Fatalf("MaxStableSeq = %d, want 0", got)
	}
	s.Proc(1).MarkStable(1, 8)
	if got := s.MaxStableSeq(); got != 1 {
		t.Fatalf("MaxStableSeq = %d, want 1", got)
	}
	r, _ := s.Proc(1).Get(1)
	if r.StableAt != 8 {
		t.Fatalf("StableAt = %v, want 8", r.StableAt)
	}
}

func TestLogBytesAndLatency(t *testing.T) {
	r := rec(0, 1, 10, 25)
	r.Log = []LoggedMsg{
		{ID: 1, Bytes: 100, Dir: Sent},
		{ID: 2, Bytes: 250, Dir: Received},
	}
	if r.LogBytes() != 350 {
		t.Fatalf("LogBytes = %d", r.LogBytes())
	}
	if r.FinalizationLatency() != 15 {
		t.Fatalf("FinalizationLatency = %v", r.FinalizationLatency())
	}
	g := Global{Seq: 1, Recs: []Record{r, rec(1, 1, 0, 0)}}
	if g.LogBytes() != 350 {
		t.Fatalf("global LogBytes = %d", g.LogBytes())
	}
}

func TestDirectionString(t *testing.T) {
	if Sent.String() != "sent" || Received.String() != "received" {
		t.Fatal("Direction.String wrong")
	}
}

// TestProcStoreAfter: After(seq) is the records above seq, whatever the
// store went through, and a copy — a flush ranges over it while the
// protocol loop goes on adding, truncating and marking.
func TestProcStoreAfter(t *testing.T) {
	fill := func(seqs ...int) *ProcStore {
		ps := NewStore(1).Proc(0)
		for _, q := range seqs {
			ps.Add(rec(0, q, des.Time(q), des.Time(q)))
		}
		return ps
	}
	truncated := fill(1, 2, 3, 4, 5)
	truncated.TruncateAfter(3)
	truncated.Add(rec(0, 4, 40, 41)) // re-finalized above the line
	collected := fill(1, 2, 3, 4, 5)
	collected.GC(3)

	for _, tc := range []struct {
		name string
		ps   *ProcStore
		seq  int
		want []int
	}{
		{"empty store", fill(), 0, nil},
		{"below the first record", fill(3, 4, 5), 1, []int{3, 4, 5}},
		{"between records", fill(3, 4, 5), 3, []int{4, 5}},
		{"in a gap", fill(1, 2, 5, 6), 3, []int{5, 6}},
		{"at the last record", fill(3, 4, 5), 5, nil},
		{"above the last record", fill(3, 4, 5), 9, nil},
		{"the whole store", fill(0, 1, 2), -1, []int{0, 1, 2}},
		{"after TruncateAfter and a re-Add, from the line", truncated, 3, []int{4}},
		{"after TruncateAfter and a re-Add, from above the old tail", truncated, 5, nil},
		{"after GC, from below the floor", collected, 1, []int{3, 4, 5}},
		{"after GC, from the floor", collected, 3, []int{4, 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.ps.After(tc.seq)
			if len(got) != len(tc.want) {
				t.Fatalf("After(%d) = %d records, want seqs %v", tc.seq, len(got), tc.want)
			}
			for i, r := range got {
				if r.Seq != tc.want[i] {
					t.Fatalf("After(%d)[%d].Seq = %d, want seqs %v", tc.seq, i, r.Seq, tc.want)
				}
				// Scribble on the result: the store must not see it.
				got[i].StableAt = -1
				if kept, _ := tc.ps.Get(r.Seq); kept.StableAt == -1 {
					t.Fatalf("After(%d)[%d] aliases the store's record of seq %d", tc.seq, i, r.Seq)
				}
			}
		})
	}
	if got := truncated.After(3); got[0].TakenAt != 40 {
		t.Fatalf("After the line serves TakenAt %d, want the re-finalized record's 40", got[0].TakenAt)
	}
}

// TestMarkStable: the binary search marks exactly the named record and
// ignores a seq the store does not hold.
func TestMarkStable(t *testing.T) {
	ps := NewStore(1).Proc(0)
	for _, q := range []int{2, 3, 5} {
		ps.Add(rec(0, q, des.Time(q), des.Time(q)))
	}
	for _, q := range []int{1, 3, 4, 5, 6} {
		ps.MarkStable(q, des.Time(100+q))
	}
	for _, want := range []struct {
		seq int
		at  des.Time
	}{{2, 0}, {3, 103}, {5, 105}} {
		if r, _ := ps.Get(want.seq); r.StableAt != want.at {
			t.Errorf("seq %d StableAt = %d, want %d", want.seq, r.StableAt, want.at)
		}
	}
}

// TestLoggedMsgSize pins the in-memory cost of a logged message: the
// fields recovery reads and nothing else.
func TestLoggedMsgSize(t *testing.T) {
	if got := unsafe.Sizeof(LoggedMsg{}); got != 56 {
		t.Fatalf("LoggedMsg is %d B, want 56", got)
	}
}
