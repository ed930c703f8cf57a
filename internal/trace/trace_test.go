package trace

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"ocsml/internal/des"
)

// record is a tiny DSL for building traces in tests.
type builder struct {
	r *Recorder
	t des.Time
}

func nb() *builder { return &builder{r: NewRecorder()} }

func (b *builder) ev(k Kind, proc, peer int, msg int64, seq int) int64 {
	b.t++
	return b.r.Record(Event{T: b.t, Kind: k, Proc: proc, Peer: peer, MsgID: msg, Seq: seq})
}

func (b *builder) send(p, q int, msg int64) int64 { return b.ev(KSend, p, q, msg, -1) }
func (b *builder) recv(p, q int, msg int64) int64 { return b.ev(KRecv, p, q, msg, -1) }
func (b *builder) ckpt(p, seq int) int64          { return b.ev(KCheckpoint, p, -1, 0, seq) }

func TestRecorderAssignsGSeq(t *testing.T) {
	b := nb()
	g1 := b.send(0, 1, 1)
	g2 := b.recv(1, 0, 1)
	if g1 != 1 || g2 != 2 {
		t.Fatalf("gseqs = %d,%d", g1, g2)
	}
	if b.r.Len() != 2 {
		t.Fatalf("Len = %d", b.r.Len())
	}
	evs := b.r.Events()
	if evs[0].Kind != KSend || evs[1].Kind != KRecv {
		t.Fatal("event order wrong")
	}
}

func TestDisabledRecorder(t *testing.T) {
	r := NewRecorder()
	r.SetEnabled(false)
	if g := r.Record(Event{Kind: KSend}); g != 0 {
		t.Fatal("disabled recorder should return 0")
	}
	if r.Len() != 0 {
		t.Fatal("disabled recorder should store nothing")
	}
}

// TestFigure1 replays the paper's Figure 1: two global checkpoints S1
// (consistent) and S2 (inconsistent, M5 is an orphan). The figure has
// three processes P0,P1,P2 exchanging messages M1..M5. We reconstruct the
// essential structure: for S2, message M5's receive is inside the cut but
// its send is after the sender's cut.
func TestFigure1(t *testing.T) {
	b := nb()
	// Pre-cut traffic (inside both S1 and S2 for all processes).
	b.send(0, 1, 1) // M1
	b.recv(1, 0, 1)
	b.send(1, 2, 2) // M2
	b.recv(2, 1, 2)

	// S1 cut points: after the above on every process.
	s1 := NewCut(3)
	s1.At[0] = b.ckpt(0, 1)
	s1.At[1] = b.ckpt(1, 1)
	s1.At[2] = b.ckpt(2, 1)

	// M3: sent and received after S1 on both sides — no crossing.
	b.send(2, 0, 3)
	b.recv(0, 2, 3)

	rep1 := b.r.CheckCut(s1)
	if !rep1.Consistent() {
		t.Fatalf("S1 should be consistent, orphans=%v", rep1.Orphans)
	}

	// S2, the inconsistent cut of Figure 1: P1 takes C_{1,2} BEFORE
	// sending M5, P2 takes C_{2,2} AFTER receiving M5 — so M5's receive
	// is inside the cut while its send is outside: M5 is an orphan.
	b2 := nb()
	cut := NewCut(3)
	cut.At[0] = b2.ckpt(0, 2) // P0 cut
	cut.At[1] = b2.ckpt(1, 2) // P1 cut (taken BEFORE sending M5)
	b2.send(1, 2, 5)          // M5 send: outside P1's cut
	b2.recv(2, 1, 5)          // M5 receive
	cut.At[2] = b2.ckpt(2, 2) // P2 cut AFTER the receive: M5 inside
	rep2 := b2.r.CheckCut(cut)
	if rep2.Consistent() {
		t.Fatal("S2 should be inconsistent (M5 orphan)")
	}
	if len(rep2.Orphans) != 1 || rep2.Orphans[0].MsgID != 5 {
		t.Fatalf("orphans = %+v, want exactly M5", rep2.Orphans)
	}
}

func TestInFlightDetection(t *testing.T) {
	b := nb()
	cut := NewCut(2)
	b.send(0, 1, 7) // sent inside cut
	cut.At[0] = b.ckpt(0, 1)
	cut.At[1] = b.ckpt(1, 1)
	b.recv(1, 0, 7) // received outside cut
	rep := b.r.CheckCut(cut)
	if !rep.Consistent() {
		t.Fatal("in-flight message is not an orphan")
	}
	if len(rep.InFlight) != 1 || rep.InFlight[0].MsgID != 7 {
		t.Fatalf("InFlight = %+v", rep.InFlight)
	}
}

func TestNeverReceivedMessage(t *testing.T) {
	b := nb()
	cut := NewCut(2)
	b.send(0, 1, 9)
	cut.At[0] = b.ckpt(0, 1)
	cut.At[1] = b.ckpt(1, 1)
	rep := b.r.CheckCut(cut)
	if len(rep.InFlight) != 1 {
		t.Fatalf("unreceived message should be in flight: %+v", rep)
	}
}

func TestCheckGlobalsCuts(t *testing.T) {
	b := nb()
	b.ev(KFinalize, 0, -1, 0, 1)
	b.ev(KFinalize, 1, -1, 0, 1)
	gs := b.r.CheckGlobals(2, KFinalize, []int{1, 2, 0})
	if !gs[0].Complete || gs[0].Cut.At[0] != 1 || gs[0].Cut.At[1] != 2 {
		t.Fatalf("S_1 = %+v, want the cut {1, 2}", gs[0])
	}
	if gs[1].Complete || gs[1].Cut.At != nil {
		t.Fatalf("S_2 = %+v, want incomplete: no finalize event has seq 2", gs[1])
	}
	if !gs[2].Complete || gs[2].Cut.At[0] != 0 || gs[2].Cut.At[1] != 0 {
		t.Fatalf("S_0 = %+v, want the initial state", gs[2])
	}
	if g := b.r.CheckGlobals(3, KFinalize, []int{1})[0]; g.Complete {
		t.Fatal("S_1 over three processes should be incomplete: P2 has no event")
	}
}

// TestCheckGlobalsLastEventCounts: a process that finalizes seq k twice
// (a rollback below k, then k again) has its later event in the cut.
func TestCheckGlobalsLastEventCounts(t *testing.T) {
	b := nb()
	b.ev(KFinalize, 0, -1, 0, 1)
	b.ev(KFinalize, 1, -1, 0, 1)
	again := b.ev(KFinalize, 0, -1, 0, 1)
	if g := b.r.CheckGlobals(2, KFinalize, []int{1})[0]; g.Cut.At[0] != again {
		t.Fatalf("cut = %v, want P0 at its last finalize %d", g.Cut.At, again)
	}
}

func TestCheckGlobalsCheckpointIncludesForced(t *testing.T) {
	b := nb()
	b.ev(KCheckpoint, 0, -1, 0, 3)
	b.ev(KForced, 1, -1, 0, 3)
	b.ev(KTentative, 0, -1, 0, 4)
	b.ev(KTentative, 1, -1, 0, 4)
	gs := b.r.CheckGlobals(2, KCheckpoint, []int{3, 4})
	if !gs[0].Complete {
		t.Fatal("forced checkpoints should count as checkpoints")
	}
	if gs[1].Complete {
		t.Fatal("tentative checkpoints are no cut points")
	}
	if b.r.CutKind() != KCheckpoint {
		t.Fatal("a history without finalize events cuts at checkpoints")
	}
	b.ev(KFinalize, 0, -1, 0, 5)
	if b.r.CutKind() != KFinalize || CutKind(b.r.Events()) != KFinalize {
		t.Fatal("a history with a finalize event cuts at finalizations")
	}
	if got := CutSeqs(b.r.Events(), KCheckpoint); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("CutSeqs = %v, want [3]", got)
	}
}

func TestCountKind(t *testing.T) {
	b := nb()
	b.send(0, 1, 1)
	b.recv(1, 0, 1)
	b.send(0, 1, 2)
	if got := b.r.CountKind(KSend); got != 2 {
		t.Fatalf("CountKind(KSend) = %d", got)
	}
}

func TestKindStrings(t *testing.T) {
	if KSend.String() != "send" || KFinalize.String() != "finalize" {
		t.Fatal("Kind.String wrong")
	}
}

func TestRender(t *testing.T) {
	b := nb()
	b.send(0, 1, 1)
	b.recv(1, 0, 1)
	b.ev(KTentative, 1, -1, 0, 1)
	b.ev(KFinalize, 1, -1, 0, 1)
	out := Render(b.r.Events(), 2)
	for _, want := range []string{"s1", "r1", "[T1]", "[F1]", "P0 ", "P1 "} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render output missing %q:\n%s", want, out)
		}
	}
	if Render(nil, 2) != "(empty trace)\n" {
		t.Fatal("empty render wrong")
	}
}

func TestSummarize(t *testing.T) {
	b := nb()
	b.send(0, 1, 1)
	b.send(0, 1, 2)
	b.recv(1, 0, 1)
	got := Summarize(b.r.Events())
	if got != "send=2 recv=1" {
		t.Fatalf("Summarize = %q", got)
	}
}

// randomExecution builds a random but causally legal execution: a sequence
// of sends with later receives, then picks a random cut. It returns events
// plus, for each message, whether a brute-force orphan scan flags it.
func randomExecution(ops []uint16, n int) ([]Event, Cut) {
	b := nb()
	type pending struct {
		id  int64
		src int
		dst int
	}
	var inflight []pending
	nextID := int64(1)
	for _, op := range ops {
		p := int(op) % n
		q := (p + 1 + int(op/7)%(n-1)) % n
		if op%3 == 0 && len(inflight) > 0 {
			k := int(op) % len(inflight)
			m := inflight[k]
			inflight = append(inflight[:k], inflight[k+1:]...)
			b.recv(m.dst, m.src, m.id)
		} else {
			b.send(p, q, nextID)
			inflight = append(inflight, pending{nextID, p, q})
			nextID++
		}
	}
	// Random cut: for each process pick a random recorded event of that
	// process (or 0).
	cut := NewCut(n)
	evs := b.r.Events()
	for i := 0; i < n; i++ {
		var last int64
		for _, e := range evs {
			if e.Proc == i && int(e.GSeq)%(i+2) == 0 {
				last = e.GSeq
			}
		}
		cut.At[i] = last
	}
	return evs, cut
}

// Property: the checker agrees with a brute-force orphan scan on random
// executions and random cuts.
func TestQuickCheckerVsBruteForce(t *testing.T) {
	const n = 4
	f := func(ops []uint16) bool {
		evs, cut := randomExecution(ops, n)
		rep := CheckEvents(evs, cut)
		// Brute force.
		sendG := map[int64]int64{}
		recvG := map[int64]int64{}
		sendP := map[int64]int{}
		recvP := map[int64]int{}
		for _, e := range evs {
			switch e.Kind {
			case KSend:
				sendG[e.MsgID], sendP[e.MsgID] = e.GSeq, e.Proc
			case KRecv:
				recvG[e.MsgID], recvP[e.MsgID] = e.GSeq, e.Proc
			}
		}
		orphans := map[int64]bool{}
		inflight := map[int64]bool{}
		for id, sg := range sendG {
			sIn := sg <= cut.At[sendP[id]]
			rg, received := recvG[id]
			rIn := received && rg <= cut.At[recvP[id]]
			if rIn && !sIn {
				orphans[id] = true
			}
			if sIn && !rIn {
				inflight[id] = true
			}
		}
		if len(orphans) != len(rep.Orphans) || len(inflight) != len(rep.InFlight) {
			return false
		}
		for _, o := range rep.Orphans {
			if !orphans[o.MsgID] {
				return false
			}
		}
		for _, f := range rep.InFlight {
			if !inflight[f.MsgID] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
