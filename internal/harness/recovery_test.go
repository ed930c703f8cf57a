package harness

import (
	"testing"

	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
	"ocsml/internal/engine"
	"ocsml/internal/trace"
)

func denseCfg(proto string, seed, steps int64, think des.Duration) RunCfg {
	return RunCfg{Proto: proto, N: 6, Seed: seed, Steps: steps, Think: think,
		StateBytes: 4 << 20, Interval: des.Second, Timeout: 300 * des.Millisecond, Trace: true}
}

// crashed is rc with P0 crashing at 80% of its nominal run.
func crashed(rc RunCfg) RunCfg {
	rc.Failure = &engine.FailurePlan{At: des.Time(rc.Steps) * rc.Think * 4 / 5}
	return rc
}

func TestExecutedRecoveryOCSML(t *testing.T) {
	r := Run(crashed(denseCfg("ocsml", 1, 600, 10*des.Millisecond)))
	a, err := ExecutedRecovery(r)
	if err != nil {
		t.Fatal(err)
	}
	if line := int(r.Counter("recovery.line_seq")); line < 1 || a.Iterations != 1 {
		t.Fatalf("line %d after %d rounds, want a committed line in one RB_* round", line, a.Iterations)
	}
	for _, s := range a.LineSeqs {
		if s != a.LineSeqs[0] {
			t.Fatalf("coordinated line not aligned: %v", a.LineSeqs)
		}
	}
	if a.RollbackDepth() > 1 {
		t.Fatalf("OCSML rollback depth = %d, must be bounded by one in-progress checkpoint", a.RollbackDepth())
	}
	if a.LostWork <= 0 || a.LostWorkFraction() > 0.5 {
		t.Fatalf("lost work %d (%.2f of the run): want the work since the line's cut", a.LostWork, a.LostWorkFraction())
	}
	// In-flight messages across the line are re-sent from the selective
	// logs unless they were sent in a normal period (the documented
	// lost-message window).
	if a.InFlight > 0 && a.Recoverable == 0 {
		t.Fatal("no in-flight message recoverable from logs")
	}
	if _, err := ExecutedRecovery(Run(denseCfg("ocsml", 1, 100, 10*des.Millisecond))); err == nil {
		t.Fatal("a run without a crash summarised a recovery")
	}
}

// TestExecutedRecoveryReadsThePrefix classifies the messages crossing an
// executed line on a hand-built two-process history. Before the crash,
// P0 sends m1 (logged by its line record) and m2 (not logged), then both
// processes finalize S_1; P0 sends m3 and finalizes S_2, and P1 receives
// m3 and crashes. After the rollback to S_1, P0 re-sends m1 and m3 under
// their original IDs and P1 receives both. The summary reads the prefix
// before the crash: m1 is in flight and recoverable, m2 in flight and
// lost, m3 (sent and received after the cut) neither. The whole history
// reads m1's re-send as its send, after the cut, and misses it.
func TestExecutedRecoveryReadsThePrefix(t *testing.T) {
	rec := trace.NewRecorder()
	ev := func(kind trace.Kind, proc, peer, seq int, msg int64) {
		rec.Record(trace.Event{Kind: kind, Proc: proc, Peer: peer, Seq: seq, MsgID: msg})
	}
	ev(trace.KSend, 0, 1, -1, 1)
	ev(trace.KSend, 0, 1, -1, 2)
	ev(trace.KFinalize, 0, -1, 1, 0)
	ev(trace.KFinalize, 1, -1, 1, 0)
	ev(trace.KSend, 0, 1, -1, 3)
	ev(trace.KFinalize, 0, -1, 2, 0)
	ev(trace.KRecv, 1, 0, -1, 3)
	ev(trace.KFail, 1, -1, -1, 0)
	ev(trace.KRestore, 0, -1, 1, 0)
	ev(trace.KRestore, 1, -1, 1, 0)
	ev(trace.KSend, 0, 1, -1, 1)
	ev(trace.KRecv, 1, 0, -1, 1)
	ev(trace.KSend, 0, 1, -1, 3)
	ev(trace.KRecv, 1, 0, -1, 3)

	ckpts := checkpoint.NewStore(2)
	ckpts.Proc(0).Add(checkpoint.Record{Tentative: checkpoint.Tentative{Seq: 1},
		Log: []checkpoint.LoggedMsg{{ID: 1, Src: 0, Dst: 1, Dir: checkpoint.Sent}}})
	ckpts.Proc(1).Add(checkpoint.Record{Tentative: checkpoint.Tentative{Proc: 1, Seq: 1}})
	r := &engine.Result{
		Cfg: engine.Config{N: 2}, Trace: rec, Ckpts: ckpts, TotalWork: 100,
		Counters: map[string]int64{"recovery.recoveries": 1, "recovery.line_seq": 1, "recovery.lost_work": 25},
	}
	a, err := ExecutedRecovery(r)
	if err != nil {
		t.Fatal(err)
	}
	if a.InFlight != 2 || a.Recoverable != 1 || a.LostMessages != 1 {
		t.Fatalf("in flight %d, recoverable %d, lost %d: want m1 recoverable and m2 lost",
			a.InFlight, a.Recoverable, a.LostMessages)
	}
	if a.Rollbacks[0] != 1 || a.Rollbacks[1] != 0 || a.LostWorkFraction() != 0.25 {
		t.Fatalf("rollbacks %v, lost work %.2f: want P0's S_2 discarded and 0.25", a.Rollbacks, a.LostWorkFraction())
	}

	events := rec.Events()
	cut, ok := trace.LineCut(events, trace.KFinalize, []int{1, 1})
	if !ok {
		t.Fatal("no cut through S_1")
	}
	whole := trace.CheckEvents(events, cut)
	if !whole.Consistent() || len(whole.InFlight) != 1 || whole.InFlight[0].MsgID != 2 {
		t.Fatalf("whole-history check: %+v, want only m2 in flight (m1's re-send hides it)", whole)
	}
}

func TestDominoEffectUncoordinated(t *testing.T) {
	a, err := Domino(Run(denseCfg("uncoordinated", 3, 800, 5*des.Millisecond)), trace.KCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	if a.RollbackDepth() == 0 {
		t.Fatal("dense uncoordinated traffic should force domino rollbacks")
	}
	if a.Iterations < 2 {
		t.Fatalf("iterations = %d, expected cascading", a.Iterations)
	}
	// The paper's protocol, crashed on the same workload, loses no more
	// than one interval.
	ao, err := ExecutedRecovery(Run(crashed(denseCfg("ocsml", 3, 800, 5*des.Millisecond))))
	if err != nil {
		t.Fatal(err)
	}
	if ao.RollbackDepth() >= a.RollbackDepth() && a.RollbackDepth() > 1 {
		t.Fatalf("OCSML depth %d should be below uncoordinated depth %d",
			ao.RollbackDepth(), a.RollbackDepth())
	}
}

func TestDominoOnCoordinatedTraceIsShallow(t *testing.T) {
	// Running the domino computation on OCSML's finalize events must
	// terminate immediately: equal-seq cuts are already consistent.
	a, err := Domino(Run(denseCfg("ocsml", 4, 400, 10*des.Millisecond)), trace.KFinalize)
	if err != nil {
		t.Fatal(err)
	}
	if a.RollbackDepth() != 0 {
		t.Fatalf("OCSML domino depth = %d, want 0", a.RollbackDepth())
	}
	if a.Iterations != 1 {
		t.Fatalf("iterations = %d, want 1", a.Iterations)
	}
}

func TestAnalysisHelpers(t *testing.T) {
	a := &Analysis{Rollbacks: []int{0, 3, 1}, LostWork: 50, TotalWork: 200}
	if a.RollbackDepth() != 3 {
		t.Fatal("RollbackDepth")
	}
	if a.LostWorkFraction() != 0.25 {
		t.Fatal("LostWorkFraction")
	}
	empty := &Analysis{}
	if empty.LostWorkFraction() != 0 || empty.RollbackDepth() != 0 {
		t.Fatal("empty analysis helpers")
	}
}
