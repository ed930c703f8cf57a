package core_test

// Scenario tests that replay the paper's worked examples event for event:
// Figure 2 (the basic algorithm) and Figure 5 (convergence via control
// messages).

import (
	"testing"

	"ocsml/internal/checkpoint"
	"ocsml/internal/core"
	"ocsml/internal/des"
	"ocsml/internal/engine"
	"ocsml/internal/netsim"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
	"ocsml/internal/workload"
)

// scenario builds a 1ms-fixed-latency cluster with captured protocol
// instances and scripted sends.
func scenario(t *testing.T, n int, opt core.Options, plans map[int][]workload.ScriptedSend, drain des.Duration) (*engine.Cluster, []*core.Protocol) {
	t.Helper()
	cfg := engine.DefaultConfig()
	cfg.N = n
	cfg.Seed = 1
	cfg.Latency = netsim.Fixed{D: des.Millisecond}
	cfg.StateBytes = 1 << 20
	cfg.CopyCost = 0
	cfg.Drain = drain
	protos := make([]*core.Protocol, n)
	pf := func(i, n int) protocol.Protocol {
		protos[i] = core.New(opt)
		return protos[i]
	}
	c := engine.New(cfg, pf, workload.ScriptedFactory(plans))
	return c, protos
}

// TestFigure2 replays the paper's Figure 2 on four processes:
//
//	P0 initiates CT_{0,1} and sends M2 to P1 → P1 takes CT_{1,1}.
//	P1 sends M3 to P3 and M4 to P2 → both take tentative checkpoints.
//	P2 sends M6 to P3, P3 sends M5 to P2 carrying tentSet {P0,P1,P3};
//	on receiving M5, P2 knows all processes are tentative and finalizes
//	with logSet {M6, M5} (paper: C_{2,1} = CT_{2,1} ∪ {M5, M6}).
//	M7 (P2→P1, normal) finalizes P1 excluding M7; M8 (P1→P3) finalizes
//	P3 excluding M8; M9 (P3→P0) finalizes P0 excluding M9.
func TestFigure2(t *testing.T) {
	ms := des.Millisecond
	plans := map[int][]workload.ScriptedSend{
		0: {{At: 20 * ms, Dst: 1, Bytes: 100}},                                                                        // M2
		1: {{At: 40 * ms, Dst: 3, Bytes: 100}, {At: 45 * ms, Dst: 2, Bytes: 100}, {At: 100 * ms, Dst: 3, Bytes: 100}}, // M3, M4, M8
		2: {{At: 55 * ms, Dst: 1, Bytes: 100}, {At: 80 * ms, Dst: 1, Bytes: 100}},                                     // M6, M7
		3: {{At: 60 * ms, Dst: 2, Bytes: 100}, {At: 120 * ms, Dst: 0, Bytes: 100}},                                    // M5, M9
	}
	// Pure Figure-3 algorithm: no periodic timer, no control messages.
	opt := core.Options{}
	c, protos := scenario(t, 4, opt, plans, 100*ms)
	c.Sim.At(10*ms, protos[0].Initiate)
	r := c.Run()

	// Every process finalized checkpoint 1.
	for p := 0; p < 4; p++ {
		rec, ok := r.Ckpts.Proc(p).Get(1)
		if !ok {
			t.Fatalf("P%d did not finalize C_{%d,1}", p, p)
		}
		if protos[p].Status() != core.Normal {
			t.Fatalf("P%d not back to normal", p)
		}
		// Replay exactness: CT fold + log replay == fold at CFE.
		if !rec.Replays() {
			t.Fatalf("P%d: log replay fold mismatch", p)
		}
	}
	if r.CtlMsgs != 0 {
		t.Fatalf("basic algorithm sent %d control messages", r.CtlMsgs)
	}

	// Finalization order: P2 first (on M5), then P1 (M7), P3 (M8), P0 (M9).
	var order []int
	for _, e := range r.Trace.Events() {
		if e.Kind == trace.KFinalize && e.Seq == 1 {
			order = append(order, e.Proc)
		}
	}
	want := []int{2, 1, 3, 0}
	if len(order) != 4 {
		t.Fatalf("finalize events = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("finalization order = %v, want %v", order, want)
		}
	}

	// P2's log is exactly {M6 sent, M5 received} — the paper's
	// logSet_{2,1} = {M5, M6}.
	rec2, _ := r.Ckpts.Proc(2).Get(1)
	if len(rec2.Log) != 2 {
		t.Fatalf("P2 log = %+v, want 2 entries", rec2.Log)
	}
	if rec2.Log[0].Dir != checkpoint.Sent || rec2.Log[0].Dst != 1 {
		t.Fatalf("P2 log[0] should be M6 (sent to P1): %+v", rec2.Log[0])
	}
	if rec2.Log[1].Dir != checkpoint.Received || rec2.Log[1].Src != 3 {
		t.Fatalf("P2 log[1] should be M5 (received from P3): %+v", rec2.Log[1])
	}

	// P0's log contains only M2 (sent); M9 is excluded (sender normal).
	rec0, _ := r.Ckpts.Proc(0).Get(1)
	if len(rec0.Log) != 1 || rec0.Log[0].Dir != checkpoint.Sent || rec0.Log[0].Dst != 1 {
		t.Fatalf("P0 log = %+v, want exactly M2 sent", rec0.Log)
	}

	// P3's log: only M5 (sent). M3 triggered CT_{3,1} and is part of the
	// checkpointed state, not the log; M8 is excluded because its sender
	// had finalized.
	rec3, _ := r.Ckpts.Proc(3).Get(1)
	if len(rec3.Log) != 1 || rec3.Log[0].Dir != checkpoint.Sent {
		t.Fatalf("P3 log = %+v, want exactly M5 sent", rec3.Log)
	}

	// P1's log: M3, M4 sent and M6 received; M7 excluded.
	rec1, _ := r.Ckpts.Proc(1).Get(1)
	if len(rec1.Log) != 3 {
		t.Fatalf("P1 log = %+v, want 3 entries", rec1.Log)
	}

	// S_1 = {C_{0,1}, ..., C_{3,1}} is a consistent global checkpoint.
	if err := r.CheckGlobal(1); err != nil {
		t.Fatalf("S_1 inconsistent: %v", err)
	}
}

// TestFigure5 replays the paper's Figure 5: without control messages the
// computation cannot converge (P3 receives nothing), and the CK_BGN /
// CK_REQ / CK_END machinery with both optimizations finalizes everyone.
func TestFigure5(t *testing.T) {
	ms := des.Millisecond
	plans := map[int][]workload.ScriptedSend{
		1: {{At: 10 * ms, Dst: 2, Bytes: 100}},                                    // M2: P1→P2 right after initiating
		2: {{At: 20 * ms, Dst: 1, Bytes: 100}},                                    // M3: P2→P1 (P1 learns P2 is tentative)
		3: {{At: 30 * ms, Dst: 2, Bytes: 100}, {At: 40 * ms, Dst: 2, Bytes: 100}}, // M5, M6
	}
	opt := core.Options{
		Timeout:     100 * ms,
		SuppressBGN: true,
		SkipREQ:     true,
	}
	c, protos := scenario(t, 4, opt, plans, 500*ms)
	c.Sim.At(10*ms, protos[1].Initiate)
	r := c.Run()

	for p := 0; p < 4; p++ {
		if _, ok := r.Ckpts.Proc(p).Get(1); !ok {
			t.Fatalf("P%d did not finalize C_{%d,1}", p, p)
		}
		if protos[p].Status() != core.Normal {
			t.Fatalf("P%d stuck tentative", p)
		}
	}
	// Control traffic: exactly one CK_BGN (P1; P2 suppressed), three
	// CK_REQ hops (P0→P1, P1→P3 skipping P2, P3→P0) and a CK_END
	// broadcast to the three non-coordinator processes.
	if got := r.Counter("ctl.CK_BGN"); got != 1 {
		t.Fatalf("CK_BGN = %d, want 1", got)
	}
	if got := r.Counter("ctl.CK_REQ"); got != 3 {
		t.Fatalf("CK_REQ = %d, want 3", got)
	}
	if got := r.Counter("ctl.CK_END"); got != 3 {
		t.Fatalf("CK_END = %d, want 3", got)
	}
	if got := r.Counter("bgn_suppressed"); got != 1 {
		t.Fatalf("bgn_suppressed = %d, want 1 (P2)", got)
	}
	if got := r.Counter("req_skipped"); got != 1 {
		t.Fatalf("req_skipped = %d, want 1 (P2 skipped)", got)
	}

	// P2's log holds M5 and M6, received while tentative (paper: logged
	// optimistically even though their sender was still normal).
	rec2, _ := r.Ckpts.Proc(2).Get(1)
	got := 0
	for _, m := range rec2.Log {
		if m.Src == 3 && m.Dir == checkpoint.Received {
			got++
		}
	}
	if got != 2 {
		t.Fatalf("P2 log should include M5 and M6 from P3: %+v", rec2.Log)
	}

	if err := r.CheckGlobal(1); err != nil {
		t.Fatalf("S_1 inconsistent: %v", err)
	}
}

// TestFigure5WithoutControlMessagesStalls shows the motivating failure:
// the pure basic algorithm never finalizes on this communication pattern
// (paper: "Without these control messages, the original algorithm does
// not converge in this example").
func TestFigure5WithoutControlMessagesStalls(t *testing.T) {
	ms := des.Millisecond
	plans := map[int][]workload.ScriptedSend{
		1: {{At: 10 * ms, Dst: 2, Bytes: 100}},
		2: {{At: 20 * ms, Dst: 1, Bytes: 100}},
		3: {{At: 30 * ms, Dst: 2, Bytes: 100}, {At: 40 * ms, Dst: 2, Bytes: 100}},
	}
	c, protos := scenario(t, 4, core.Options{}, plans, time500(t))
	c.Sim.At(10*ms, protos[1].Initiate)
	r := c.Run()
	if protos[1].Status() != core.Tentative {
		t.Fatal("P1 should remain tentative forever without control messages")
	}
	// P3 never receives a message, so it never even learns of the
	// initiation.
	if protos[3].Status() != core.Normal || protos[3].Csn() != 0 {
		t.Fatalf("P3 should still be normal at csn 0, got %v csn=%d",
			protos[3].Status(), protos[3].Csn())
	}
	if _, ok := r.Ckpts.Proc(1).Get(1); ok {
		t.Fatal("P1 must not finalize without control messages")
	}
}

func time500(t *testing.T) des.Duration { t.Helper(); return 500 * des.Millisecond }
