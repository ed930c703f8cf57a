package protomodel

import (
	"testing"

	"ocsml/internal/trace"
)

// cutAt builds the cut of S_seq from KFinalize events, false when some
// process never finalized seq.
func cutAt(events []trace.Event, n, seq int) (trace.Cut, bool) {
	cut := trace.NewCut(n)
	found := make([]bool, n)
	for _, e := range events {
		if e.Kind == trace.KFinalize && e.Seq == seq && e.Proc >= 0 && e.Proc < n {
			cut.At[e.Proc] = e.GSeq
			found[e.Proc] = true
		}
	}
	for _, ok := range found {
		if !ok {
			return trace.Cut{}, false
		}
	}
	return cut, true
}

func TestExploreBounds(t *testing.T) {
	if _, err := Explore(Config{N: 1}); err == nil {
		t.Error("N=1 should be rejected")
	}
	if _, err := Explore(Config{N: 7}); err == nil {
		t.Error("N=7 should be rejected")
	}
}

// TestCorrectProtocolClean is the tentpole property: the faithful
// Figure-3 semantics admit no orphan, no replay gap, and no impossible
// piggyback in ANY interleaving within the bounds.
func TestCorrectProtocolClean(t *testing.T) {
	for _, cfg := range []Config{
		{N: 2, MaxMsgs: 3, MaxInits: 2, MaxCrashes: 1},
		// N=3 needs 4 sends for a full cut: one to spread the initiation
		// through a chain, two to carry the finalization back.
		{N: 3, MaxMsgs: 4, MaxInits: 1, MaxCrashes: 1},
	} {
		res, err := Explore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cex != nil {
			t.Fatalf("N=%d: unexpected counterexample: %v\nactions: %v",
				cfg.N, res.Cex.Violation, res.Cex.Actions)
		}
		if res.Hit {
			t.Errorf("N=%d: state cap hit (%d states); bounds too loose for the cap", cfg.N, res.States)
		}
		if res.MaxCut < 1 {
			t.Errorf("N=%d: no run finalized cut S_1 (MaxCut=%d, %d states); bounds too tight to be meaningful",
				cfg.N, res.MaxCut, res.States)
		}
		t.Logf("N=%d clean over %d states, deepest full cut S_%d", cfg.N, res.States, res.MaxCut)
	}
}

func TestSweepClean(t *testing.T) {
	res, err := Sweep(3, Config{MaxMsgs: 2, MaxInits: 2, MaxCrashes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cex != nil {
		t.Fatalf("sweep found unexpected counterexample: %v", res.Cex.Violation)
	}
}

// TestMutationsCaught checks that each injected bug yields a
// counterexample whose emitted trace exhibits the claimed violation
// under the offline trace checks (the same ones cmd/tracecheck runs).
func TestMutationsCaught(t *testing.T) {
	cases := []struct {
		mut  Mutation
		cfg  Config
		prop Prop
	}{
		// Dropping one log append breaks replay sufficiency (P2): the
		// finalize finds processed ⊅ logged.
		{MutDropLog, Config{N: 2, MaxMsgs: 2, MaxInits: 2, MaxCrashes: 0}, PropReplay},
		// Finalizing after the receive instead of before moves the cut
		// point past the message: orphan of S_k (P1).
		{MutReorderFinalize, Config{N: 2, MaxMsgs: 2, MaxInits: 2, MaxCrashes: 0}, PropOrphan},
		// Skipping the piggyback examination misses the triggered
		// finalization; the receive commits against a stale cut (P1).
		{MutSkipConsume, Config{N: 2, MaxMsgs: 3, MaxInits: 2, MaxCrashes: 0}, PropOrphan},
		// Joining a round without recording the join message leaves a
		// receive the checkpoint's state holds unnamed by it (P4).
		{MutForgetJoin, Config{N: 2, MaxMsgs: 2, MaxInits: 2, MaxCrashes: 0}, PropChannel},
	}
	for _, tc := range cases {
		t.Run(tc.mut.String(), func(t *testing.T) {
			cfg := tc.cfg
			cfg.Mutation = tc.mut
			res, err := Explore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cex := res.Cex
			if cex == nil {
				t.Fatalf("mutation %s not caught over %d states", tc.mut, res.States)
			}
			if cex.Violation.Prop != tc.prop {
				t.Fatalf("violation = %v, want prop %v", cex.Violation, tc.prop)
			}
			if !cex.CutComplete {
				t.Fatalf("cut S_%d not completed; trace cannot exhibit the breach", cex.Violation.Seq)
			}
			if cex.Prefix <= 0 || cex.Prefix > len(cex.Actions) {
				t.Fatalf("bad prefix %d of %d actions", cex.Prefix, len(cex.Actions))
			}
			if len(cex.Events) == 0 {
				t.Fatal("counterexample carries no trace events")
			}
			t.Logf("%s: %v\nactions: %v", tc.mut, cex.Violation, cex.Actions)

			switch tc.prop {
			case PropOrphan:
				cut, ok := cutAt(cex.Events, cfg.N, cex.Violation.Seq)
				if !ok {
					t.Fatalf("trace lacks a complete S_%d cut", cex.Violation.Seq)
				}
				rep := trace.CheckEvents(cex.Events, cut)
				if rep.Consistent() {
					t.Errorf("trace cut S_%d is consistent; expected an orphan", cex.Violation.Seq)
				}
			case PropReplay:
				gaps := trace.CheckReplay(cex.Events)
				if len(gaps) == 0 {
					t.Error("trace shows no replay gap; expected one")
				}
			case PropChannel:
				gaps := trace.CheckReplay(cex.Events)
				if len(gaps) == 0 || !gaps[0].Unheld || gaps[0].MsgID != int64(cex.Violation.Msg) {
					t.Errorf("trace gaps %v, want msg %d unheld", gaps, cex.Violation.Msg)
				}
			}
		})
	}
}

// TestReorderFinalizeZCycle: the orphan the reorder bug creates closes a
// cycle in the rollback-dependency graph (the P3 witness), while the
// correct protocol's traces stay acyclic.
func TestReorderFinalizeZCycle(t *testing.T) {
	cfg := Config{N: 2, MaxMsgs: 2, MaxInits: 2, Mutation: MutReorderFinalize}
	res, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cex == nil {
		t.Fatal("reorder-finalize not caught")
	}
	if len(res.Cex.ZCycle) == 0 {
		t.Errorf("no Z-cycle in the reorder-finalize trace; RDG should be cyclic")
	} else {
		t.Logf("Z-cycle: %v", res.Cex.ZCycle)
	}
}

// TestCorrectTraceAcyclic replays a correct run and checks its RDG is
// acyclic and its cuts consistent end-to-end.
func TestCorrectTraceAcyclic(t *testing.T) {
	cfg := Config{N: 2, MaxMsgs: 3, MaxInits: 2}
	st := newState(&cfg)
	em := &emitter{}
	script := []Action{
		{OpSend, 0, 1}, {OpDeliver, 1, 0}, // plain exchange
		{OpInit, 0, 0},                    // P0 initiates S_1
		{OpSend, 0, 1}, {OpDeliver, 1, 0}, // piggyback spreads: P1 joins
		{OpSend, 1, 0}, {OpDeliver, 0, 1}, // P0 learns P1 tentative: finalize
	}
	for i, a := range script {
		if vs := st.apply(a, em); len(vs) > 0 {
			t.Fatalf("step %d (%v): unexpected violation %v", i, a, vs[0])
		}
	}
	if cyc := trace.ZCycles(em.events, trace.KFinalize); cyc != nil {
		t.Errorf("correct trace has Z-cycle %v", cyc)
	}
	if gaps := trace.CheckReplay(em.events); len(gaps) > 0 {
		t.Errorf("correct trace has replay gaps %v", gaps)
	}
}

// TestDeterministic: identical configs explore identical state counts
// and find identical counterexamples (the explorer is a build gate; it
// must not flake).
func TestDeterministic(t *testing.T) {
	cfg := Config{N: 2, MaxMsgs: 2, MaxInits: 2, Mutation: MutDropLog}
	a, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.States != b.States {
		t.Errorf("state counts differ: %d vs %d", a.States, b.States)
	}
	if a.Cex == nil || b.Cex == nil {
		t.Fatal("expected counterexamples from both runs")
	}
	if av, bv := a.Cex.Violation.String(), b.Cex.Violation.String(); av != bv {
		t.Errorf("violations differ: %q vs %q", av, bv)
	}
	if len(a.Cex.Actions) != len(b.Cex.Actions) {
		t.Errorf("action counts differ: %d vs %d", len(a.Cex.Actions), len(b.Cex.Actions))
	}
}

func TestParseMutation(t *testing.T) {
	for _, m := range Mutations() {
		got, ok := ParseMutation(m.String())
		if !ok || got != m {
			t.Errorf("ParseMutation(%q) = %v, %v", m.String(), got, ok)
		}
	}
	if _, ok := ParseMutation("no-such-bug"); ok {
		t.Error("ParseMutation accepted garbage")
	}
}
