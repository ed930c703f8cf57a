package harness

import (
	"reflect"
	"slices"
	"testing"

	"ocsml/internal/des"
	"ocsml/internal/engine"
	"ocsml/internal/trace"
	"ocsml/internal/workload"
)

// TestCheckGlobalsMatchesCheckEvents: the one-walk check of every S_k
// agrees, seq by seq, with CheckEvents on a cut this test builds itself
// from the cut rule, on seeded DES histories that exercise each part of
// the rule: OCSML with a crash (seqs finalized again after the rollback,
// so the last event counts), bcs-cic (forced checkpoints), Chandy-Lamport,
// and uncoordinated checkpointing (inconsistent cuts). The seqs asked for
// run one past the last in the trace, so every history has an incomplete
// one too.
func TestCheckGlobalsMatchesCheckEvents(t *testing.T) {
	runs := []RunCfg{
		{Proto: "ocsml", Seed: 1, Failure: &engine.FailurePlan{At: des.Time(2 * des.Second), Proc: 1}},
		{Proto: "bcs-cic", Seed: 2},
		{Proto: "chandy-lamport", Seed: 3},
		{Proto: "uncoordinated", Seed: 4},
	}
	for _, rc := range runs {
		rc.N, rc.Steps, rc.Pattern, rc.Trace = 5, 300, workload.UniformRandom, true
		rc.Interval, rc.Timeout = des.Second, 400*des.Millisecond
		r := Run(rc)
		events := r.Trace.Events()
		kind := trace.CutKind(events)
		seqs := trace.CutSeqs(events, kind)
		if len(seqs) < 3 {
			t.Fatalf("%s: only seqs %v in the trace", rc.Proto, seqs)
		}
		seqs = append([]int{0}, seqs...)
		seqs = append(seqs, slices.Max(seqs)+1)
		gs := r.Trace.CheckGlobals(rc.N, kind, seqs)
		refilled := 0
		inconsistent := 0
		for j, seq := range seqs {
			cut, complete := ownCut(events, rc.N, kind, seq)
			g := gs[j]
			if g.Seq != seq || g.Complete != complete {
				t.Fatalf("%s S_%d: CheckGlobals says seq %d complete %v, the test's own cut complete %v",
					rc.Proto, seq, g.Seq, g.Complete, complete)
			}
			if !complete {
				continue
			}
			if want := trace.CheckEvents(events, cut); !reflect.DeepEqual(g.Cut, cut) || !reflect.DeepEqual(g.Report, want) {
				t.Fatalf("%s S_%d: CheckGlobals cut %v with %d orphans and %d in flight, CheckEvents cut %v with %d and %d",
					rc.Proto, seq, g.Cut.At, len(g.Orphans), len(g.InFlight), cut.At, len(want.Orphans), len(want.InFlight))
			}
			if !g.Consistent() {
				inconsistent++
			}
			for p := range cut.At {
				if refinalized(events, kind, p, seq) {
					refilled++
				}
			}
		}
		switch rc.Proto {
		case "ocsml":
			if refilled == 0 {
				t.Error("ocsml: no seq finalized twice; the crash did not exercise the last-event rule")
			}
		case "bcs-cic":
			if r.Trace.CountKind(trace.KForced) == 0 {
				t.Error("bcs-cic: no forced checkpoint in the trace")
			}
		case "uncoordinated":
			if inconsistent == 0 {
				t.Error("uncoordinated: every cut consistent; the orphan path went untested")
			}
		}
	}
}

// ownCut builds S_seq's cut straight from the rule: P_i's last event with
// Seq seq of the cut kind, KForced counting as KCheckpoint; S_0 is the
// initial state.
func ownCut(events []trace.Event, n int, kind trace.Kind, seq int) (trace.Cut, bool) {
	cut := trace.NewCut(n)
	if seq == 0 {
		return cut, true
	}
	for _, e := range events {
		cuts := e.Kind == kind || (kind == trace.KCheckpoint && e.Kind == trace.KForced)
		if cuts && e.Seq == seq && e.Proc >= 0 && e.Proc < n {
			cut.At[e.Proc] = e.GSeq
		}
	}
	return cut, !slices.Contains(cut.At, 0)
}

// refinalized reports whether process p has two cut events of seq.
func refinalized(events []trace.Event, kind trace.Kind, p, seq int) bool {
	n := 0
	for _, e := range events {
		if e.Kind == kind && e.Proc == p && e.Seq == seq {
			n++
		}
	}
	return n > 1
}
