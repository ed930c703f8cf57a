package ocsml_test

import (
	"strings"
	"testing"
	"time"

	"ocsml"
)

func TestPublicRunOCSML(t *testing.T) {
	rep, err := ocsml.Run(ocsml.Config{
		Protocol:           ocsml.ProtoOCSML,
		N:                  6,
		Seed:               3,
		Steps:              500,
		Think:              10 * time.Millisecond,
		StateBytes:         4 << 20,
		CheckpointInterval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatal("run did not complete")
	}
	if rep.Protocol != "ocsml" || rep.N != 6 {
		t.Fatalf("identity wrong: %+v", rep)
	}
	if rep.GlobalCheckpoints < 2 {
		t.Fatalf("GlobalCheckpoints = %d", rep.GlobalCheckpoints)
	}
	if len(rep.ConsistentSeqs) == 0 {
		t.Fatal("consistency was not verified")
	}
	if rep.AppMessages != 6*500 {
		t.Fatalf("AppMessages = %d", rep.AppMessages)
	}
	if rep.Recovery != nil {
		t.Fatalf("a run without a failure reported a recovery: %+v", rep.Recovery)
	}
	if rep.Makespan <= 0 || rep.LogBytes <= 0 || rep.PiggybackBytes <= 0 {
		t.Fatalf("metrics look empty: %+v", rep)
	}
	if rep.MeanMessageLatency <= 0 || rep.P95MessageLatency < rep.MeanMessageLatency {
		t.Fatalf("latency stats wrong: mean=%v p95=%v",
			rep.MeanMessageLatency, rep.P95MessageLatency)
	}
}

func TestPublicRunEveryProtocol(t *testing.T) {
	for _, proto := range ocsml.Protocols() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			t.Parallel()
			rep, err := ocsml.Run(ocsml.Config{
				Protocol: proto,
				N:        4,
				Seed:     2,
				Steps:    200,
				Think:    10 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Completed {
				t.Fatal("did not complete")
			}
		})
	}
}

func TestPublicRunPatterns(t *testing.T) {
	for _, pat := range []ocsml.Pattern{ocsml.Uniform, ocsml.Ring, ocsml.ClientServer, ocsml.Mesh, ocsml.Bursty} {
		rep, err := ocsml.Run(ocsml.Config{Protocol: ocsml.ProtoOCSML, N: 5, Steps: 150, Pattern: pat})
		if err != nil {
			t.Fatalf("%s: %v", pat, err)
		}
		if !rep.Completed {
			t.Fatalf("%s did not complete", pat)
		}
	}
}

func TestPublicRunErrors(t *testing.T) {
	if _, err := ocsml.Run(ocsml.Config{Protocol: "martian"}); err == nil {
		t.Fatal("unknown protocol should error")
	}
	if _, err := ocsml.Run(ocsml.Config{Protocol: ocsml.ProtoOCSML, Pattern: "weird"}); err == nil {
		t.Fatal("unknown pattern should error")
	}
}

func TestPublicOCSMLOptions(t *testing.T) {
	rep, err := ocsml.Run(ocsml.Config{
		Protocol: ocsml.ProtoOCSML,
		N:        8,
		Steps:    60,
		Think:    300 * time.Millisecond, // sparse: force control rounds
		OCSML: &ocsml.OCSMLOptions{
			SuppressBGN: true, SkipREQ: true, EarlyFlush: true,
		},
		CheckpointInterval: 2 * time.Second,
		ConvergenceTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters["ctl.CK_REQ"] == 0 {
		t.Fatal("sparse run should use control messages")
	}
}

func TestPublicTraceOff(t *testing.T) {
	off := false
	rep, err := ocsml.Run(ocsml.Config{
		Protocol: ocsml.ProtoOCSML, N: 4, Steps: 100, Trace: &off,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ConsistentSeqs) != 0 || rep.Recovery != nil {
		t.Fatal("tracing off should skip verification and recovery analysis")
	}
}

func TestPublicUncoordinatedRecovery(t *testing.T) {
	rep, err := ocsml.Run(ocsml.Config{
		Protocol: ocsml.ProtoUncoordinated, N: 6, Steps: 800,
		Think: 5 * time.Millisecond, CheckpointInterval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovery == nil {
		t.Fatal("uncoordinated run should carry a domino analysis")
	}
	if rep.Recovery.RollbackDepth == 0 {
		t.Fatal("dense uncoordinated traffic should show domino rollback")
	}
}

func TestPublicExperiments(t *testing.T) {
	ids := ocsml.Experiments()
	if len(ids) != 15 {
		t.Fatalf("Experiments = %v", ids)
	}
	out, err := ocsml.RunExperiment("A2", true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "A2") || !strings.Contains(out, "skip (paper)") {
		t.Fatalf("table looks wrong:\n%s", out)
	}
	if _, err := ocsml.RunExperiment("Z9", true); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestPublicLiveFailureRecovery(t *testing.T) {
	rep, err := ocsml.Run(ocsml.Config{
		Protocol:           ocsml.ProtoOCSML,
		N:                  6,
		Seed:               4,
		Steps:              800,
		Think:              10 * time.Millisecond,
		StateBytes:         2 << 20,
		CheckpointInterval: time.Second,
		ConvergenceTimeout: 300 * time.Millisecond,
		Failure:            &ocsml.FailureSpec{At: 3 * time.Second, Proc: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatal("run did not complete after recovery")
	}
	lr := rep.Recovery
	if lr == nil {
		t.Fatal("Recovery missing")
	}
	if lr.LineSeq < 1 {
		t.Fatalf("line = %d, expected a committed checkpoint before 3s", lr.LineSeq)
	}
	if lr.Iterations != 1 || lr.RollbackDepth > 1 || lr.LostWorkFraction <= 0 {
		t.Fatalf("executed recovery %+v: want one round, depth <= 1 and some lost work", lr)
	}
	if len(rep.ConsistentSeqs) == 0 {
		t.Fatal("post-recovery checkpoints were not verified")
	}
	// Live recovery is only supported for OCSML.
	if _, err := ocsml.Run(ocsml.Config{
		Protocol: ocsml.ProtoKooToueg, N: 4, Steps: 100,
		Failure: &ocsml.FailureSpec{At: time.Second, Proc: 0},
	}); err == nil {
		t.Fatal("live failure with non-OCSML protocol should error")
	}
}

func TestDeterministicReports(t *testing.T) {
	run := func() *ocsml.Report {
		rep, err := ocsml.Run(ocsml.Config{
			Protocol: ocsml.ProtoOCSML, N: 5, Seed: 9, Steps: 300,
			StateBytes: 4 << 20, CheckpointInterval: time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.ControlMessages != b.ControlMessages ||
		a.GlobalCheckpoints != b.GlobalCheckpoints || a.LogBytes != b.LogBytes {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}
