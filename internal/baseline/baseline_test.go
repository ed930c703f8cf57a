package baseline_test

// Behavioural tests for all baseline protocols: every coordinated
// baseline must emit only consistent global checkpoints; each must also
// exhibit the characteristic cost the paper attributes to its class
// (write bursts for Chandy–Lamport, blocking for Koo–Toueg, serialized
// writes for staggered, forced checkpoints for CIC, inconsistent cuts for
// uncoordinated).

import (
	"fmt"
	"testing"

	"ocsml/internal/baseline/bcs"
	"ocsml/internal/baseline/chandylamport"
	"ocsml/internal/baseline/kootoueg"
	"ocsml/internal/baseline/nop"
	"ocsml/internal/baseline/staggered"
	"ocsml/internal/baseline/uncoord"
	"ocsml/internal/des"
	"ocsml/internal/engine"
	"ocsml/internal/trace"
	"ocsml/internal/workload"
)

func run(t *testing.T, n int, seed int64, fifo bool, pf engine.ProtoFactory, steps int64) *engine.Result {
	t.Helper()
	cfg := engine.DefaultConfig()
	cfg.N = n
	cfg.Seed = seed
	cfg.FIFO = fifo
	cfg.StateBytes = 4 << 20
	cfg.CopyCost = des.Millisecond
	cfg.Drain = 10 * des.Second
	wl := workload.Config{
		Pattern: workload.UniformRandom, Steps: steps,
		Think: 10 * des.Millisecond, MsgBytes: 2 << 10,
	}
	r := engine.New(cfg, pf, workload.Factory(wl)).Run()
	if !r.Completed {
		t.Fatal("run did not complete")
	}
	return r
}

func TestCoordinatedBaselinesConsistent(t *testing.T) {
	cases := []struct {
		name string
		fifo bool
		pf   engine.ProtoFactory
	}{
		{"chandy-lamport", true, chandylamport.Factory(chandylamport.Options{Interval: des.Second, BlockingWrite: true})},
		{"koo-toueg", false, kootoueg.Factory(kootoueg.Options{Interval: des.Second})},
		{"staggered", true, staggered.Factory(staggered.Options{Interval: des.Second})},
		{"bcs-cic", false, bcs.Factory(bcs.Options{Interval: des.Second, BlockingForced: true})},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			tc, seed := tc, seed
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				r := run(t, 6, seed, tc.fifo, tc.pf, 400)
				seqs, err := r.CheckAllGlobals()
				if err != nil {
					t.Fatalf("consistency: %v", err)
				}
				if len(seqs) < 3 {
					t.Fatalf("too few global checkpoints: %v", seqs)
				}
			})
		}
	}
}

func TestChandyLamportWriteBurst(t *testing.T) {
	r := run(t, 8, 2, true,
		chandylamport.Factory(chandylamport.Options{Interval: des.Second, BlockingWrite: true}), 500)
	// All 8 processes write within one marker round-trip: the storage
	// queue must pile up.
	if r.Storage.PeakQueue() < 6 {
		t.Fatalf("PeakQueue = %d, expected a near-simultaneous burst", r.Storage.PeakQueue())
	}
	if r.Storage.MeanWait() == 0 {
		t.Fatal("expected queueing delay at storage")
	}
	// Channel state gets recorded under load.
	logBytes := r.TotalLogBytes()
	if logBytes == 0 {
		t.Log("no channel-state bytes recorded (quiet channels are possible but unusual)")
	}
}

func TestKooTouegBlocks(t *testing.T) {
	r := run(t, 6, 3, false, kootoueg.Factory(kootoueg.Options{Interval: des.Second}), 400)
	if r.StalledSeconds.Sum() == 0 {
		t.Fatal("Koo-Toueg must block application progress")
	}
	base := run(t, 6, 3, false, nop.Factory(), 400)
	if r.Makespan <= base.Makespan {
		t.Fatalf("blocking protocol should inflate makespan: %v vs %v", r.Makespan, base.Makespan)
	}
	// Two-phase control traffic: REQ+COMMIT broadcast + ACKs per round.
	rounds := r.Counter("ctl.KT_REQ") / int64(5)
	if rounds < 2 {
		t.Fatalf("expected several rounds, got %d REQ messages", r.Counter("ctl.KT_REQ"))
	}
	if r.Counter("ctl.KT_ACK") != r.Counter("ctl.KT_REQ") {
		t.Fatalf("ACKs %d != REQs %d", r.Counter("ctl.KT_ACK"), r.Counter("ctl.KT_REQ"))
	}
}

func TestStaggeredSerializesWrites(t *testing.T) {
	r := run(t, 8, 4, true, staggered.Factory(staggered.Options{Interval: 2 * des.Second}), 400)
	if got := r.Storage.PeakQueue(); got != 1 {
		t.Fatalf("PeakQueue = %d, staggered writes must never overlap", got)
	}
	if r.Storage.MeanWait() != 0 {
		t.Fatalf("MeanWait = %v, staggered writes must never queue", r.Storage.MeanWait())
	}
	if _, err := r.CheckAllGlobals(); err != nil {
		t.Fatal(err)
	}
}

func TestBCSForcedCheckpoints(t *testing.T) {
	r := run(t, 6, 5, false, bcs.Factory(bcs.Options{Interval: des.Second, BlockingForced: true}), 400)
	if r.Counter("forced") == 0 {
		t.Fatal("uniform traffic must induce forced checkpoints")
	}
	if got := r.Trace.CountKind(trace.KForced); got == 0 {
		t.Fatal("forced checkpoints must be traced")
	}
	// The response-time penalty: message latency above the nop baseline
	// because forced checkpoints precede processing.
	base := run(t, 6, 5, false, nop.Factory(), 400)
	if r.AppLatency.Mean() <= base.AppLatency.Mean() {
		t.Fatalf("CIC latency %v should exceed baseline %v",
			r.AppLatency.Mean(), base.AppLatency.Mean())
	}
}

func TestBCSAliasesKeepSeqsGapFree(t *testing.T) {
	r := run(t, 6, 6, false, bcs.Factory(bcs.Options{Interval: des.Second}), 300)
	for p := 0; p < 6; p++ {
		recs := r.Ckpts.Proc(p).All()
		for i, rec := range recs {
			if rec.Seq != i {
				t.Fatalf("P%d seq gap at %d", p, i)
			}
		}
	}
	if r.Counter("alias") == 0 {
		t.Log("no index jumps occurred (unusual under uniform traffic)")
	}
}

func TestUncoordinatedCutsAreInconsistent(t *testing.T) {
	r := run(t, 6, 7, false, uncoord.Factory(uncoord.Options{Interval: des.Second}), 600)
	if r.CtlMsgs != 0 {
		t.Fatal("uncoordinated checkpointing sends no control messages")
	}
	// Same-sequence-number cuts are NOT coordinated; under dense
	// uniform traffic at least one must be inconsistent — this is the
	// domino-effect setup the recovery analysis quantifies.
	inconsistent := 0
	checked := 0
	for _, g := range r.Trace.CheckGlobals(6, trace.KCheckpoint, r.Ckpts.CompleteSeqs()) {
		if g.Seq == 0 || !g.Complete {
			continue
		}
		checked++
		if !g.Consistent() {
			inconsistent++
		}
	}
	if checked == 0 {
		t.Fatal("no complete same-seq cuts to check")
	}
	if inconsistent == 0 {
		t.Fatalf("all %d uncoordinated cuts happened to be consistent (expected orphans)", checked)
	}
}

func TestBaselineNamesAndDefaults(t *testing.T) {
	if chandylamport.New(chandylamport.Options{}).Name() != "chandy-lamport" {
		t.Fatal("name")
	}
	if kootoueg.New(kootoueg.Options{}).Name() != "koo-toueg" {
		t.Fatal("name")
	}
	if staggered.New(staggered.Options{}).Name() != "staggered" {
		t.Fatal("name")
	}
	if bcs.New(bcs.Options{}).Name() != "bcs-cic" {
		t.Fatal("name")
	}
	if uncoord.New(uncoord.Options{}).Name() != "uncoordinated" {
		t.Fatal("name")
	}
	if chandylamport.DefaultOptions().Interval <= 0 ||
		kootoueg.DefaultOptions().Interval <= 0 ||
		staggered.DefaultOptions().Interval <= 0 ||
		bcs.DefaultOptions().Interval <= 0 ||
		uncoord.DefaultOptions().Interval <= 0 {
		t.Fatal("defaults")
	}
}
