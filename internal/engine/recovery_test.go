package engine_test

// The DES recovers through the RB_* handshake: the victim restarts and
// coordinates over the simulated network, survivors roll back one at a
// time as their RB_CMT arrives, and every process is put at the line by
// the one host routine. These tests run that path under seeded, replayable
// schedules.

import (
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"testing"

	"ocsml/internal/checkpoint"
	"ocsml/internal/core"
	"ocsml/internal/des"
	"ocsml/internal/engine"
	"ocsml/internal/reliable"
	"ocsml/internal/trace"
	"ocsml/internal/workload"
)

// fingerprint hashes a run's whole trace.
func fingerprint(t *testing.T, r *engine.Result) uint64 {
	t.Helper()
	h := fnv.New64a()
	if err := trace.WriteJSON(h, r.Trace.Events()); err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

// lineRecords returns the record of line every process of r holds.
func lineRecords(t *testing.T, r *engine.Result, line int) []checkpoint.Record {
	t.Helper()
	recs := make([]checkpoint.Record, r.Cfg.N)
	for p := range recs {
		rec, ok := r.Ckpts.Proc(p).Get(line)
		if !ok {
			t.Fatalf("P%d holds no record of line %d", p, line)
		}
		recs[p] = rec
	}
	return recs
}

// TestRecoveryRestoresEveryProcessOnce: after a recovery each of the N
// processes, the victim included, records exactly one KRestore, at the
// agreed line. transport.TestRecoverRestoresEveryProcessOnce is its twin
// on the TCP runtime.
func TestRecoveryRestoresEveryProcessOnce(t *testing.T) {
	c, _ := failureCluster(2, 6, 400)
	c.InjectFailure(engine.FailurePlan{At: 2500 * des.Millisecond, Proc: 2})
	r := c.Run()
	line := int(r.Counter("recovery.line_seq"))
	restores := make([]int, 6)
	for _, e := range r.Trace.Events() {
		if e.Kind != trace.KRestore {
			continue
		}
		if e.Seq != line {
			t.Fatalf("P%d restored to %d, the line is %d", e.Proc, e.Seq, line)
		}
		restores[e.Proc]++
	}
	for _, n := range restores {
		if n != 1 {
			t.Fatalf("restores by process %v, want one each", restores)
		}
	}
	if got := r.Counter("recovery.rollbacks"); got != 5 {
		t.Fatalf("recovery.rollbacks = %d, want one per survivor", got)
	}
}

// TestStencilRecoveryHoldsEarlyFrames: the BSP stencil runs without
// reliable, so a frame the epoch fence dropped would be lost for good and
// a superstep would wait for it forever. Survivors roll back one at a
// time, so the new epoch's halos reach processes still in the old one; the
// fence holds them until the receiver's own rollback, and the run
// completes. (With the hold replaced by a drop, this run never completes.)
func TestStencilRecoveryHoldsEarlyFrames(t *testing.T) {
	cfg := engine.DefaultConfig()
	cfg.N = 16
	cfg.Seed = 13
	cfg.StateBytes = 8 << 20
	opt := core.DefaultOptions()
	opt.Interval = 2 * des.Second
	opt.Timeout = 800 * des.Millisecond
	c := engine.New(cfg, core.Factory(opt), workload.Factory(workload.Config{
		Pattern: workload.BSPStencil, Steps: 400, Think: 8 * des.Millisecond, MsgBytes: 32 << 10,
	}))
	c.InjectFailure(engine.FailurePlan{At: 5 * des.Second, Proc: 5})
	r := c.Run()
	if !r.Completed {
		t.Fatalf("the stencil did not complete after the crash (held %d, stale %d)",
			r.Counter("recovery.held"), r.Counter("recovery.stale_dropped"))
	}
	if got := r.Counter("recovery.held"); got != 37 {
		t.Fatalf("recovery.held = %d, want the pinned 37", got)
	}
	if _, err := r.CheckAllGlobals(); err != nil {
		t.Fatal(err)
	}
}

// TestLossyRecoveryResendsRBFrames: RB_* frames bypass reliable, so at 20%
// loss some are lost, and the coordinator's tick resends what was not
// answered. The recovery still completes, and two runs of the seed give
// one trace.
func TestLossyRecoveryResendsRBFrames(t *testing.T) {
	run := func() *engine.Result {
		cfg := engine.DefaultConfig()
		cfg.N = 6
		cfg.Seed = 8
		cfg.DropRate = 0.2
		cfg.StateBytes = 1 << 20
		cfg.Drain = 10 * des.Second
		opt := core.DefaultOptions()
		opt.Interval = des.Second
		opt.Timeout = 400 * des.Millisecond
		c := engine.New(cfg, reliable.Factory(core.Factory(opt), reliable.DefaultOptions()),
			workload.Factory(workload.Config{
				Pattern: workload.UniformRandom, Steps: 600, Think: 10 * des.Millisecond, MsgBytes: 512,
			}))
		c.InjectFailure(engine.FailurePlan{At: 2500 * des.Millisecond, Proc: 4})
		return c.Run()
	}
	a, b := run(), run()
	if !a.Completed || a.Counter("recovery.recoveries") != 1 {
		t.Fatalf("completed %v, recoveries %d", a.Completed, a.Counter("recovery.recoveries"))
	}
	// One RB_BGN and one RB_CMT per survivor when nothing is lost.
	if sent := a.Counter("ctl.RB_BGN") + a.Counter("ctl.RB_CMT"); sent <= 2*5 {
		t.Fatalf("%d RB_BGN + RB_CMT sent: no frame was resent", sent)
	}
	if _, err := a.CheckAllGlobals(); err != nil {
		t.Fatal(err)
	}
	if fa, fb := fingerprint(t, a), fingerprint(t, b); fa != fb {
		t.Fatalf("two runs of one seed: trace fingerprints %016x and %016x", fa, fb)
	}
}

// TestRecoverySweep crashes one process of a seeded run, at a seeded time,
// for every seed in 1..RECOVERY_SWEEP_SEEDS (default 20; make
// recovery-sweep runs 500) at N = 3 and 6. Each run recovers through the
// handshake and completes; running the seed twice gives one trace;
// every S_k in it is consistent; and each logged send of the line is
// processed exactly once in the new epoch, or not at all when its
// receiver's line holds it.
func TestRecoverySweep(t *testing.T) {
	seeds := int64(20)
	if s := os.Getenv("RECOVERY_SWEEP_SEEDS"); s != "" {
		var err error
		if seeds, err = strconv.ParseInt(s, 10, 64); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{3, 6} {
		for seed := int64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("n%d/seed%d", n, seed), func(t *testing.T) {
				run := func() *engine.Result {
					c, _ := failureCluster(seed, n, 300)
					c.InjectFailure(engine.FailurePlan{
						At:   200*des.Millisecond + des.Time(seed*7919%2500)*des.Millisecond,
						Proc: int(seed) % n,
					})
					return c.Run()
				}
				r := run()
				if !r.Completed || r.Counter("recovery.recoveries") != 1 {
					t.Fatalf("completed %v, recoveries %d", r.Completed, r.Counter("recovery.recoveries"))
				}
				if fa, fb := fingerprint(t, r), fingerprint(t, run()); fa != fb {
					t.Fatalf("two runs of one seed: trace fingerprints %016x and %016x", fa, fb)
				}
				if _, err := r.CheckAllGlobals(); err != nil {
					t.Fatal(err)
				}
				line := int(r.Counter("recovery.line_seq"))
				if _, err := trace.CheckLoggedSends(r.Trace.Events(), [][]checkpoint.Record{lineRecords(t, r, line)}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
