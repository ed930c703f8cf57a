package engine_test

// Live failure-injection tests: crash a process mid-run, roll the cluster
// back to the last stable consistent global checkpoint, reconstruct the
// channel state from the selective message logs, resume, and verify the
// computation still completes with consistent checkpoints.

import (
	"fmt"
	"reflect"
	"testing"

	"ocsml/internal/core"
	"ocsml/internal/des"
	"ocsml/internal/engine"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
	"ocsml/internal/workload"
)

func failureCluster(seed int64, n int, steps int64) (*engine.Cluster, []*core.Protocol) {
	cfg := engine.DefaultConfig()
	cfg.N = n
	cfg.Seed = seed
	cfg.StateBytes = 2 << 20
	cfg.CopyCost = des.Millisecond
	cfg.Drain = 10 * des.Second
	opt := core.DefaultOptions()
	opt.Interval = des.Second
	opt.Timeout = 300 * des.Millisecond
	protos := make([]*core.Protocol, n)
	pf := func(i, n int) protocol.Protocol {
		protos[i] = core.New(opt)
		return protos[i]
	}
	wl := workload.Config{
		Pattern: workload.UniformRandom, Steps: steps,
		Think: 10 * des.Millisecond, MsgBytes: 1 << 10,
	}
	return engine.New(cfg, pf, workload.Factory(wl)), protos
}

func TestFailureRecoveryCompletes(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c, protos := failureCluster(seed, 6, 400)
			c.InjectFailure(engine.FailurePlan{
				At:   2500 * des.Millisecond, // after ~2 checkpoint rounds
				Proc: int(seed) % 6,
			})
			r := c.Run()
			if !r.Completed {
				t.Fatal("run did not complete after recovery")
			}
			if r.Counter("recovery.recoveries") != 1 {
				t.Fatalf("recoveries = %d", r.Counter("recovery.recoveries"))
			}
			// Each process re-reached its full quota: work >= steps
			// (sends) per process.
			for p, w := range r.Works {
				if w < 400 {
					t.Fatalf("P%d work = %d after recovery, want >= 400", p, w)
				}
			}
			// The trace recorded the failure and N restores.
			if got := r.Trace.CountKind(trace.KFail); got != 1 {
				t.Fatalf("fail events = %d", got)
			}
			if got := r.Trace.CountKind(trace.KRestore); got != 6 {
				t.Fatalf("restore events = %d", got)
			}
			// Every remaining global checkpoint — pre-line and
			// post-recovery — is consistent.
			if _, err := r.CheckAllGlobals(); err != nil {
				t.Fatalf("post-recovery consistency: %v", err)
			}
			// Post-recovery checkpoints exist above the line.
			line := int(r.Counter("recovery.line_seq"))
			if r.Ckpts.MaxCompleteSeq() <= line {
				t.Fatalf("no new global checkpoints after recovery (line=%d max=%d)",
					line, r.Ckpts.MaxCompleteSeq())
			}
			// Protocols are healthy.
			for p, pr := range protos {
				if pr.Status() != core.Normal {
					t.Fatalf("P%d left tentative", p)
				}
			}
		})
	}
}

func TestFailureBeforeAnyCheckpoint(t *testing.T) {
	// Crash before the first checkpoint interval: the recovery line is
	// the initial state (seq 0) and the whole computation re-executes.
	c, _ := failureCluster(7, 4, 200)
	c.InjectFailure(engine.FailurePlan{At: 300 * des.Millisecond, Proc: 2})
	r := c.Run()
	if !r.Completed {
		t.Fatal("run did not complete")
	}
	if got := r.Counter("recovery.line_seq"); got != 0 {
		t.Fatalf("line = %d, want 0", got)
	}
	if _, err := r.CheckAllGlobals(); err != nil {
		t.Fatal(err)
	}
}

func TestFailureRecoveryReinjectsLoggedMessages(t *testing.T) {
	// With dense traffic and a crash just after a round finalizes, the
	// logs of the line checkpoint carry in-flight messages that must be
	// re-injected, and duplicates must be dropped.
	c, _ := failureCluster(3, 6, 600)
	c.InjectFailure(engine.FailurePlan{At: 2100 * des.Millisecond, Proc: 1})
	r := c.Run()
	if !r.Completed {
		t.Fatal("run did not complete")
	}
	if r.Counter("recovery.reinjected") == 0 {
		t.Fatal("no logged messages were re-injected")
	}
	if r.Counter("recovery.dup_dropped") == 0 {
		t.Fatal("no re-sent message was dropped as already inside its receiver's line")
	}
	if r.Counter("recovery.stale_dropped") == 0 {
		t.Fatal("pre-failure in-flight envelopes should have been discarded")
	}
}

func TestFailureWithNonRewindableProtocolPanics(t *testing.T) {
	cfg := engine.DefaultConfig()
	cfg.N = 4
	cfg.Drain = des.Second
	c := engine.New(cfg, func(i, n int) protocol.Protocol {
		return nonRewindable{}
	}, workload.Factory(workload.Config{
		Pattern: workload.UniformRandom, Steps: 500, Think: 10 * des.Millisecond,
	}))
	c.InjectFailure(engine.FailurePlan{At: 50 * des.Millisecond, Proc: 0})
	defer func() {
		if recover() == nil {
			t.Fatal("recovery with a non-rewindable protocol should panic")
		}
	}()
	c.Run()
}

type nonRewindable struct{}

func (nonRewindable) Name() string                   { return "rigid" }
func (nonRewindable) Start(protocol.Env)             {}
func (nonRewindable) OnAppSend(*protocol.Envelope)   {}
func (nonRewindable) OnDeliver(e *protocol.Envelope) {}
func (nonRewindable) OnTimer(kind, gen int)          {}
func (nonRewindable) Finish()                        {}

func TestOverlappingFailuresPanic(t *testing.T) {
	c, _ := failureCluster(1, 4, 100)
	c.InjectFailure(engine.FailurePlan{At: des.Second, Proc: 0})
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping InjectFailure should panic")
		}
	}()
	c.InjectFailure(engine.FailurePlan{At: des.Second + 50*des.Millisecond, Proc: 1})
}

func TestRepeatedFailures(t *testing.T) {
	// Two sequential crashes of different processes: the cluster rolls
	// back twice and still completes with consistent checkpoints.
	c, protos := failureCluster(9, 6, 500)
	c.InjectFailure(engine.FailurePlan{At: 1800 * des.Millisecond, Proc: 1})
	c.InjectFailure(engine.FailurePlan{At: 3600 * des.Millisecond, Proc: 4})
	r := c.Run()
	if !r.Completed {
		t.Fatal("did not complete after two recoveries")
	}
	if got := r.Counter("recovery.recoveries"); got != 2 {
		t.Fatalf("recoveries = %d, want 2", got)
	}
	if got := r.Trace.CountKind(trace.KFail); got != 2 {
		t.Fatalf("fail events = %d", got)
	}
	if got := r.Trace.CountKind(trace.KRestore); got != 12 {
		t.Fatalf("restore events = %d", got)
	}
	if _, err := r.CheckAllGlobals(); err != nil {
		t.Fatalf("consistency after repeated failures: %v", err)
	}
	for p, pr := range protos {
		if pr.Status() != core.Normal {
			t.Fatalf("P%d left tentative", p)
		}
	}
	for p, w := range r.Works {
		if w < 500 {
			t.Fatalf("P%d work = %d", p, w)
		}
	}
}

func TestFailureInvalidProcPanics(t *testing.T) {
	c, _ := failureCluster(1, 4, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid proc should panic")
		}
	}()
	c.InjectFailure(engine.FailurePlan{At: des.Second, Proc: 9})
}

// TestRecoveryPathPinned pins what the DES recovery path does, number for
// number: results-check cannot (no E/A experiment injects a failure), so a
// refactor of the handshake, the epoch fence or host.Restart that moves the
// line, the truncation, the re-injection, the dedup or the RNG order shows
// up here. The lines and discards date from the commit before host.Rollback
// took over the fetch and the truncation; the single-crash rows' reinjected
// and dup columns from the engine's own re-injection. They did not move
// when the DES began to recover through the RB_* handshake, which agrees
// the line the global pick chose in every row. What moved then, and why:
//   - makespan: survivors run in the old epoch until their own RB_CMT, the
//     victim rejoins at the last RB_ACK, and the RB_* frames draw network
//     delays, so the run after the crash is another schedule; the repeated
//     row's second crash lands on another state, hence its reinjected and
//     dup.
//   - stale counts frames of an older epoch only, dropped by a process
//     that already rolled back. A frame of the new epoch that reaches a
//     process still in the old one is held (the held column) and processed
//     after its rollback, where it used to be dropped; what the crashed
//     victim receives during its handshake is lost with the crash.
//   - trace: the RB_* frames are traced (KCtlSend, and KCtlRecv at the
//     survivors), and the survivors' old-epoch work in the handshake window
//     is new.
//   - held and recover (crash → the last RB_ACK, virtual µs: the 100 ms
//     restart delay, then the handshake's round trips and the truncation
//     writes on the shared storage server) are new.
func TestRecoveryPathPinned(t *testing.T) {
	type plan struct {
		at   des.Time
		proc int
	}
	rows := []struct {
		name                                    string
		seed, steps                             int64
		plans                                   []plan
		line, discarded, reinjected, dup, stale int64
		held, recoverUs                         int64
		makespan                                des.Time
		traceLen                                int
	}{
		{"seed1", 1, 400, []plan{{2500 * des.Millisecond, 1}}, 2, 0, 28, 27, 0, 7, 115226, 4687344028, 5566},
		{"seed2", 2, 400, []plan{{2500 * des.Millisecond, 2}}, 2, 0, 15, 13, 1, 2, 116791, 4666931670, 5578},
		{"seed3", 3, 400, []plan{{2500 * des.Millisecond, 3}}, 2, 0, 22, 20, 0, 5, 114296, 4627277767, 5553},
		{"seed4", 4, 400, []plan{{2500 * des.Millisecond, 4}}, 2, 0, 16, 14, 1, 6, 115002, 4640792745, 5595},
		{"seed5", 5, 400, []plan{{2500 * des.Millisecond, 5}}, 2, 0, 17, 11, 0, 4, 114846, 4615478558, 5613},
		// A crash with round 2 finalized but not yet stable everywhere:
		// the line is 1 and six finalized records are thrown away.
		{"mid-round", 3, 600, []plan{{2100 * des.Millisecond, 1}}, 1, 6, 19, 18, 2, 5, 156078, 7173442916, 8713},
		// TestRepeatedFailures' schedule; line_seq and recover sum the two.
		{"repeated", 9, 500, []plan{{1800 * des.Millisecond, 1}, {3600 * des.Millisecond, 4}}, 3, 0, 34, 29, 3, 12, 229732, 6724122439, 8085},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c, _ := failureCluster(row.seed, 6, row.steps)
			for _, p := range row.plans {
				c.InjectFailure(engine.FailurePlan{At: p.at, Proc: p.proc})
			}
			r := c.Run()
			got := []int64{
				r.Counter("recovery.line_seq"), r.Counter("recovery.ckpts_discarded"),
				r.Counter("recovery.reinjected"), r.Counter("recovery.dup_dropped"),
				r.Counter("recovery.stale_dropped"), r.Counter("recovery.held"), r.Counter("recovery.recover_us"),
				int64(r.Makespan), int64(r.Trace.Len()),
			}
			want := []int64{row.line, row.discarded, row.reinjected, row.dup, row.stale, row.held, row.recoverUs, int64(row.makespan), int64(row.traceLen)}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("(line, discarded, reinjected, dup, stale, held, recover, makespan, trace) = %v, want %v", got, want)
			}
		})
	}
}
