package transport

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"ocsml/internal/checkpoint"
	"ocsml/internal/core"
	"ocsml/internal/des"
	"ocsml/internal/faultnet"
	"ocsml/internal/fsstore"
	"ocsml/internal/trace"
	"ocsml/internal/workload"
)

// testClusterConfig is a 4-process localhost cluster tuned for wall
// clock: 150ms checkpoint interval, fast convergence timeout, a
// workload short enough to finish in a couple of seconds but long
// enough to span several checkpoint rounds.
func testClusterConfig(datadir string, seed int64) ClusterConfig {
	return ClusterConfig{
		N:       4,
		Seed:    seed,
		Datadir: datadir,
		Opt: core.Options{
			Interval: 150 * des.Duration(time.Millisecond),
			Timeout:  60 * des.Duration(time.Millisecond),
			SkipREQ:  true,
		},
		Reliable: true,
		Workload: workload.Config{
			Pattern:  workload.UniformRandom,
			Steps:    120,
			Think:    4 * des.Duration(time.Millisecond),
			MsgBytes: 256,
		},
		Timeout: 30 * time.Second,
		Drain:   600 * time.Millisecond,
	}
}

// validateDisk reloads the on-disk stores and checks (a) every process
// has the last complete sequence durable, and (b) every durable record
// passes replay validation: restoring CT and folding the logged
// messages reproduces the CFE state hash.
func validateDisk(t *testing.T, datadir string, n, wantSeq int) {
	t.Helper()
	validateRoots(t, slices.Repeat([]string{datadir}, n), wantSeq)
}

// validateRoots is validateDisk for processes whose datadirs may differ:
// roots[p] is P_p's. The processes must have stopped.
func validateRoots(t *testing.T, roots []string, wantSeq int) {
	t.Helper()
	stores := make([]*fsstore.Store, len(roots))
	var seqs []int // the seqs every reopened store holds
	for p, root := range roots {
		s, err := fsstore.Open(root, p, len(roots))
		if err != nil {
			t.Fatal(err)
		}
		stores[p] = s
		if p == 0 {
			seqs = s.Manifest().Seqs
		} else {
			seqs = fsstore.IntersectSeqs(seqs, s.Manifest().Seqs)
		}
	}
	last := slices.Max(append(seqs, -1))
	if last < wantSeq {
		t.Fatalf("durable S_k = %d, want >= %d", last, wantSeq)
	}
	for p, s := range stores {
		recs, err := s.LoadAll()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(recs, func(r checkpoint.Record) bool { return r.Seq == last }) {
			t.Fatalf("P%d: reloaded store missing seq %d", p, last)
		}
		for _, r := range recs {
			if !r.Replays() {
				t.Fatalf("P%d seq %d: replay fold %#x != CFE fold %#x", p, r.Seq, checkpoint.FoldLog(r.Fold, r.Log), r.CFEFold)
			}
		}
	}
}

// heardLine is the lowest durable line the hosts heard (Cluster.DurableLine).
func heardLine(hosts ...*Cluster) int {
	line := hosts[0].DurableLine()
	for _, c := range hosts[1:] {
		line = min(line, c.DurableLine())
	}
	return line
}

// TestClusterRun runs the in-process TCP cluster start to finish under
// three regimes. Every case must complete its workload, decode every
// frame, and close at least two global checkpoints whose cuts are all
// consistent (Report verifies each against the trace); run under -race
// they are the concurrency stress of the shared host on real goroutines.
func TestClusterRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	var inj *faultnet.Injector // the lossy case's fault injector
	cases := []struct {
		name  string
		setup func(t *testing.T, cfg *ClusterConfig) (activate func(c *Cluster))
		check func(t *testing.T, c *Cluster, rep *Report)
	}{
		{
			// Steady traffic onto real datadirs: rounds close by piggyback.
			name: "steady",
			setup: func(t *testing.T, cfg *ClusterConfig) func(*Cluster) {
				cfg.Datadir = t.TempDir()
				return nil
			},
			check: func(t *testing.T, c *Cluster, rep *Report) {
				if rep.AppMessages == 0 || rep.PiggybackBytes == 0 {
					t.Fatalf("wire accounting empty: app=%d piggyback=%d", rep.AppMessages, rep.PiggybackBytes)
				}
				if rep.PiggybackBytesPerMsg <= 0 {
					t.Fatalf("piggyback bytes/msg = %v", rep.PiggybackBytesPerMsg)
				}
				if rep.FramesSent == 0 || rep.FrameBytes == 0 {
					t.Fatalf("mesh accounting empty: frames=%d bytes=%d", rep.FramesSent, rep.FrameBytes)
				}
				validateDisk(t, c.cfg.Datadir, 4, 1)
				// Without GC every node still hears the line, no newer than
				// the cluster's complete checkpoints; nothing is collected.
				line := c.DurableLine()
				if line < 1 || line > c.Ckpts.MaxCompleteSeq() || c.Counter("fsstore.gc_sweeps") != 0 {
					t.Fatalf("heard line %d (complete in memory to %d), %d GC sweeps; want a line >= 1 and no sweep",
						line, c.Ckpts.MaxCompleteSeq(), c.Counter("fsstore.gc_sweeps"))
				}
			},
		},
		{
			// Almost no traffic: convergence must come from the Figure-4
			// control messages, not from piggybacks.
			name: "quiet",
			setup: func(t *testing.T, cfg *ClusterConfig) func(*Cluster) {
				cfg.Opt = core.Options{
					Interval:    60 * des.Duration(time.Millisecond),
					Timeout:     30 * des.Duration(time.Millisecond),
					SuppressBGN: true,
					SkipREQ:     true,
				}
				cfg.Reliable = false
				cfg.Workload.Steps = 4
				cfg.Workload.Think = 60 * des.Duration(time.Millisecond)
				return nil
			},
			check: func(t *testing.T, c *Cluster, rep *Report) {
				if c.Counter("ctl.CK_REQ") == 0 {
					t.Fatal("expected CK_REQ control rounds on a quiet run")
				}
			},
		},
		{
			// Every link drops frames: only the reliable middleware's
			// retransmissions get the workload and the rounds through.
			name: "lossy",
			setup: func(t *testing.T, cfg *ClusterConfig) func(*Cluster) {
				sched := &faultnet.Schedule{Seed: 3, N: cfg.N, Duration: time.Hour}
				for src := 0; src < cfg.N; src++ {
					for dst := 0; dst < cfg.N; dst++ {
						if src != dst {
							sched.Links = append(sched.Links, faultnet.LinkFault{
								Src: src, Dst: dst, Window: faultnet.Window{To: time.Hour}, Drop: 0.15,
							})
						}
					}
				}
				inj = faultnet.NewInjector(sched)
				cfg.Hook = inj.Apply
				return func(c *Cluster) { inj.Activate(c.base) }
			},
			check: func(t *testing.T, c *Cluster, rep *Report) {
				if inj.Stats().Dropped == 0 {
					t.Fatal("injector dropped nothing at 15%")
				}
				if c.Counter("reliable.retransmits") == 0 {
					t.Fatal("reliable layer never retransmitted under loss")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testClusterConfig("", 7)
			activate := tc.setup(t, &cfg)
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if activate != nil {
				activate(c)
			}
			c.Run(context.Background(), nil)
			rep, err := c.Report()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Completed {
				t.Fatal("workload did not complete")
			}
			if rep.GlobalCheckpoints < 2 {
				t.Fatalf("global checkpoints = %d, want >= 2 (seqs %v)", rep.GlobalCheckpoints, rep.ConsistentSeqs)
			}
			for p := 0; p < cfg.N; p++ {
				if got, ok := c.Metrics.Value("ocsml_wire_decode_errors_total", fmt.Sprint(p)); !ok || got != 0 {
					t.Fatalf("P%d decode errors: %d (series registered: %v)", p, got, ok)
				}
			}
			tc.check(t, c, rep)
		})
	}
}

// TestReportDuringRun is Report's observer race test: one goroutine
// builds reports in a loop while Run takes the cluster from start to its
// stop. Run writes the makespan under the cluster's mutex when the
// workload completes; under -race a Report that read it without the
// mutex fails here.
func TestReportDuringRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	cfg := testClusterConfig("", 5)
	cfg.Drain = 0 // the default drain
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Errors are expected: a round can be incomplete while the
			// loop reads it.
			c.Report()
		}
	}()
	c.Run(context.Background(), nil)
	close(stop)
	<-done
	rep, err := c.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.Makespan <= 0 {
		t.Fatalf("completed %v, makespan %v: want a completed run with its makespan", rep.Completed, rep.Makespan)
	}
}

// TestClusterKillRestart is the crash-recovery integration test: a
// 4-process TCP cluster with file-backed storage reaches at least two
// durable global checkpoints, one process is killed, the survivors roll
// back to the last durable recovery line, and the victim restarts from
// its on-disk manifest. The cluster must then advance past the line
// again, and every durable record must replay-validate.
func TestClusterKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	dir := t.TempDir()
	cfg := testClusterConfig(dir, 11)
	cfg.Workload.Steps = 100000 // effectively endless; the test stops the cluster
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	// Let the cluster commit at least two global checkpoints to disk.
	waitFor(t, 20*time.Second, func() bool {
		last, err := fsstore.LastCompleteSeq(dir, cfg.N)
		return err == nil && last >= 2
	})

	const victim = 1
	c.Kill(victim)
	time.Sleep(50 * time.Millisecond) // let in-flight traffic hit the dead socket

	line, err := c.Recover(victim)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if line < 2 {
		t.Fatalf("recovery line %d, want >= 2", line)
	}

	// The restarted cluster must finalize new checkpoints beyond the line.
	waitFor(t, 20*time.Second, func() bool {
		last, err := fsstore.LastCompleteSeq(dir, cfg.N)
		return err == nil && last >= line+1
	})
	c.Stop()

	if got := c.Counter("recovery.failures"); got != 1 {
		t.Fatalf("failures counter = %d", got)
	}
	if got := c.Counter("recovery.restarts"); got != 1 {
		t.Fatalf("restarts counter = %d", got)
	}
	if got := c.Counter("recovery.coordinated"); got != 1 {
		t.Fatalf("coordinated counter = %d", got)
	}
	if got := c.Counter("recovery.recoveries"); got != 1 {
		t.Fatalf("recoveries counter = %d", got)
	}
	if got := c.Counter("recovery.rollbacks"); got != int64(cfg.N-1) {
		t.Fatalf("rollbacks counter = %d, want %d", got, cfg.N-1)
	}
	validateDisk(t, dir, cfg.N, line+1)

	// The in-memory store must agree with disk about the new line.
	if max := c.Ckpts.MaxCompleteSeq(); max < line+1 {
		t.Fatalf("in-memory complete seq %d, want >= %d", max, line+1)
	}
}

// TestRecoveryDeliversLoggedSends: a send the recovery line logged may
// have been in flight across the line. After a kill and recover, each
// such send whose receiver's line record does not hold it is processed by
// the receiver exactly once in the new epoch. (Before the host re-sent
// the line's log, every seed left some of them unprocessed for good.)
// Without the reliable middleware nothing retransmits a re-send: the
// survivors make theirs to the victim the moment their RB_CMT arrives,
// while it still coordinates, and its host must hold them until its own
// Restart.
func TestRecoveryDeliversLoggedSends(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	for _, tc := range []struct {
		name     string
		reliable bool
	}{{"seeds", true}, {"unreliable", false}} {
		var delivered [3]int
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(len(delivered)); seed++ {
				t.Run(fmt.Sprint(seed), func(t *testing.T) {
					t.Parallel()
					delivered[seed-1] = recoverAndCheckLoggedSends(t, seed, tc.reliable)
				})
			}
		})
		if delivered == [3]int{} {
			t.Fatalf("%s: no logged send of any line needed delivering: the test exercised nothing", tc.name)
		}
		t.Logf("%s: logged sends processed in the new epoch, by seed: %v", tc.name, delivered)
	}
}

// recoverAndCheckLoggedSends kills and recovers P1 of a seeded cluster
// once the line is at least 2, lets the cluster finalize past the line and
// returns how many of the line's logged sends were processed in the new
// epoch, failing t unless each was processed exactly once or held.
func recoverAndCheckLoggedSends(t *testing.T, seed int64, reliable bool) int {
	dir := t.TempDir()
	cfg := testClusterConfig(dir, seed)
	cfg.Reliable = reliable
	cfg.Workload.Steps = 100000 // the test stops the cluster
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	waitFor(t, 20*time.Second, func() bool {
		last, err := fsstore.LastCompleteSeq(dir, cfg.N)
		return err == nil && last >= 2
	})
	c.Kill(1)
	time.Sleep(50 * time.Millisecond)
	line, err := c.Recover(1)
	if err != nil {
		t.Fatal(err)
	}
	recs := lineRecords(c.Ckpts, line)
	waitFor(t, 20*time.Second, func() bool {
		last, err := fsstore.LastCompleteSeq(dir, cfg.N)
		return err == nil && last >= line+1
	})
	time.Sleep(cfg.Drain) // the last retransmissions to the restarted victim
	c.Stop()
	n, err := checkLoggedSends(c.Rec.Events(), [][]checkpoint.Record{recs})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRecoverNeedsNoRetryTick: with traffic running, a recovery begun the
// moment after the kill completes its first exchange without a resend —
// the coordinator sends each survivor one RB_BGN, not two. The survivors'
// answers used to be written into their connections to the victim's dead
// incarnation, so every recovery waited out one rbRetry. RB_BGN only: its
// answer needs no disk, whereas RB_ACK follows a survivor's fsync and may
// legitimately outlast a tick under -race.
func TestRecoverNeedsNoRetryTick(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	dir := t.TempDir()
	cfg := testClusterConfig(dir, 17)
	cfg.Workload.Steps = 100000 // effectively endless; the test stops the cluster
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	pre := 0
	waitFor(t, 20*time.Second, func() bool {
		pre, err = fsstore.LastCompleteSeq(dir, cfg.N)
		return err == nil && pre >= 2
	})

	const victim = 2
	c.Kill(victim)
	line, err := c.Recover(victim)
	if err != nil || line < pre {
		t.Fatalf("recover: line %d, %v; want a line >= %d, durable before the kill", line, err, pre)
	}
	if got := c.Counter("ctl.RB_BGN"); got != int64(cfg.N-1) {
		t.Fatalf("coordinator sent %d RB_BGN, want %d: an answer waited for the retry tick", got, cfg.N-1)
	}
	for _, name := range RecoveryPhaseNames {
		if sm := RecoveryPhases(c.Metrics).With(name); sm.Count() != 1 || sm.Last() <= 0 {
			t.Fatalf("phase %s: %d observation(s), last %v; want one, positive", name, sm.Count(), sm.Last())
		}
	}
	mark := c.Rec.Len()
	waitFor(t, 10*time.Second, func() bool {
		for _, e := range c.Rec.Events()[mark:] {
			if e.Kind == trace.KRecv && e.Proc == victim {
				return true
			}
		}
		return false
	})
	c.Stop()
	if _, err := c.CheckGlobals(); err != nil {
		t.Fatal(err)
	}
}

// TestAdminReadsDuringRecovery is the observer race test: one goroutine
// calls every entry point the admin API reaches (StatusSnapshot,
// TriggerCheckpoint, Counters, CheckGlobals) in a loop while a live
// cluster runs traffic, triggered rounds, a kill and a recovery. Under
// -race, a read of any loop-owned Node or Host field off the loop — say
// the host's epoch hoisted out of StatusSnapshot's posted closure —
// fails it, because the survivors' rollbacks write those fields.
func TestAdminReadsDuringRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	dir := t.TempDir()
	cfg := testClusterConfig(dir, 23)
	cfg.Workload.Steps = 100000 // effectively endless; the test stops the cluster
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Errors are expected: a killed node is closed, and a round
			// can be incomplete while the loop reads it.
			for _, n := range c.Nodes() {
				n.StatusSnapshot(time.Second)
				n.TriggerCheckpoint(time.Second)
			}
			// Rarely: CheckGlobals takes the trace recorder's mutex, which
			// every loop also takes, and each such edge orders the loops'
			// earlier writes before this goroutine's later reads.
			if i%32 == 0 {
				c.Counters()
				c.CheckGlobals()
			}
		}
	}()
	for _, victim := range []int{3, 1, 2, 0} {
		mark := c.Rec.Len()
		waitFor(t, 10*time.Second, func() bool {
			for _, e := range c.Rec.Events()[mark:] {
				if e.Kind == trace.KFinalize {
					return true
				}
			}
			return false
		})
		c.Kill(victim)
		if _, err := c.Recover(victim); err != nil {
			t.Fatalf("recover P%d: %v", victim, err)
		}
		mark = c.Rec.Len()
		waitFor(t, 10*time.Second, func() bool {
			for _, e := range c.Rec.Events()[mark:] {
				if e.Kind == trace.KRecv && e.Proc == victim {
					return true
				}
			}
			return false
		})
	}
	close(stop)
	<-done
	c.Stop()
	if _, err := c.CheckGlobals(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterKillRestartAtLineZero crashes a process before the cluster
// has any durable checkpoint: the manifests intersect to nothing, the
// agreed line is 0 — the initial state, which has no record on disk — and
// the victim must come back exactly like a process that never ran, the
// initial checkpoint in its store as in every survivor's. The round
// triggered afterwards is the first one anybody takes.
func TestClusterKillRestartAtLineZero(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	dir := t.TempDir()
	cfg := testClusterConfig(dir, 13)
	cfg.Opt.Interval = 0 // no round until the test triggers one
	cfg.Workload.Steps = 100000
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	waitFor(t, 10*time.Second, func() bool { return c.Counter("app_msgs") > 40 })

	const victim = 2
	c.Kill(victim)
	line, err := c.Recover(victim)
	if err != nil || line != 0 {
		t.Fatalf("recover: line %d, %v; want line 0", line, err)
	}
	st, err := c.Node(victim).StatusSnapshot(5 * time.Second)
	if err != nil || st.Csn != 0 || st.RecoveredLine != 0 || st.Epoch != 1 {
		t.Fatalf("restarted victim: %+v, %v; want csn 0 at line 0 in epoch 1", st, err)
	}
	for p := 0; p < cfg.N; p++ {
		if rec, ok := c.Ckpts.Proc(p).Get(0); !ok || rec.StableAt == 0 || c.Ckpts.Proc(p).Len() != 1 {
			t.Fatalf("P%d after the recovery holds %d record(s), initial checkpoint %v stable at %v",
				p, c.Ckpts.Proc(p).Len(), ok, rec.StableAt)
		}
	}

	if _, err := c.Node(0).TriggerCheckpoint(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, func() bool {
		last, err := fsstore.LastCompleteSeq(dir, cfg.N)
		return err == nil && last >= 1
	})
	c.Stop()
	if seqs, err := c.CheckGlobals(); err != nil || len(seqs) == 0 {
		t.Fatalf("globals after a line-0 recovery: %v, %v", seqs, err)
	}
	if got := c.Counter("recovery.rollbacks"); got != int64(cfg.N-1) {
		t.Fatalf("rollbacks counter = %d, want %d", got, cfg.N-1)
	}
	validateDisk(t, dir, cfg.N, 1)
}
