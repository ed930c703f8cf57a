package transport

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"ocsml/internal/checkpoint"
	"ocsml/internal/core"
	"ocsml/internal/des"
	"ocsml/internal/faultnet"
	"ocsml/internal/fsstore"
	"ocsml/internal/trace"
	"ocsml/internal/workload"
)

// ChaosConfig parameterizes one chaos run: a live TCP cluster driven
// under a seeded fault schedule, then checked against the paper's
// invariants.
type ChaosConfig struct {
	// Cluster is the base cluster; Datadir is required (crash/restart
	// needs durable storage) and Cluster.Seed seeds the fault schedule,
	// the injector's per-link streams, and every node RNG.
	Cluster ClusterConfig
	// Profile bounds the generated schedule. Zero value: DefaultProfile
	// over 2s.
	Profile faultnet.Profile
	// Converge bounds each wait for the cluster to finalize a new
	// durable global checkpoint (default 20s).
	Converge time.Duration
}

// DefaultChaosConfig is the standard chaos rig: n processes, endless
// uniform workload, fast checkpoint cadence, drop/partition/crash
// faults over faultFor.
func DefaultChaosConfig(n int, seed int64, datadir string, faultFor time.Duration) ChaosConfig {
	return ChaosConfig{
		Cluster: ClusterConfig{
			N:       n,
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
				Steps:    1 << 30, // effectively endless; the runner stops the cluster
				Think:    4 * des.Duration(time.Millisecond),
				MsgBytes: 256,
			},
			Timeout: 5 * time.Minute,
			Drain:   500 * time.Millisecond,
			// Chaos runs the storage collector, so GC interleaves with the
			// crashes and recoveries: each node collects as soon as every
			// peer has reported a commit, on every round.
			GC: true,
		},
		Profile:  faultnet.DefaultProfile(n, faultFor),
		Converge: 20 * time.Second,
	}
}

// Invariant is one verified property of a chaos run.
type Invariant struct {
	Name   string
	OK     bool
	Detail string `json:",omitempty"`
}

// ChaosReport is the outcome of a chaos run. Its Render output contains
// only seed-determined data (the schedule, the invariant verdicts, the
// restart count), so two runs with the same seed print identical
// reports; timing-dependent diagnostics live in Counters and FaultStats,
// excluded from both Render and the JSON form.
type ChaosReport struct {
	Seed       int64
	Schedule   *faultnet.Schedule
	Restarts   int
	Invariants []Invariant

	Counters   map[string]int64 `json:"-"`
	FaultStats faultnet.Stats   `json:"-"`
}

// OK reports whether every invariant held.
func (r *ChaosReport) OK() bool {
	for _, iv := range r.Invariants {
		if !iv.OK {
			return false
		}
	}
	return len(r.Invariants) > 0
}

// Render prints the deterministic report: schedule, restarts, verdicts.
func (r *ChaosReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos seed=%d fingerprint=%016x\n", r.Seed, r.Schedule.Fingerprint())
	b.WriteString(r.Schedule.String())
	fmt.Fprintf(&b, "restarts %d\n", r.Restarts)
	for _, iv := range r.Invariants {
		verdict := "OK"
		if !iv.OK {
			verdict = "FAIL " + iv.Detail
		}
		fmt.Fprintf(&b, "invariant %-28s %s\n", iv.Name, verdict)
	}
	if r.OK() {
		b.WriteString("result PASS\n")
	} else {
		b.WriteString("result FAIL\n")
	}
	return b.String()
}

// RunChaos executes one seeded chaos run: generate the schedule, wire
// the injector into every mesh, run the cluster while executing the
// crash plan, then verify the invariants the paper's recovery argument
// rests on, among them:
//
//  1. no-orphans: every durable global checkpoint S_k (intersection of
//     the stores reopened after the run) is a consistent cut of the
//     actually delivered application messages — no message received
//     inside S_k was sent outside it (Theorem 2).
//  2. exactly-once-replay: every durable record replay-validates
//     (Record.Replays) and no record logs the same delivery twice —
//     duplicated frames must not reach the application or the log twice.
//  3. post-restart-convergence: after every kill+restart the cluster
//     finalizes a new durable global checkpoint beyond the recovery
//     line.
//  4. logged-sends-delivered: after every recovery, each send a line
//     record logged is processed by its receiver exactly once in the new
//     epoch, or not at all when the receiver's line record holds it
//     (verifyLoggedSendsDelivered).
//  5. heard-line: the durable line every node heard is no newer than the
//     stores reopened after the run hold, and no older than the last line
//     the run waited for (verifyHeardLine).
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.Cluster.Datadir == "" {
		return nil, fmt.Errorf("transport: chaos needs a datadir (crash/restart requires durable storage)")
	}
	if cfg.Profile.N == 0 {
		cfg.Profile = faultnet.DefaultProfile(cfg.Cluster.N, 2*time.Second)
	}
	if cfg.Profile.N != cfg.Cluster.N {
		return nil, fmt.Errorf("transport: profile n=%d != cluster n=%d", cfg.Profile.N, cfg.Cluster.N)
	}
	if cfg.Converge <= 0 {
		cfg.Converge = 20 * time.Second
	}
	sched := faultnet.Generate(cfg.Cluster.Seed, cfg.Profile)
	inj := faultnet.NewInjector(sched)
	cfg.Cluster.Hook = inj.Apply

	c, err := NewCluster(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	defer c.Stop()
	rep := &ChaosReport{Seed: cfg.Cluster.Seed, Schedule: sched}
	inj.Activate(c.base)
	if err := c.Start(); err != nil {
		return nil, err
	}

	datadir, n := cfg.Cluster.Datadir, cfg.Cluster.N
	convergeOK := true
	var convergeDetail string
	var lines [][]checkpoint.Record // per recovery, the records every process resumed from
	waited := -1                    // the last line a wait saw every node hear
	for _, cr := range sched.Crashes {
		// A rollback needs a durable recovery line; wait for the first
		// complete global checkpoint if the cluster hasn't one yet.
		if waited, err = waitLineAtLeast(c, 1, cfg.Converge); err != nil {
			return rep, fmt.Errorf("before crash of P%d: %w", cr.Proc, err)
		}
		sleepUntil(c.base, cr.At)
		c.Kill(cr.Proc)
		time.Sleep(50 * time.Millisecond) // let in-flight traffic hit the dead socket
		if err := plantDebris(c.FS(cr.Proc), cr.Tear); err != nil {
			return rep, err
		}
		if cr.Down > 0 {
			time.Sleep(cr.Down)
		}
		// The restarted incarnation coordinates its own recovery over the
		// wire: line agreement from the manifests, epoch bump, survivor
		// rollback + log replay, then the victim resumes at the line.
		line, err := c.Recover(cr.Proc)
		if err != nil {
			return rep, fmt.Errorf("recovery of P%d: %w", cr.Proc, err)
		}
		rep.Restarts++
		lines = append(lines, lineRecords(c.Ckpts, line))
		if waited, err = waitLineAtLeast(c, line+1, cfg.Converge); err != nil {
			convergeOK = false
			convergeDetail = fmt.Sprintf("after restart of P%d: no durable checkpoint beyond line %d", cr.Proc, line)
		}
	}

	// Outlive every fault window, then let finalizations settle.
	sleepUntil(c.base, sched.Duration)
	time.Sleep(cfg.Cluster.Drain)
	c.Stop()

	// What each store acknowledged, then what a restart would find.
	acked := make([]fsstore.Manifest, n)
	stores := make([]*fsstore.Store, n)
	for p := range n {
		acked[p] = c.FS(p).Manifest()
		if stores[p], err = fsstore.Open(datadir, p, n); err != nil {
			return rep, fmt.Errorf("reopening P%d's store after the run: %w", p, err)
		}
	}
	durable := stores[0].Manifest().Seqs
	for _, s := range stores[1:] {
		durable = fsstore.IntersectSeqs(durable, s.Manifest().Seqs)
	}
	rep.Counters = c.Counters()
	rep.Invariants = []Invariant{
		verifyNoOrphans(durable, n, c.Rec),
		verifyExactlyOnceReplay(stores),
		verifyManifestIntegrity(acked, stores),
		{Name: "post-restart-convergence", OK: convergeOK, Detail: convergeDetail},
		verifyWireRecovery(rep.Counters, rep.Restarts, n),
		verifyLoggedSendsDelivered(c.Rec, lines),
		verifyHeardLine(c.Nodes(), durable, waited),
	}
	rep.FaultStats = inj.Stats()
	return rep, nil
}

// verifyNoOrphans checks invariant 1: each durable global checkpoint, the
// seqs every reopened store holds, must be a consistent cut of the
// recorded application-message trace.
func verifyNoOrphans(seqs []int, n int, rec *trace.Recorder) Invariant {
	iv := Invariant{Name: "no-orphans"}
	for _, g := range rec.CheckGlobals(n, trace.KFinalize, seqs) {
		switch {
		case !g.Complete:
			iv.Detail = fmt.Sprintf("durable S_%d has no complete finalize cut in the trace", g.Seq)
			return iv
		case !g.Consistent():
			iv.Detail = fmt.Sprintf("S_%d has %d orphan message(s)", g.Seq, len(g.Orphans))
			return iv
		}
	}
	iv.OK = true
	return iv
}

// verifyExactlyOnceReplay checks invariant 2 over every durable record:
// replaying the message log from the restored tentative checkpoint must
// reproduce the CFE state fold exactly, and no record may log one
// delivery twice (a duplicated frame that leaked past the dedup layer
// would appear as a repeated (dir, src, tag, appSeq) entry).
func verifyExactlyOnceReplay(stores []*fsstore.Store) Invariant {
	iv := Invariant{Name: "exactly-once-replay"}
	for p, s := range stores {
		for _, seq := range s.Manifest().Seqs {
			r, err := s.Load(seq)
			if err != nil {
				iv.Detail = err.Error()
				return iv
			}
			if !r.Replays() {
				iv.Detail = fmt.Sprintf("P%d seq %d: replay fold %#x != CFE fold %#x", p, seq, checkpoint.FoldLog(r.Fold, r.Log), r.CFEFold)
				return iv
			}
			type key struct {
				dir      checkpoint.Direction
				src, dst int
				tag      uint64
				appSeq   int64
			}
			seen := map[key]bool{}
			for _, m := range r.Log {
				k := key{m.Dir, m.Src, m.Dst, m.Tag, m.AppSeq}
				if seen[k] {
					iv.Detail = fmt.Sprintf("P%d seq %d: message (src=%d appSeq=%d) logged twice", p, seq, m.Src, m.AppSeq)
					return iv
				}
				seen[k] = true
			}
		}
	}
	iv.OK = true
	return iv
}

// verifyManifestIntegrity checks the durability engine's core promise
// directly: after the run — crashes, planted commit-boundary debris,
// group commits, segment rotation, GC sweeps and all — every seq a store
// acknowledged (acked[p], its manifest at the stop) is served by its
// reopened store and loads. Open may only neutralize unreferenced debris.
func verifyManifestIntegrity(acked []fsstore.Manifest, stores []*fsstore.Store) Invariant {
	iv := Invariant{Name: "manifest-integrity"}
	for p, s := range stores {
		after := s.Manifest().Seqs
		for _, seq := range acked[p].Seqs {
			if !slices.Contains(after, seq) {
				iv.Detail = fmt.Sprintf("P%d: acknowledged seq %d lost on reopen", p, seq)
				return iv
			}
			if _, err := s.Load(seq); err != nil {
				iv.Detail = fmt.Sprintf("P%d: acknowledged seq %d does not load: %v", p, seq, err)
				return iv
			}
		}
	}
	iv.OK = true
	return iv
}

// verifyHeardLine checks invariant 5: after the stop, every node's
// DurableLine is at most the last seq the reopened stores all hold
// (durable), and at least waited, the last line the run saw every node
// hear. Seqs are gap-free above each store's floor and the line counts
// reports of one epoch only, so it cannot run ahead of the disks
// (DESIGN.md §14.3); within the run's last epoch it only grows.
func verifyHeardLine(nodes []*Node, durable []int, waited int) Invariant {
	iv := Invariant{Name: "heard-line"}
	last := -1
	if k := len(durable); k > 0 {
		last = durable[k-1]
	}
	for _, n := range nodes {
		if l := n.DurableLine(); l > last || l < waited {
			iv.Detail = fmt.Sprintf("P%d heard line %d, want one in [%d, %d]", n.cfg.ID, l, waited, last)
			return iv
		}
	}
	iv.OK = true
	return iv
}

// verifyWireRecovery checks that every restart went through the wire
// protocol exactly once per participant: one coordinated round per
// restart, and every survivor rolled back via an accepted RB_CMT (the
// epoch guard makes rebroadcast commits ack-only, so the count is exact
// and seed-deterministic).
func verifyWireRecovery(counters map[string]int64, restarts, n int) Invariant {
	iv := Invariant{Name: "wire-recovery"}
	wantRounds := int64(restarts)
	wantRollbacks := int64(restarts) * int64(n-1)
	rounds := counters["recovery.coordinated"]
	rollbacks := counters["recovery.rollbacks"]
	if rounds != wantRounds || rollbacks != wantRollbacks {
		iv.Detail = fmt.Sprintf("coordinated rounds=%d rollbacks=%d, want %d and %d",
			rounds, rollbacks, wantRounds, wantRollbacks)
		return iv
	}
	iv.OK = true
	return iv
}

// lineRecords returns the record of line every process holds in memory:
// right after a recovery, the one it resumed from.
func lineRecords(ckpts *checkpoint.Store, line int) []checkpoint.Record {
	recs := make([]checkpoint.Record, ckpts.N())
	for p := range recs {
		recs[p], _ = ckpts.Proc(p).Get(line)
	}
	return recs
}

// verifyLoggedSendsDelivered checks that recovery rebuilt the channel
// state of every line: lines[i] holds the records the processes resumed
// from at the i-th recovery (trace.CheckLoggedSends).
func verifyLoggedSendsDelivered(rec *trace.Recorder, lines [][]checkpoint.Record) Invariant {
	iv := Invariant{Name: "logged-sends-delivered"}
	if _, err := trace.CheckLoggedSends(rec.Events(), lines); err != nil {
		iv.Detail = err.Error()
		return iv
	}
	iv.OK = true
	return iv
}

// plantDebris plants the crash-point debris the schedule picked for a
// crash: what the victim's store directory looks like when the process
// dies exactly on one of the durability engine's commit boundaries. The
// segments are those its dead store had acknowledged (fs's manifest).
// fsstore.Open must neutralize every kind on restart (sweep, truncate, or
// replay past it) without ever losing an acknowledged record.
func plantDebris(fs *fsstore.Store, kind string) error {
	dir, m := fs.Dir(), fs.Manifest()
	switch kind {
	case faultnet.TearNone:
		return nil
	case faultnet.TearSegHeader:
		// Crash while rotating to a fresh segment: half a header.
		next := 1
		if k := len(m.Segments); k > 0 {
			next = m.Segments[k-1].Index + 1
		}
		return os.WriteFile(fsstore.SegmentFile(dir, next), []byte("OCSM"), 0o644)
	case faultnet.TearSegTail:
		// Crash mid group-commit append: garbage beyond the active
		// segment's durable size. Without segments yet there is nothing
		// to tear — equivalent to crashing before the batch's first byte.
		if len(m.Segments) == 0 {
			return nil
		}
		last := m.Segments[len(m.Segments)-1]
		f, err := os.OpenFile(fsstore.SegmentFile(dir, last.Index), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write([]byte("\xde\xad\xbe\xef torn group-commit batch")); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	case faultnet.TearGCSeg:
		// A segment file outside the log: a live one cloned under an index
		// its header does not name.
		if len(m.Segments) == 0 {
			return nil
		}
		src := fsstore.SegmentFile(dir, m.Segments[0].Index)
		raw, err := os.ReadFile(src)
		if err != nil {
			return err
		}
		orphan := fsstore.SegmentFile(dir, m.Segments[len(m.Segments)-1].Index+7)
		return os.WriteFile(orphan, raw, 0o644)
	default:
		return fmt.Errorf("transport: unknown tear kind %q", kind)
	}
}

// sleepUntil sleeps until the chaos timeline (anchored at base) reaches
// at; it returns immediately if that instant already passed.
func sleepUntil(base time.Time, at time.Duration) {
	if d := at - time.Since(base); d > 0 {
		time.Sleep(d)
	}
}

// waitLineAtLeast polls the durable line the cluster's nodes heard until
// it reaches want, returning the line found.
func waitLineAtLeast(c *Cluster, want int, timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	for {
		line := c.DurableLine()
		if line >= want {
			return line, nil
		}
		if time.Now().After(deadline) {
			return line, fmt.Errorf("transport: durable line %d did not reach %d within %v", line, want, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// WriteArtifact saves the schedule and rendered report as JSON+text next
// to each other — the failing-seed artifact the soak CI job uploads.
func (r *ChaosReport) WriteArtifact(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("chaos-seed-%d", r.Seed))
	if err := os.WriteFile(base+".json", raw, 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".txt", []byte(r.Render()), 0o644)
}
