package transport

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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
//     the fsstore manifests) is a consistent cut of the actually
//     delivered application messages — no message received inside S_k
//     was sent outside it (Theorem 2).
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
	rep := &ChaosReport{Seed: cfg.Cluster.Seed, Schedule: sched}
	inj.Activate(c.base)
	c.Start()
	defer c.Stop()

	datadir, n := cfg.Cluster.Datadir, cfg.Cluster.N
	convergeOK := true
	var convergeDetail string
	var lines [][]checkpoint.Record // per recovery, the records every process resumed from
	for _, cr := range sched.Crashes {
		// A rollback needs a durable recovery line; wait for the first
		// complete global checkpoint if the cluster hasn't one yet.
		if _, err := waitLineAtLeast(datadir, n, 1, cfg.Converge); err != nil {
			return rep, fmt.Errorf("before crash of P%d: %w", cr.Proc, err)
		}
		sleepUntil(c.base, cr.At)
		c.Kill(cr.Proc)
		time.Sleep(50 * time.Millisecond) // let in-flight traffic hit the dead socket
		if err := plantDebris(datadir, cr.Proc, cr.Tear); err != nil {
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
		if _, err := waitLineAtLeast(datadir, n, line+1, cfg.Converge); err != nil {
			convergeOK = false
			convergeDetail = fmt.Sprintf("after restart of P%d: no durable checkpoint beyond line %d", cr.Proc, line)
		}
	}

	// Outlive every fault window, then let finalizations settle.
	sleepUntil(c.base, sched.Duration)
	time.Sleep(cfg.Cluster.Drain)
	c.Stop()

	orphans := verifyNoOrphans(datadir, n, c.Rec)
	replay := verifyExactlyOnceReplay(datadir, n)
	rep.Counters = c.Counters()
	rep.Invariants = []Invariant{
		orphans,
		replay,
		verifyManifestIntegrity(datadir, n),
		{Name: "post-restart-convergence", OK: convergeOK, Detail: convergeDetail},
		verifyWireRecovery(rep.Counters, rep.Restarts, n),
		verifyLoggedSendsDelivered(c.Rec, lines),
	}
	rep.FaultStats = inj.Stats()
	return rep, nil
}

// verifyNoOrphans checks invariant 1: each durable global checkpoint,
// recovered purely from the fsstore manifests, must be a consistent cut
// of the recorded application-message trace.
func verifyNoOrphans(datadir string, n int, rec *trace.Recorder) Invariant {
	iv := Invariant{Name: "no-orphans"}
	seqs, err := fsstore.CompleteSeqs(datadir, n)
	if err != nil {
		iv.Detail = err.Error()
		return iv
	}
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
func verifyExactlyOnceReplay(datadir string, n int) Invariant {
	iv := Invariant{Name: "exactly-once-replay"}
	for p := 0; p < n; p++ {
		s, err := fsstore.Open(datadir, p, n)
		if err != nil {
			iv.Detail = err.Error()
			return iv
		}
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
// group commits, segment rotation, GC sweeps and all — no manifest
// points at missing data. Every store reopens cleanly and every
// manifested record loads.
func verifyManifestIntegrity(datadir string, n int) Invariant {
	iv := Invariant{Name: "manifest-integrity"}
	for p := 0; p < n; p++ {
		before, err := fsstore.ReadManifest(datadir, p)
		if err != nil {
			iv.Detail = err.Error()
			return iv
		}
		s, err := fsstore.Open(datadir, p, n)
		if err != nil {
			iv.Detail = fmt.Sprintf("P%d reopen: %v", p, err)
			return iv
		}
		// Open may only neutralize unreferenced debris — it must not have
		// dropped anything the pre-open manifest referenced.
		after := map[int]bool{}
		for _, seq := range s.Manifest().Seqs {
			after[seq] = true
		}
		for _, seq := range before.Seqs {
			if !after[seq] {
				iv.Detail = fmt.Sprintf("P%d: manifested seq %d lost on reopen", p, seq)
				return iv
			}
			if _, err := s.Load(seq); err != nil {
				iv.Detail = fmt.Sprintf("P%d: manifest points at unloadable seq %d: %v", p, seq, err)
				return iv
			}
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
// dies exactly on one of the durability engine's commit boundaries.
// fsstore.Open must neutralize every kind on restart (sweep, truncate, or
// replay past it) without ever losing an acknowledged record.
func plantDebris(datadir string, proc int, kind string) error {
	dir := fsstore.ProcDir(datadir, proc)
	switch kind {
	case faultnet.TearNone:
		return nil
	case faultnet.TearSegHeader:
		// Crash while rotating to a fresh segment: half a header.
		m, err := fsstore.ReadManifest(datadir, proc)
		if err != nil {
			return err
		}
		next := 1
		if k := len(m.Segments); k > 0 {
			next = m.Segments[k-1].Index + 1
		}
		return os.WriteFile(fsstore.SegmentFile(dir, next), []byte("OCSM"), 0o644)
	case faultnet.TearSegTail:
		// Crash mid group-commit append: garbage beyond the active
		// segment's durable size. Without segments yet there is nothing
		// to tear — equivalent to crashing before the batch's first byte.
		m, err := fsstore.ReadManifest(datadir, proc)
		if err != nil || len(m.Segments) == 0 {
			return err
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
		m, err := fsstore.ReadManifest(datadir, proc)
		if err != nil || len(m.Segments) == 0 {
			return err
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

// waitLineAtLeast polls the durable manifests until their intersection
// reaches want, returning the line found.
func waitLineAtLeast(datadir string, n, want int, timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	for {
		line, err := fsstore.LastCompleteSeq(datadir, n)
		if err != nil {
			return -1, err
		}
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
