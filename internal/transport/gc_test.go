package transport

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
	"ocsml/internal/fsstore"
	"ocsml/internal/wire"
	"ocsml/internal/workload"
)

// splitHosts builds n one-process Clusters that share only the address
// table, each over its own datadir root, as n `ocsmld -id -peers`
// invocations on n machines with their own disks do. tune adjusts every
// host's configuration; host(i) builds (not starts) a Cluster for P_i,
// and may be called again for a replacement after a crash.
func splitHosts(t *testing.T, n int, tune func(*ClusterConfig)) (roots []string, host func(i int) *Cluster) {
	t.Helper()
	// Reserve the ports, then let each host bind its own (the window between
	// Close and the rebind is racy in principle, reliable on loopback).
	lns, addrs := listenLocal(t, n)
	for _, ln := range lns {
		ln.Close()
	}
	for range n {
		roots = append(roots, t.TempDir())
	}
	return roots, func(i int) *Cluster {
		cfg := testClusterConfig(roots[i], 29)
		cfg.N, cfg.Addrs, cfg.Local = n, addrs, []int{i}
		cfg.Workload.Steps = 100000 // effectively endless; the test stops the hosts
		cfg.GC = true
		if tune != nil {
			tune(&cfg)
		}
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Stop)
		return c
	}
}

// TestClusterSplitAcrossHosts is the daemon deployment under go test (and
// so under -race): N = 3 as three one-process Clusters that share only the
// address table, each on its own datadir root. One host dies abruptly, a
// fresh Cluster takes its place and recovers the process over the wire,
// and the cluster must advance past the line again — with every host
// pruning its own store below S_k meanwhile, from the durable seqs its
// peers report.
func TestClusterSplitAcrossHosts(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	const n, victim = 3, 1
	roots, host := splitHosts(t, n, nil)
	hosts := make([]*Cluster, n)
	live := make([]*Cluster, n) // each process's current host
	durableLine := func(want int) {
		t.Helper()
		waitFor(t, 20*time.Second, func() bool { return heardLine(live...) >= want })
	}
	for i := range hosts {
		hosts[i] = host(i)
		if err := hosts[i].Start(); err != nil {
			t.Fatal(err)
		}
		live[i] = hosts[i]
	}
	durableLine(2)

	hosts[victim].Kill(victim)
	time.Sleep(50 * time.Millisecond) // let in-flight traffic hit the dead socket
	back := host(victim)
	line, err := back.Recover(victim)
	if err != nil || line < 2 {
		t.Fatalf("recover: line %d, %v; want a line >= 2", line, err)
	}
	live[victim] = back
	// The new incarnation collects as soon as every peer reports in the
	// new epoch, so wait for it (not only for the line) before stopping.
	waitFor(t, 20*time.Second, func() bool { return back.Counter("fsstore.gc_sweeps") > 0 })
	durableLine(line + 1)
	all := append(hosts, back)
	for _, c := range all {
		c.Stop()
	}

	if got := back.Counter("recovery.coordinated"); got != 1 {
		t.Fatalf("coordinated counter = %d, want 1", got)
	}
	for i, c := range hosts {
		if i != victim && c.Counter("recovery.rollbacks") != 1 {
			t.Fatalf("P%d rollbacks counter = %d, want 1", i, c.Counter("recovery.rollbacks"))
		}
	}
	for i, c := range all {
		// A host of one process records nothing: no global cut can be
		// checked from its events, and nobody would read them.
		if c.Counter("app_msgs") == 0 || c.Rec.Len() != 0 {
			t.Fatalf("host %d: %d app messages, %d recorded events; want traffic and an empty recorder",
				i, c.Counter("app_msgs"), c.Rec.Len())
		}
		if c.Counter("fsstore.gc_sweeps") == 0 {
			t.Fatalf("host %d never ran a GC sweep", i)
		}
	}
	for p, root := range roots {
		s, err := fsstore.Open(root, p, n)
		if err != nil {
			t.Fatal(err)
		}
		for k, seq := range s.Manifest().Seqs {
			if seq != s.Manifest().Seqs[0]+k {
				t.Fatalf("P%d manifest %v has a gap", p, s.Manifest().Seqs)
			}
		}
	}
	validateRoots(t, roots, line+1)
}

// TestGCPrunesMemory: four hosts, each on its own disk, with a segment per
// commit. The collector bounds what a process retains, in memory and in
// segment files, whatever the run's length: no more after 200 rounds than
// after 20. The rounds are triggered one at a time, and each figure is
// read once every store has collected up to the line, so it counts what
// the line costs and no round in flight.
func TestGCPrunesMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	const n = 4
	roots, host := splitHosts(t, n, func(cfg *ClusterConfig) {
		cfg.Opt.Interval = 0 // no round but the ones triggered below
		cfg.FSOptions.SegmentMaxBytes = 1
	})
	hosts := make([]*Cluster, n)
	for i := range hosts {
		hosts[i] = host(i)
		if err := hosts[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	line := 0
	retained := func(rounds int) (recs, files []int) {
		t.Helper()
		for ; line < rounds; line++ {
			if _, err := hosts[0].Node(0).TriggerCheckpoint(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 10*time.Second, func() bool { return heardLine(hosts...) > line })
		}
		waitFor(t, 10*time.Second, func() bool {
			for p, c := range hosts {
				if seqs := c.FS(p).Manifest().Seqs; len(seqs) == 0 || seqs[0] < line {
					return false
				}
			}
			return true
		})
		for p, c := range hosts {
			segs, err := filepath.Glob(filepath.Join(fsstore.ProcDir(roots[p], p), "seg_*.wal"))
			if err != nil {
				t.Fatal(err)
			}
			recs, files = append(recs, c.Ckpts.Proc(p).Len()), append(files, len(segs))
		}
		return recs, files
	}
	recs20, files20 := retained(20)
	recs200, files200 := retained(200)
	for _, c := range hosts {
		c.Stop()
	}
	for p := range n {
		if recs200[p] > recs20[p] || files200[p] > files20[p] {
			t.Errorf("P%d retains %d records and %d segment files after 200 rounds, %d and %d after 20",
				p, recs200[p], files200[p], recs20[p], files20[p])
		}
	}
	for p, c := range hosts {
		if _, err := c.CheckGlobals(); err != nil {
			t.Fatalf("P%d: %v", p, err)
		}
	}
	validateRoots(t, roots, 200)
}

// TestGCOnRing: under workload.Ring a process hears application traffic
// from one peer only, so a watermark that rode on application frames
// would never rise. The reports go to every peer, and every store
// collects.
func TestGCOnRing(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	cfg := testClusterConfig(t.TempDir(), 31)
	cfg.Workload.Pattern = workload.Ring
	cfg.Workload.Steps = 100000
	cfg.GC = true
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	c.Start()
	waitFor(t, 30*time.Second, func() bool {
		for p := range cfg.N {
			if m := c.FS(p).Manifest(); len(m.Seqs) == 0 || m.Seqs[0] < 5 {
				return false
			}
		}
		return true
	})
	c.Stop()
	if seqs, err := c.CheckGlobals(); err != nil || len(seqs) == 0 {
		t.Fatalf("CheckGlobals = %v, %v; want the retained S_k verified", seqs, err)
	}
}

// stallAndRecover makes every commit of P_j fail, so its durable seq
// stalls at d, and lets every other process commit ahead rounds past d.
// No store may have collected d meanwhile: d is then the recovery line.
// P_j dies, and its recovery must agree on d.
func stallAndRecover(t *testing.T, c *Cluster, j, ahead int) {
	t.Helper()
	c.FS(j).SetFaultHook(func(string, string) error { return errInjected })
	d := c.FS(j).LastSeq()
	waitFor(t, 30*time.Second, func() bool {
		for p := range c.cfg.N {
			if p != j && c.FS(p).LastSeq() < d+ahead {
				return false
			}
		}
		return true
	})
	for p := range c.cfg.N {
		if seqs := c.FS(p).Manifest().Seqs; !slices.Contains(seqs, d) {
			t.Fatalf("P%d holds %v: it collected S_%d, above which P%d has nothing durable", p, seqs, d, j)
		}
	}
	c.Kill(j)
	time.Sleep(50 * time.Millisecond) // let in-flight traffic hit the dead socket
	if line, err := c.Recover(j); err != nil || line != d {
		t.Fatalf("recovery of P%d = (line %d, %v), want line %d", j, line, err, d)
	}
}

// gcCluster starts a 4-process cluster with the collector on and a fast
// round, once its line is past 2.
func gcCluster(t *testing.T, hook SendHook) *Cluster {
	t.Helper()
	cfg := testClusterConfig(t.TempDir(), 37)
	cfg.Opt.Interval = 40 * des.Duration(time.Millisecond)
	cfg.Workload.Steps = 100000
	cfg.GC = true
	cfg.Hook = hook
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	c.Start()
	waitFor(t, 30*time.Second, func() bool {
		line, err := fsstore.LastCompleteSeq(cfg.Datadir, cfg.N)
		return err == nil && line >= 2
	})
	return c
}

// TestGCFollowsTheLowestStore: one process's disk refuses every commit, so
// its durable seq stalls while the others run ahead. The watermark is a
// minimum, so no store collects above the stalled one, and its recovery
// finds the line every process still holds.
func TestGCFollowsTheLowestStore(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	c := gcCluster(t, nil)
	stallAndRecover(t, c, 3, 4)
}

// TestGCIgnoresReportsFromBeforeARollback: P1's reports to P0 are held
// while a recovery rolls P1 back, and delivered after it, so P0 hears
// seqs that P1 no longer holds. Then P1's disk stalls in the new epoch.
// Reports of an older epoch than the receiver's last rollback do not
// count, so no store collects above P1's stalled seq.
func TestGCIgnoresReportsFromBeforeARollback(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	var (
		holding atomic.Bool
		mu      sync.Mutex
		held    []func()
	)
	c := gcCluster(t, func(src, dst int, f *wire.Frame, deliver func(*wire.Frame)) {
		if src == 1 && dst == 0 && holding.Load() {
			if e, err := new(wire.Decoder).Decode(f.Bytes()); err == nil && e.CtlTag == dsnTag {
				mu.Lock()
				held = append(held, func() { deliver(f) })
				mu.Unlock()
				return
			}
		}
		deliver(f)
	})
	holding.Store(true)
	stallAndRecover(t, c, 3, 4) // P1 rolls back to P3's stalled seq
	holding.Store(false)
	mu.Lock()
	if len(held) == 0 {
		t.Fatal("P1 sent P0 no report to hold across the rollback")
	}
	for _, deliver := range held {
		deliver()
	}
	mu.Unlock()
	stallAndRecover(t, c, 1, 4)
}

// TestGCPausesFromVoteToRollback: a process that has voted in a recovery
// round collects nothing until the round's rollback has landed, however
// much it has heard. The line is the least vote, and the process's own
// store may commit past its vote before the commit arrives.
func TestGCPausesFromVoteToRollback(t *testing.T) {
	cfg := testClusterConfig(t.TempDir(), 31)
	cfg.GC = true
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	n := c.Node(0) // not started: this goroutine owns its storage state
	for seq := 1; seq <= 3; seq++ {
		for p := range cfg.N {
			rec := checkpoint.Record{Tentative: checkpoint.Tentative{Proc: p, Seq: seq}, FinalizedAt: 1}
			if err := c.FS(p).Finalize(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	hear := func(epoch int) {
		for p := range cfg.N {
			n.heard[p] = heardSeq{epoch, 3}
		}
		n.persisted = 3
		n.collect()
	}
	n.DurableSeqs() // its vote, in epoch 0
	hear(0)
	if got := c.FS(0).Manifest().Seqs; !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("P0 collected to %v with its vote open", got)
	}
	n.dsnEpoch = 1 // the round's rollback landed
	hear(1)
	if got := c.FS(0).Manifest().Seqs; !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("P0 holds %v once every process reported in the new epoch, want [3]", got)
	}
}

// TestGCErrorCountedAndRetried: a GC step whose GCTo fails — the
// directory sync after unlinking a dead segment — counts
// fsstore.gc_errors; a later step, on a healthy disk, collects again.
// The GC floor is in memory, so the failed step has already collected:
// what it leaves is a directory whose unlinks may not be durable, which
// costs a later Open only collected records served again.
func TestGCErrorCountedAndRetried(t *testing.T) {
	cfg := testClusterConfig(t.TempDir(), 31)
	cfg.GC = true
	cfg.FSOptions.SegmentMaxBytes = 1 // every commit opens a segment: GC has files to unlink
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	// No node runs: this goroutine drives P0's GC step, as its storage
	// goroutine would on a commit or a peer's report.
	n := c.Node(0)
	finalize := func(seq int) {
		t.Helper()
		for p := range cfg.N {
			rec := checkpoint.Record{Tentative: checkpoint.Tentative{Proc: p, Seq: seq}, FinalizedAt: 1}
			if err := c.FS(p).Finalize(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	collect := func(seq int) {
		for p := range cfg.N {
			n.heard[p] = heardSeq{0, seq}
		}
		n.persisted = seq
		n.collect()
	}
	for seq := 1; seq <= 3; seq++ {
		finalize(seq)
	}
	collect(2)
	var diskBad atomic.Bool
	diskBad.Store(true)
	c.FS(0).SetFaultHook(func(op, _ string) error {
		if op == "syncdir" && diskBad.Load() {
			return errInjected // GCTo cannot make its unlinks durable
		}
		return nil
	})
	errs := c.Counter("fsstore.gc_errors")
	collect(3)
	if got := c.Counter("fsstore.gc_errors"); got != errs+1 {
		t.Fatalf("gc_errors went from %d to %d on a failed directory sync", errs, got)
	}
	if got := c.FS(0).Manifest().Seqs; !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("P0's manifest after the failed step = %v, want [3]", got)
	}
	diskBad.Store(false)
	finalize(4)
	collect(4)
	if got := c.FS(0).Manifest().Seqs; !reflect.DeepEqual(got, []int{4}) || c.Counter("fsstore.gc_errors") != errs+1 {
		t.Fatalf("on a healthy disk: manifest %v, gc_errors %d; want [4] and %d", got, c.Counter("fsstore.gc_errors"), errs+1)
	}
	if segs, _ := os.ReadDir(fsstore.ProcDir(cfg.Datadir, 0)); len(segs) != 1 {
		t.Fatalf("P0's directory holds %d files after collecting to 4, want its one live segment", len(segs))
	}
}
