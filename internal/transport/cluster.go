package transport

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"ocsml/internal/checkpoint"
	"ocsml/internal/core"
	"ocsml/internal/des"
	"ocsml/internal/fsstore"
	"ocsml/internal/metrics"
	"ocsml/internal/trace"
	"ocsml/internal/workload"
)

// ClusterConfig parameterizes a Cluster: the host of k of the N processes
// in one OS process, talking to the others over real TCP connections. With
// Addrs and Local left empty it is the whole cluster on fresh localhost
// ports (ocsmld -spawn-all, the chaos runner, the transport integration
// tests); with both set it is one member of a deployment spread over
// several OS processes or machines (ocsmld -id/-peers).
type ClusterConfig struct {
	N    int
	Seed int64
	// Addrs is the cluster's address table, one TCP address per process.
	// Empty: every process is hosted here, each on a fresh localhost port.
	Addrs []string
	// Local lists the processes hosted here (empty: all N); their entries
	// of Addrs are bound locally. Hosting a subset needs Addrs.
	Local []int
	// Datadir, when non-empty, enables file-backed stable storage (one
	// fsstore directory per process).
	Datadir string
	// Opt configures the OCSML protocol. Intervals are real time here.
	Opt core.Options
	// Reliable wraps the protocol with the ack/retransmit middleware,
	// covering the frames a saturated or reconnecting peer queue drops.
	Reliable bool
	// Workload drives the synthetic application.
	Workload workload.Config
	// Timeout bounds Run.
	Timeout time.Duration
	// Drain is how long Run keeps the cluster alive after the workload
	// completes, letting in-flight finalizations settle.
	Drain time.Duration
	// Hook, when non-nil, filters every outgoing frame of every node —
	// the chaos runner's fault-injection point (internal/faultnet).
	Hook SendHook
	// FSOptions tunes the durability engine of every node's store (the
	// segment size). The zero value selects the fsstore default.
	FSOptions fsstore.Options
	// GC runs the storage garbage collector: every hosted node reports its
	// committed watermark to its peers and prunes its own store, on disk
	// and in memory, below the lowest one it has heard (gc.go). It reads
	// no other process's directory. Requires Datadir.
	GC bool
}

// Cluster is the set of transport nodes hosted in this OS process,
// sharing one recorder, checkpoint store and metric registry, connected
// to each other and to the rest of the cluster by real TCP.
type Cluster struct {
	cfg ClusterConfig
	// Rec records only when all N processes are hosted here: a global cut
	// cannot be checked from a subset's events, and a recorder nobody reads
	// would grow for the life of a daemon.
	Rec   *trace.Recorder
	Ckpts *checkpoint.Store
	// Metrics is the hosted nodes' shared registry; the admin server serves
	// it at /metrics. The free-form counter namespace lands in its events
	// family, which Counter/Counters read.
	Metrics *metrics.Registry

	addrs []string
	local []int            // hosted process ids
	nodes []*Node          // indexed by process id, nil when hosted elsewhere; elements replaced under mu by Recover
	fss   []*fsstore.Store // guarded by mu: elements replaced by Recover
	base  time.Time
	epoch int

	count func(name string, delta int64)

	mu     sync.Mutex
	done   []bool // guarded by mu
	doneCh chan struct{}

	makespan time.Duration // guarded by mu
}

// NewCluster binds the hosted processes' listeners, opens their stores
// and builds their nodes, each a fresh process. Nothing runs until Start.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return NewClusterAt(cfg, -1) }

// NewClusterAt is NewCluster for a cluster that stopped: every hosted
// process restarts from its store at the recovery line (see
// ResumeProtocol) instead of starting fresh. It rolls back nobody, so
// every host of the cluster must be given the same line — the operator's
// cold restart, ocsmld -resume. A negative line is a fresh start.
func NewClusterAt(cfg ClusterConfig, line int) (*Cluster, error) {
	switch {
	case cfg.N < 2:
		return nil, fmt.Errorf("transport: cluster needs at least 2 processes")
	case len(cfg.Addrs) == 0 && len(cfg.Local) > 0:
		return nil, fmt.Errorf("transport: hosting a subset of the cluster needs its address table")
	case len(cfg.Addrs) > 0 && len(cfg.Addrs) != cfg.N:
		return nil, fmt.Errorf("transport: %d addresses for %d processes", len(cfg.Addrs), cfg.N)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.Drain <= 0 {
		cfg.Drain = 500 * time.Millisecond
	}
	reg := metrics.NewRegistry()
	c := &Cluster{
		cfg:     cfg,
		Rec:     trace.NewRecorder(),
		Ckpts:   checkpoint.NewStore(cfg.N),
		Metrics: reg,
		addrs:   make([]string, cfg.N),
		local:   cfg.Local,
		base:    time.Now(),
		count:   reg.EventSink(),
		done:    make([]bool, cfg.N),
		doneCh:  make(chan struct{}, 1),
		nodes:   make([]*Node, cfg.N),
		fss:     make([]*fsstore.Store, cfg.N),
	}
	if len(c.local) == 0 {
		for i := 0; i < cfg.N; i++ {
			c.local = append(c.local, i)
		}
	}
	c.Rec.SetEnabled(len(c.local) == cfg.N)
	listeners := make([]net.Listener, cfg.N)
	fail := func(err error) (*Cluster, error) {
		for _, ln := range listeners {
			if ln != nil {
				ln.Close()
			}
		}
		return nil, err
	}
	for i := range c.addrs {
		c.addrs[i] = "127.0.0.1:0"
	}
	copy(c.addrs, cfg.Addrs)
	for _, i := range c.local {
		if i < 0 || i >= cfg.N || listeners[i] != nil {
			return fail(fmt.Errorf("transport: hosted process ids %v: want distinct ids in [0,%d)", c.local, cfg.N))
		}
		ln, err := net.Listen("tcp", c.addrs[i])
		if err != nil {
			return fail(err)
		}
		listeners[i] = ln
		if len(cfg.Addrs) == 0 {
			c.addrs[i] = ln.Addr().String() // the port the kernel picked
		}
	}
	for _, i := range c.local {
		var err error
		if cfg.Datadir != "" {
			if c.fss[i], err = c.openStore(i); err != nil {
				return fail(err)
			}
		}
		if c.nodes[i], err = c.buildNode(i, listeners[i], line); err != nil {
			return fail(err)
		}
	}
	return c, nil
}

// openStore opens process i's store exactly as a fresh OS process would:
// Open replays the segment log and clears crash debris (orphan segments,
// torn batch tails).
func (c *Cluster) openStore(i int) (*fsstore.Store, error) {
	fs, err := fsstore.OpenWith(c.cfg.Datadir, i, c.cfg.N, c.cfg.FSOptions)
	if err != nil {
		return nil, err
	}
	fs.SetMetrics(fsstore.NewStoreMetrics(c.Metrics, i))
	return fs, nil
}

// buildNode assembles one node: fresh when line < 0, otherwise
// restarted from its on-disk store at the recovery line.
func (c *Cluster) buildNode(i int, ln net.Listener, line int) (*Node, error) {
	proto, err := ResumeProtocol(c.cfg.Opt, c.cfg.Reliable, c.FS(i), c.Ckpts.Proc(i), line)
	if err != nil {
		return nil, err
	}
	app := workload.Factory(c.cfg.Workload)(i, c.cfg.N)
	n, err := NewNode(NodeConfig{
		ID: i, N: c.cfg.N, Addrs: c.addrs, Listener: ln,
		Seed: c.cfg.Seed, Epoch: c.epoch,
		Resume: line,
		Proto:  proto, App: app,
		Rec: c.Rec, Ckpts: c.Ckpts,
		Metrics:    c.Metrics,
		Hook:       c.cfg.Hook,
		FS:         c.FS(i),
		Base:       c.base,
		OnDone:     c.nodeDone,
		OnRollback: func(id, _ int) { c.clearDone(id) },
	})
	if err == nil && c.cfg.GC && n.cfg.FS != nil {
		n.enableGC()
	}
	return n, err
}

// Node returns process i's node (the current incarnation — Recover
// replaces the element).
func (c *Cluster) Node(i int) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[i]
}

// Nodes snapshots the hosted processes' current nodes, in id order of
// ClusterConfig.Local — the admin server's view (called per request, so a
// restarted node is observed).
func (c *Cluster) Nodes() []*Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Node, len(c.local))
	for k, i := range c.local {
		out[k] = c.nodes[i]
	}
	return out
}

// FS returns process i's on-disk store (nil without a datadir; the
// current incarnation — Recover replaces the element).
func (c *Cluster) FS(i int) *fsstore.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fss[i]
}

// Start launches every hosted node (one Recover already started is left
// alone).
func (c *Cluster) Start() {
	for _, n := range c.Nodes() {
		n.Start()
	}
}

// Run executes the hosted processes start-to-finish: start, wait for the
// workload to complete, keep serving through the drain (peers may still be
// finishing their quotas and the last round finalizing), then stop
// gracefully. ClusterConfig.Timeout or a cancelled ctx (the daemon's
// SIGINT/SIGTERM) cuts either wait short and goes straight to the same
// stop; Report says whether the workload completed.
func (c *Cluster) Run(ctx context.Context, beforeClose func()) {
	c.Start()
	defer c.stop(beforeClose)
	deadline := time.After(c.cfg.Timeout)
	for !c.allDone() {
		select {
		case <-c.doneCh:
		case <-deadline:
			return
		case <-ctx.Done():
			return
		}
	}
	makespan := time.Since(c.base)
	c.mu.Lock()
	c.makespan = makespan
	c.mu.Unlock()
	select {
	case <-time.After(c.cfg.Drain):
	case <-ctx.Done():
	}
}

// Stop stops the hosted processes gracefully. Safe to call again.
func (c *Cluster) Stop() { c.stop(nil) }

// stop is the one graceful stop, in dependency order: beforeClose (when
// non-nil) runs while the nodes still answer — the daemon closes its admin
// server there, so an in-flight status read never observes a dying node —
// then each node's queued stable-storage writes reach the disk and the
// node closes. A SIGTERM therefore never abandons a
// finalization the manifest was about to record.
func (c *Cluster) stop(beforeClose func()) {
	if beforeClose != nil {
		beforeClose()
	}
	for _, n := range c.Nodes() {
		n.WaitStorageIdle(2 * time.Second)
		n.Close()
	}
}

// RecoveryPhaseNames are the stages of one Cluster.Recover, in order:
// reopen (close the dead incarnation, replay its store, rebind its
// address, build the node over the whole store), handshake (the node's
// RB_* round, from its start to the decision) and restart (truncate the
// store above the line, put the node at it).
var RecoveryPhaseNames = [...]string{"reopen", "handshake", "restart"}

// RecoveryPhases registers (or retrieves) the family Recover observes its
// stages into, one series per RecoveryPhaseNames entry — the one coordinator
// probe, read back by the admin API's /v1/recovery.
func RecoveryPhases(reg *metrics.Registry) *metrics.SummaryVec {
	return reg.MustSummaryVec("ocsml_recovery_phase_seconds",
		"Wall time of each stage of a recovery this host coordinated.", "phase")
}

// Kill crashes process i: its node stops abruptly, volatile state (the
// in-memory protocol state, unflushed tentative checkpoints and logs)
// is gone; only its fsstore directory survives.
func (c *Cluster) Kill(i int) {
	n := c.Node(i)
	n.Close()
	c.Rec.Record(trace.Event{T: n.Now(), Kind: trace.KFail, Proc: i, Peer: -1, Seq: -1})
	c.count("recovery.failures", 1)
}

// Recover drives the wire-level recovery protocol for a crashed process
// hosted here: reopen its store, rebind its address, build its node over
// the whole store and start it on its recovery round (RB_BGN -> RB_LINE
// -> RB_CMT -> RB_ACK, see host.Host.Recover), which agrees the line from
// the cluster's durable manifests; then truncate the store above the line
// and restart the node there. The crash was a Kill, or the death of the
// OS process that hosted the victim before this one (ocsmld -recover: the
// node NewCluster built in its place never started). The survivors,
// hosted here or elsewhere, roll back through their hosts' RB_* handlers —
// the cluster does not reach into their state directly, so one OS process
// and many exercise one recovery code path — and the victim restarts
// through the same host.Host.Restart. Returns the agreed line; on an error
// the victim's node is closed, and Recover may be called again.
func (c *Cluster) Recover(victim int) (int, error) {
	if c.FS(victim) == nil {
		return -1, fmt.Errorf("transport: recovery needs P%d hosted here with a datadir", victim)
	}
	now := c.Node(victim).Now // the cluster's clock; it outlives the node
	t0 := now()
	c.Node(victim).Close() // releases the address when Kill has not
	// The reopened store votes with its manifest in the line intersection.
	fs, err := c.openStore(victim)
	if err != nil {
		return -1, err
	}
	c.mu.Lock()
	c.fss[victim] = fs
	c.mu.Unlock()
	if err := loadStore(fs, c.Ckpts.Proc(victim)); err != nil {
		return -1, err
	}
	ln, err := net.Listen("tcp", c.addrs[victim])
	if err != nil {
		return -1, err
	}
	c.clearDone(victim)
	n, err := c.buildNode(victim, ln, -1)
	if err != nil {
		ln.Close()
		return -1, err
	}
	c.mu.Lock()
	c.nodes[victim] = n
	c.mu.Unlock()
	t1 := now()
	// The round id scopes every reply to this attempt: wall-clock
	// uniqueness across incarnations suffices, as no report shows it.
	var line, epoch int
	var decided des.Time
	done := make(chan error, 1)
	n.start(func() {
		n.h.Recover(time.Now().UnixNano(), func(l, e int, err error) {
			line, epoch, decided = l, e, now()
			if err != nil {
				done <- err
				return
			}
			n.Truncate(line, epoch, func(err error) {
				if err != nil {
					err = fmt.Errorf("transport: truncating above recovery line %d: %w", line, err)
				} else if _, ok := n.h.Restart(line, epoch); !ok {
					err = fmt.Errorf("transport: P%d has no durable checkpoint at line %d", victim, line)
				}
				done <- err
			})
		})
	})
	select {
	case err = <-done:
	case <-n.quit:
		return -1, fmt.Errorf("transport: P%d closed during its recovery", victim)
	}
	if line >= 0 {
		c.count("recovery.coordinated", 1)
		c.count("recovery.recoveries", 1)
		c.epoch = epoch
	}
	if err != nil {
		n.Close()
		return line, err
	}
	c.count("recovery.restarts", 1)
	phases := RecoveryPhases(c.Metrics)
	for k, d := range []des.Time{t1 - t0, decided - t1, now() - decided} {
		phases.With(RecoveryPhaseNames[k]).Observe(time.Duration(d).Seconds())
	}
	return line, nil
}

// Counter reads one free-form counter from the registry's events family.
func (c *Cluster) Counter(name string) int64 {
	v, _ := c.Metrics.Value(metrics.EventFamily, name)
	return v
}

// Counters returns a snapshot of the free-form counter table.
func (c *Cluster) Counters() map[string]int64 {
	return c.Metrics.EventCounts()
}

func (c *Cluster) nodeDone(id int) {
	c.mu.Lock()
	c.done[id] = true
	c.mu.Unlock()
	select {
	case c.doneCh <- struct{}{}:
	default:
	}
}

func (c *Cluster) allDone() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, i := range c.local {
		if !c.done[i] {
			return false
		}
	}
	return true
}

func (c *Cluster) clearDone(i int) {
	c.mu.Lock()
	c.done[i] = false
	c.mu.Unlock()
}

// CheckGlobals verifies every complete global checkpoint against the
// recorded trace (same check as the simulator's Result.CheckAllGlobals)
// and returns the verified sequence numbers.
func (c *Cluster) CheckGlobals() ([]int, error) {
	var seqs []int
	for _, g := range c.Rec.CheckGlobals(c.cfg.N, trace.KFinalize, c.Ckpts.CompleteSeqs()) {
		switch {
		case !g.Complete:
			return seqs, fmt.Errorf("transport: no complete cut for seq %d", g.Seq)
		case !g.Consistent():
			return seqs, fmt.Errorf("transport: S_%d inconsistent: %d orphan(s)", g.Seq, len(g.Orphans))
		case g.Seq > 0:
			seqs = append(seqs, g.Seq)
		}
	}
	return seqs, nil
}

// Report summarizes a cluster run with the simulator's headline metrics
// plus the wire-level ones only a real network can produce. Its seqs and
// LogBytes cover the checkpoints still retained: with GC set, each node
// has dropped its records below the durable watermark from memory too.
type Report struct {
	N                 int
	Completed         bool
	Makespan          time.Duration
	GlobalCheckpoints int
	ConsistentSeqs    []int

	AppMessages     int64
	ControlMessages int64
	PiggybackBytes  int64
	// PiggybackBytesPerMsg is the real per-message piggyback overhead in
	// encoded bytes (discriminator + csn + stat + tentSet bitmap).
	PiggybackBytesPerMsg float64

	FramesSent int64
	FrameBytes int64
	Reconnects int64
	Dropped    int64

	LogBytes int64
	Counters map[string]int64
}

// Report builds the run summary (call after Run or Stop) of the hosted
// processes. Global checkpoints are counted and verified only when all N
// are hosted here: a subset's store never holds a complete one.
func (c *Cluster) Report() (*Report, error) {
	seqs, err := c.CheckGlobals()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	makespan := c.makespan
	c.mu.Unlock()
	r := &Report{
		N:              c.cfg.N,
		Completed:      c.allDone(),
		Makespan:       makespan,
		ConsistentSeqs: seqs,
		Counters:       c.Counters(),
	}
	for _, s := range seqs {
		if s > 0 {
			r.GlobalCheckpoints++
		}
	}
	r.AppMessages = r.Counters["app_msgs"]
	for name, v := range r.Counters {
		if strings.HasPrefix(name, "ctl.") {
			r.ControlMessages += v
		}
	}
	for _, n := range c.Nodes() {
		r.PiggybackBytes += n.Mesh().PiggybackBytes()
		st := n.Mesh().Stats()
		r.FramesSent += st.FramesSent
		r.FrameBytes += st.BytesSent
		r.Reconnects += st.Reconnects
		r.Dropped += st.Dropped
	}
	if r.AppMessages > 0 {
		r.PiggybackBytesPerMsg = float64(r.PiggybackBytes) / float64(r.AppMessages)
	}
	for p := 0; p < c.cfg.N; p++ {
		for _, rec := range c.Ckpts.Proc(p).All() {
			r.LogBytes += rec.LogBytes()
		}
	}
	return r, nil
}
