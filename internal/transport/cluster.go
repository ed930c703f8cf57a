package transport

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"ocsml/internal/checkpoint"
	"ocsml/internal/core"
	"ocsml/internal/fsstore"
	"ocsml/internal/metrics"
	"ocsml/internal/trace"
	"ocsml/internal/workload"
)

// ClusterConfig parameterizes an in-process spawn-all cluster: N nodes
// in one OS process, talking to each other over real localhost TCP
// connections — the -spawn-all mode of cmd/ocsmld and the harness of
// the transport integration tests.
type ClusterConfig struct {
	N    int
	Seed int64
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
	// Metrics is the shared named-metric registry of the cluster's nodes
	// (a fresh one when nil). The free-form counter namespace lands in
	// its events family; Counter/Counters read from there.
	Metrics *metrics.Registry
	// FSOptions tunes the durability engine of every node's store (the
	// segment size). The zero value selects the fsstore default.
	FSOptions fsstore.Options
	// GCInterval, when positive, runs the storage garbage collector: a
	// cluster goroutine periodically intersects the durable manifests and
	// prunes every store below the globally finalized S_k watermark.
	// Requires Datadir. Zero disables collection.
	GCInterval time.Duration
}

// Cluster is a set of transport nodes sharing one recorder, checkpoint
// store and metric registry, connected by real TCP.
type Cluster struct {
	cfg   ClusterConfig
	Rec   *trace.Recorder
	Ckpts *checkpoint.Store
	// Metrics is the shared registry (ClusterConfig.Metrics or a fresh
	// one); the admin server serves it at /metrics.
	Metrics *metrics.Registry

	addrs []string
	nodes []*Node // elements replaced under mu by Recover
	//ocsml:guardedby mu
	fss   []*fsstore.Store // elements replaced under mu by Recover
	base  time.Time
	epoch int

	count func(name string, delta int64)

	mu sync.Mutex
	//ocsml:guardedby mu
	done   []bool
	doneCh chan struct{}

	//ocsml:guardedby mu
	makespan time.Duration

	// recovering pauses the GC loop while Recover reloads a
	// victim's store — collecting below the line mid-reload would pull
	// records the restart is about to read.
	//ocsml:guardedby mu
	recovering bool

	gcQuit chan struct{}
	gcOnce sync.Once // guards gcQuit close (Stop may run twice)
	gcWG   sync.WaitGroup
}

// NewCluster binds N localhost listeners and builds the nodes. Nothing
// runs until Start.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("transport: cluster needs at least 2 processes")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.Drain <= 0 {
		cfg.Drain = 500 * time.Millisecond
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	c := &Cluster{
		cfg:     cfg,
		Rec:     trace.NewRecorder(),
		Ckpts:   checkpoint.NewStore(cfg.N),
		Metrics: cfg.Metrics,
		base:    time.Now(), //ocsml:wallclock shared time origin of the real-network cluster
		count:   cfg.Metrics.EventSink(),
		done:    make([]bool, cfg.N),
		doneCh:  make(chan struct{}, 1),
		nodes:   make([]*Node, cfg.N),
		fss:     make([]*fsstore.Store, cfg.N),
		gcQuit:  make(chan struct{}),
	}
	listeners := make([]net.Listener, cfg.N)
	for i := 0; i < cfg.N; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, err
		}
		listeners[i] = ln
		c.addrs = append(c.addrs, ln.Addr().String())
	}
	for i := 0; i < cfg.N; i++ {
		if cfg.Datadir != "" {
			fs, err := fsstore.OpenWith(cfg.Datadir, i, cfg.N, cfg.FSOptions)
			if err != nil {
				return nil, err
			}
			fs.SetMetrics(fsstore.NewStoreMetrics(c.Metrics, i))
			c.fss[i] = fs
		}
		n, err := c.buildNode(i, listeners[i], -1)
		if err != nil {
			return nil, err
		}
		c.nodes[i] = n
	}
	return c, nil
}

// buildNode assembles one node: fresh when line < 0, otherwise
// restarted from its on-disk store at the recovery line.
func (c *Cluster) buildNode(i int, ln net.Listener, line int) (*Node, error) {
	proto, err := ResumeProtocol(c.cfg.Opt, c.cfg.Reliable, c.FS(i), c.Ckpts.Proc(i), line)
	if err != nil {
		return nil, err
	}
	app := workload.Factory(c.cfg.Workload)(i, c.cfg.N)
	return NewNode(NodeConfig{
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
}

// Addrs returns the cluster's TCP addresses.
func (c *Cluster) Addrs() []string { return append([]string(nil), c.addrs...) }

// Node returns process i's node (the current incarnation — Recover
// replaces the element).
func (c *Cluster) Node(i int) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[i]
}

// Nodes snapshots the current node set — the admin server's view of the
// locally hosted processes (called per request, so a restarted node is
// observed).
func (c *Cluster) Nodes() []*Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Node(nil), c.nodes...)
}

// FS returns process i's on-disk store (nil without a datadir; the
// current incarnation — Recover replaces the element).
func (c *Cluster) FS(i int) *fsstore.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fss[i]
}

// setFS swaps in a reopened store for process i.
func (c *Cluster) setFS(i int, fs *fsstore.Store) {
	c.mu.Lock()
	c.fss[i] = fs
	c.mu.Unlock()
}

// setRecovering flips the GC pause flag around a recovery.
func (c *Cluster) setRecovering(v bool) {
	c.mu.Lock()
	c.recovering = v
	c.mu.Unlock()
}

// Start launches every node, plus the storage GC loop when configured.
func (c *Cluster) Start() {
	for _, n := range c.nodes {
		n.Start()
	}
	if c.cfg.Datadir != "" && c.cfg.GCInterval > 0 {
		c.gcWG.Add(1)
		go c.gcLoop()
	}
}

// gcLoop periodically prunes every store below the globally finalized
// S_k watermark: the intersection of the durable manifests is the last
// checkpoint line recovery can ever need, so everything strictly below
// it is dead weight (the paper's retention argument). Collection skips
// ticks while a recovery is reloading a store.
func (c *Cluster) gcLoop() {
	defer c.gcWG.Done()
	ticker := time.NewTicker(c.cfg.GCInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.gcQuit:
			return
		case <-ticker.C:
		}
		c.mu.Lock()
		paused := c.recovering
		c.mu.Unlock()
		if paused {
			continue
		}
		wm, err := fsstore.LastCompleteSeq(c.cfg.Datadir, c.cfg.N)
		if err != nil || wm <= 0 {
			continue
		}
		for i := 0; i < c.cfg.N; i++ {
			fs := c.FS(i)
			if fs == nil {
				continue
			}
			if err := fs.GCTo(wm); err != nil {
				c.count("fsstore.gc_errors", 1)
			}
		}
		c.count("fsstore.gc_sweeps", 1)
	}
}

// WaitDone blocks until every process has completed its workload quota
// or the deadline passes.
func (c *Cluster) WaitDone(timeout time.Duration) error {
	deadline := time.After(timeout)
	for {
		select {
		case <-c.doneCh:
			if c.allDone() {
				return nil
			}
		case <-deadline:
			return fmt.Errorf("transport: workload did not complete within %v", timeout)
		}
	}
}

// Run executes the cluster start-to-finish: start, wait for the
// workload, drain, stop.
func (c *Cluster) Run() error { return c.RunThen(nil) }

// RunThen is Run with a pre-stop hook: beforeStop (when non-nil) runs
// after the drain and before the nodes close. The daemon shuts its
// admin server down there, so an in-flight status read still observes a
// live mesh — the shutdown ordering the control plane requires.
func (c *Cluster) RunThen(beforeStop func()) error {
	c.Start()
	defer c.Stop()
	if beforeStop != nil {
		defer beforeStop() // deferred after Stop, so it runs first (LIFO)
	}
	if err := c.WaitDone(c.cfg.Timeout); err != nil {
		return err
	}
	//ocsml:wallclock makespan of a real-network run is wall time by definition
	makespan := time.Since(c.base)
	c.mu.Lock()
	c.makespan = makespan
	c.mu.Unlock()
	time.Sleep(c.cfg.Drain)
	return nil
}

// Stop closes every node and stops the GC loop.
func (c *Cluster) Stop() {
	c.gcOnce.Do(func() { close(c.gcQuit) })
	c.gcWG.Wait()
	for _, n := range c.Nodes() {
		if n != nil {
			n.Close()
		}
	}
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

// Recover drives the wire-level recovery protocol for the crashed
// process: reopen its store, rebind its address, coordinate the recovery
// line from the cluster's durable manifests (RB_BGN -> RB_LINE -> RB_CMT
// -> RB_ACK, see Coordinate), then restart the victim from that store at
// the agreed line (ResumeProtocol, the sequence a restarted daemon
// runs). The survivors roll back through the same RB_* handlers a
// standalone ocsmld daemon uses — the cluster does not reach into their
// state directly, so the in-process cluster and a multi-OS-process
// deployment exercise one recovery code path. Returns the agreed line.
func (c *Cluster) Recover(victim int) (int, error) {
	if c.FS(victim) == nil {
		return -1, fmt.Errorf("transport: recovery of P%d needs a datadir", victim)
	}
	// Pause the GC loop for the whole recovery: a sweep racing the
	// reload below could collect records the restart is about to read.
	c.setRecovering(true)
	defer c.setRecovering(false)
	// Reopen the store exactly as a fresh OS process would — Open clears
	// crash debris (torn temp files, orphan segments, torn batch tails)
	// and rebuilds a corrupt manifest — before voting with its manifest
	// in the line intersection.
	fs, err := fsstore.OpenWith(c.cfg.Datadir, victim, c.cfg.N, c.cfg.FSOptions)
	if err != nil {
		return -1, err
	}
	fs.SetMetrics(fsstore.NewStoreMetrics(c.Metrics, victim))
	c.setFS(victim, fs)
	ln, err := net.Listen("tcp", c.addrs[victim])
	if err != nil {
		return -1, err
	}
	dec, err := Coordinate(CoordinatorConfig{
		ID: victim, Addrs: c.addrs, Seed: c.cfg.Seed,
		Seqs: fs.Manifest().Seqs, Epoch: c.epoch,
		Hook: c.cfg.Hook, Count: c.count,
	}, ln) // closes ln, so the node below can rebind
	if err != nil {
		return -1, err
	}
	c.epoch = dec.Epoch
	c.count("recovery.recoveries", 1)
	// The handshake has rolled the survivors back to the line and
	// advanced the epoch; bring the victim back at the same line.
	if ln, err = net.Listen("tcp", c.addrs[victim]); err != nil {
		return dec.Line, err
	}
	c.clearDone(victim)
	n, err := c.buildNode(victim, ln, dec.Line)
	if err != nil {
		ln.Close()
		return dec.Line, err
	}
	c.mu.Lock()
	c.nodes[victim] = n
	c.mu.Unlock()
	n.Start()
	c.count("recovery.restarts", 1)
	return dec.Line, nil
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
	for _, d := range c.done {
		if !d {
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
	for _, seq := range c.Ckpts.CompleteSeqs() {
		if seq == 0 {
			continue
		}
		cut, ok := c.Rec.CutAt(c.cfg.N, trace.KFinalize, seq)
		if !ok {
			return seqs, fmt.Errorf("transport: no complete cut for seq %d", seq)
		}
		rep := c.Rec.CheckCut(cut)
		if !rep.Consistent() {
			return seqs, fmt.Errorf("transport: S_%d inconsistent: %d orphan(s)", seq, len(rep.Orphans))
		}
		seqs = append(seqs, seq)
	}
	return seqs, nil
}

// Report summarizes a cluster run with the simulator's headline metrics
// plus the wire-level ones only a real network can produce.
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

// Report builds the run summary (call after Run or Stop).
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
