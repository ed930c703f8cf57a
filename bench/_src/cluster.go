package main

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"ocsml/internal/baseline/nop"
	"ocsml/internal/checkpoint"
	"ocsml/internal/core"
	"ocsml/internal/fsstore"
	"ocsml/internal/metrics"
	"ocsml/internal/protocol"
	"ocsml/internal/reliable"
	"ocsml/internal/trace"
	"ocsml/internal/transport"
)

// clusterConfig selects what one benchmark-owned cluster runs.
type clusterConfig struct {
	w    *workload
	seed int64
	// datadir holds one fsstore directory per process; empty runs without
	// stable storage (the nop baseline).
	datadir string
	// nop replaces OCSML (and the reliable middleware) with the
	// checkpoint-free baseline protocol.
	nop bool
	// traced installs the protocol decorator, the frame hook and the
	// event recorder.
	traced bool
}

// cluster is N transport nodes in this process, connected over loopback
// TCP, built from the public constructors an ocsmld daemon uses
// (transport.NewNode, fsstore.OpenWith) so the benchmark can own the
// application and wrap the protocol.
type cluster struct {
	cfg    clusterConfig
	base   time.Time
	nodes  []*transport.Node
	apps   []*app
	probes []*probe
	fss    []*fsstore.Store
	rec    *trace.Recorder
	ckpts  *checkpoint.Store
	reg    *metrics.Registry
}

func newCluster(cfg clusterConfig) (*cluster, error) {
	c := &cluster{
		cfg:   cfg,
		base:  time.Now(),
		rec:   trace.NewRecorder(),
		ckpts: checkpoint.NewStore(clusterN),
		reg:   metrics.NewRegistry(),
	}
	c.rec.SetEnabled(cfg.traced)
	listeners := make([]net.Listener, clusterN)
	addrs := make([]string, clusterN)
	closeListeners := func() {
		for _, ln := range listeners {
			if ln != nil {
				ln.Close()
			}
		}
	}
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners()
			return nil, err
		}
		listeners[i], addrs[i] = ln, ln.Addr().String()
	}
	var hook transport.SendHook
	if cfg.traced {
		hook = c.sendHook
	}
	for i := 0; i < clusterN; i++ {
		var fs *fsstore.Store
		if cfg.datadir != "" {
			var err error
			fs, err = fsstore.OpenWith(cfg.datadir, i, clusterN, fsstore.DefaultOptions())
			if err != nil {
				closeListeners()
				return nil, err
			}
			fs.SetMetrics(fsstore.NewStoreMetrics(c.reg, i))
		}
		c.fss = append(c.fss, fs)

		var proto protocol.Protocol
		if cfg.nop {
			proto = nop.Factory()(i, clusterN)
		} else {
			proto = core.New(cfg.w.options())
			if cfg.w.reliable {
				proto = reliable.Wrap(proto, reliable.Options{})
			}
		}
		a := newApp(i, clusterN, cfg.w, cfg.seed)
		if cfg.traced {
			p := &probe{base: c.base}
			c.probes = append(c.probes, p)
			a.probe = p
			proto = &timed{inner: proto, p: p}
		}
		c.apps = append(c.apps, a)
		n, err := transport.NewNode(transport.NodeConfig{
			ID: i, N: clusterN, Addrs: addrs, Listener: listeners[i],
			Seed: cfg.seed, Resume: -1,
			Proto: proto, App: a,
			Rec: c.rec, Ckpts: c.ckpts, Metrics: c.reg,
			FS: fs, Hook: hook, Base: c.base,
		})
		if err != nil {
			closeListeners()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// Polling periods: fast where the wait itself is being timed (set-up),
// slow where the condition is expensive to evaluate (drain).
const (
	pollFast = 200 * time.Microsecond
	pollSlow = 5 * time.Millisecond
)

func (c *cluster) now() int64 { return int64(time.Since(c.base)) }

// up starts the nodes and returns once every mesh link is established
// and, with stable storage, the first global checkpoint S_1 is durable on
// all N processes — the state an operator would call "ready".
func (c *cluster) up() error {
	for _, n := range c.nodes {
		n.Start()
	}
	if err := waitFor(10*time.Second, pollFast, func() bool {
		for _, n := range c.nodes {
			for _, p := range n.Mesh().Peers() {
				if !p.Connected {
					return false
				}
			}
		}
		return true
	}); err != nil {
		return fmt.Errorf("mesh did not connect: %w", err)
	}
	if c.cfg.datadir == "" {
		return nil
	}
	if _, err := c.nodes[0].TriggerCheckpoint(time.Second); err != nil {
		return err
	}
	if err := waitFor(10*time.Second, pollFast, func() bool { return c.ckpts.MaxStableSeq() >= 1 }); err != nil {
		return fmt.Errorf("first checkpoint not durable: %w", err)
	}
	if seq, err := fsstore.LastCompleteSeq(c.cfg.datadir, clusterN); err != nil || seq < 1 {
		return fmt.Errorf("S_1 marked stable but the manifests intersect at %d (%v)", seq, err)
	}
	return nil
}

// begin starts every application's traffic.
func (c *cluster) begin() {
	for i, n := range c.nodes {
		n.Post(c.apps[i].begin)
	}
}

// quiesce stops the generators and waits until every sent message has
// been received and every finalized checkpoint has reached the disk.
// It returns how many messages and rounds were still outstanding.
func (c *cluster) quiesce() (undelivered int64, pendingRounds int) {
	// A node's inbox is first in, first out: once its stop has run, every
	// send the harness fired before it has been counted as sent.
	var stopped sync.WaitGroup
	for i, n := range c.nodes {
		a := c.apps[i]
		stopped.Add(1)
		n.Post(func() { a.stop(); stopped.Done() })
	}
	stopped.Wait()
	// A timeout is not an error here: what is still outstanding is
	// returned and counted as failed operations.
	_ = waitFor(drainLimit, pollSlow, func() bool {
		sent, recv := c.traffic()
		return sent == recv && !c.tentative() && c.unstable() == 0
	})
	for _, n := range c.nodes {
		n.WaitStorageIdle(time.Second)
	}
	sent, recv := c.traffic()
	return sent - recv, c.unstable()
}

// traffic sums the applications' sent and received counters.
func (c *cluster) traffic() (sent, recv int64) {
	for _, a := range c.apps {
		sent += a.sent.Load()
		recv += a.recv.Load()
	}
	return sent, recv
}

// tentative reports whether any process is still inside a checkpoint
// round: its record is not in the store yet, so unstable cannot see it.
func (c *cluster) tentative() bool {
	for _, n := range c.nodes {
		if st, err := n.StatusSnapshot(time.Second); err != nil || st.Stat == core.Tentative.String() {
			return true
		}
	}
	return false
}

// unstable counts finalized checkpoints whose flush has not completed.
func (c *cluster) unstable() int {
	if c.cfg.datadir == "" {
		return 0
	}
	k := 0
	for i := 0; i < clusterN; i++ {
		for _, r := range c.ckpts.Proc(i).All() {
			if r.StableAt == 0 {
				k++
			}
		}
	}
	return k
}

func (c *cluster) close() {
	for _, n := range c.nodes {
		n.Close()
	}
}

// waitFor polls cond until it holds or the limit passes.
func waitFor(limit, every time.Duration, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", limit)
		}
		time.Sleep(every)
	}
	return nil
}

// timeSetup brings a throw-away cluster up in a fresh datadir under dir
// and returns how long that took, construction included.
func timeSetup(w *workload, seed int64, dir string) (time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	c, err := newCluster(clusterConfig{w: w, seed: seed, datadir: dir})
	if err != nil {
		return 0, err
	}
	defer c.close()
	if err := c.up(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}
