// Package engine wires an application workload, a checkpointing protocol,
// the network, the stable-storage server and the trace recorder into a
// deterministic discrete-event simulation of one distributed computation.
//
// One Cluster hosts N processes. Each process is a Node pairing a
// protocol.App (the computation) with a protocol.Protocol (the
// checkpointing algorithm) on the shared process host (internal/host),
// which implements protocol.Env and protocol.AppCtx, so protocol and
// application act on the world only through it; the Node is the host's
// simulated driver. All callbacks run single-threaded inside the
// simulator.
package engine

import (
	"fmt"
	"slices"

	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
	"ocsml/internal/host"
	"ocsml/internal/metrics"
	"ocsml/internal/netsim"
	"ocsml/internal/protocol"
	"ocsml/internal/storage"
	"ocsml/internal/trace"
)

// Config parameterizes a cluster run.
type Config struct {
	N    int
	Seed int64
	// FIFO selects per-channel FIFO delivery (required by the
	// Chandy–Lamport baseline; the paper's algorithm does not need it).
	FIFO bool
	// Latency is the network latency model (netsim.DefaultLatency if nil).
	Latency netsim.LatencyModel
	// DropRate makes the network lossy (0..1). Protocols then need the
	// reliable-transport middleware (internal/reliable) to be correct.
	DropRate float64
	// Storage configures the stable-storage server(s).
	Storage storage.Config
	// LocalStorage gives every process its own storage server (local
	// disks) instead of the shared network file server — the ablation
	// that isolates the paper's shared-storage contention argument.
	LocalStorage bool
	// StateBytes is the size of one process-state image (checkpoint).
	StateBytes int64
	// CopyCost is the local stall incurred when snapshotting process
	// state into memory (the cost of taking a tentative checkpoint).
	CopyCost des.Duration
	// Drain is how long the simulation keeps running after the workload
	// completes, letting protocols finalize outstanding checkpoints.
	Drain des.Duration
	// MaxTime aborts runaway simulations (0 = unbounded).
	MaxTime des.Time
	// TraceEnabled records the full event trace (disable for large
	// benchmark sweeps).
	TraceEnabled bool
}

// DefaultConfig returns a moderate cluster: 8 processes, 16 MB state
// images, 2007-era LAN and NFS server.
func DefaultConfig() Config {
	return Config{
		N:            8,
		Seed:         1,
		Storage:      storage.DefaultConfig(),
		StateBytes:   16 << 20,
		CopyCost:     5 * des.Millisecond,
		Drain:        60 * des.Second,
		MaxTime:      4 * des.Hour,
		TraceEnabled: true,
	}
}

// ProtoFactory builds the protocol instance for process i of n.
type ProtoFactory func(i, n int) protocol.Protocol

// AppFactory builds the application instance for process i of n.
type AppFactory func(i, n int) protocol.App

// Cluster is one simulated distributed computation.
type Cluster struct {
	cfg Config
	Sim *des.Simulator
	Net *netsim.Network
	// Store is the shared server (or the first local one).
	Store  *storage.Server
	stores []*storage.Server
	Rec    *trace.Recorder
	Ckpts  *checkpoint.Store

	nodes   []*Node
	failure *FailurePlan

	// Run-state mutated only while the simulation executes, i.e. on the
	// goroutine inside Cluster.Run. done is by process: it finished its
	// quota since its last rollback.
	done     []bool
	draining bool
	makespan des.Time

	// Metrics is the run's named-metric registry. The free-form Count
	// namespace lands here as the events family (the DES and the live
	// transport runtime share one metric catalog), and the engine's
	// first-class instruments below are registered series of it.
	Metrics *metrics.Registry
	events  func(name string, delta int64)

	appMsgs        *metrics.Counter
	piggyBytes     *metrics.Counter
	appLatency     *metrics.Summary // send→process latency, seconds
	stalledSeconds *metrics.Summary // per-node total stalled time
	protoName      string
}

// New builds a cluster. Protocol and application instances are created
// immediately; nothing runs until Run.
func New(cfg Config, pf ProtoFactory, af AppFactory) *Cluster {
	if cfg.N < 2 {
		panic(fmt.Sprintf("engine: need at least 2 processes, got %d", cfg.N))
	}
	if cfg.Storage.Bandwidth == 0 {
		cfg.Storage = storage.DefaultConfig()
	}
	sim := des.New(cfg.Seed)
	c := &Cluster{
		cfg:     cfg,
		Sim:     sim,
		Rec:     trace.NewRecorder(),
		Ckpts:   checkpoint.NewStore(cfg.N),
		Metrics: metrics.NewRegistry(),
		done:    make([]bool, cfg.N),
	}
	c.events = c.Metrics.EventSink()
	c.appMsgs = c.Metrics.MustCounter("ocsml_app_messages_total",
		"Application messages sent.")
	c.piggyBytes = c.Metrics.MustCounter("ocsml_wire_piggyback_bytes_total",
		"Encoded bytes of protocol piggyback carried on application messages.")
	c.appLatency = c.Metrics.MustSummary("ocsml_app_latency_seconds",
		"Application message send-to-process latency.")
	c.stalledSeconds = c.Metrics.MustSummary("ocsml_app_stalled_seconds",
		"Per-process total time the application was stalled.")
	c.Rec.SetEnabled(cfg.TraceEnabled)
	if cfg.LocalStorage {
		c.stores = make([]*storage.Server, cfg.N)
		for i := range c.stores {
			c.stores[i] = storage.NewServer(sim, cfg.Storage)
		}
	} else {
		c.stores = []*storage.Server{storage.NewServer(sim, cfg.Storage)}
	}
	c.Store = c.stores[0]
	c.Net = netsim.New(sim, netsim.Config{
		N: cfg.N, FIFO: cfg.FIFO, Latency: cfg.Latency, DropRate: cfg.DropRate,
	}, c.deliver)
	c.nodes = make([]*Node, cfg.N)
	for i := 0; i < cfg.N; i++ {
		n := &Node{c: c, proto: pf(i, cfg.N)}
		n.h = host.New(host.Process{
			ID: i, N: cfg.N, Proto: n.proto, App: af(i, cfg.N),
			Rand: sim.Rand(), Rec: c.Rec, Ckpts: c.Ckpts.Proc(i),
			Metrics: c.Metrics,
		}, n)
		c.nodes[i] = n
	}
	c.protoName = c.nodes[0].proto.Name()
	if cfg.MaxTime > 0 {
		sim.SetHorizon(cfg.MaxTime)
	}
	return c
}

// Run executes the simulation to completion and returns the result.
func (c *Cluster) Run() *Result {
	for _, n := range c.nodes {
		n.h.StartProtocol()
	}
	for _, n := range c.nodes {
		n.h.StartApp()
	}
	c.Sim.Run()
	for _, n := range c.nodes {
		if n.h.IsStalled() {
			n.Stalled(false) // account stall time still open at end of run
		}
		c.stalledSeconds.Observe(n.stalledTotal.Seconds())
	}
	return c.result()
}

// deliver routes an arriving envelope to its destination's host, whose
// fence decides its epoch. It is the network's delivery callback, invoked
// from the simulator's event queue inside Cluster.Run.
func (c *Cluster) deliver(e *protocol.Envelope) { c.nodes[e.Dst].h.Deliver(e) }

// appDone is called when process p completes its workload quota.
func (c *Cluster) appDone(p int) {
	c.done[p] = true
	if !slices.Contains(c.done, false) && !c.draining {
		c.draining = true
		c.makespan = c.Sim.Now()
		for _, n := range c.nodes {
			n.proto.Finish()
		}
		c.Sim.At(c.Sim.Now()+c.cfg.Drain, c.Sim.Stop)
	}
}

func (c *Cluster) count(name string, delta int64) { c.events(name, delta) }

// storeFor returns process i's stable-storage server.
func (c *Cluster) storeFor(i int) *storage.Server {
	if len(c.stores) == 1 {
		return c.stores[0]
	}
	return c.stores[i]
}
