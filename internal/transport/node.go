package transport

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ocsml/internal/checkpoint"
	"ocsml/internal/core"
	"ocsml/internal/des"
	"ocsml/internal/fsstore"
	"ocsml/internal/host"
	"ocsml/internal/metrics"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
	"ocsml/internal/wire"
)

// NodeConfig parameterizes one process of the real-network runtime.
type NodeConfig struct {
	ID, N int
	// Addrs maps process id to TCP address.
	Addrs []string
	// Listener is this process's already-bound listener for Addrs[ID].
	Listener net.Listener
	// Seed derives the node's deterministic random source.
	Seed int64
	// Epoch is the node's starting epoch, the one its host fences
	// deliveries by (host.Host.Deliver).
	Epoch int
	// Resume, when >= 0, restarts the process at that recovery line: Ckpts
	// holds its durable checkpoints up to the line (ResumeProtocol sees to
	// it), and the node goes there through host.Host.Restart, as a
	// survivor's rollback does. Negative starts a fresh process.
	Resume int

	// Proto and App are this process's protocol and application.
	Proto protocol.Protocol
	App   protocol.App

	// Rec and Ckpts are shared by the nodes one Cluster hosts.
	Rec   *trace.Recorder
	Ckpts *checkpoint.Store

	// Metrics is the named-metric registry the node registers its wire
	// and recovery series into (shared by the nodes one Cluster hosts);
	// its event sink takes the free-form statistics. A nil Metrics gets a
	// fresh registry.
	Metrics *metrics.Registry

	// FS, when non-nil, persists every finalized checkpoint to disk at
	// the moment the protocol issues its stable-storage write.
	FS *fsstore.Store

	// Hook, when non-nil, filters every outgoing frame (fault injection;
	// see internal/faultnet).
	Hook SendHook

	// Base is the shared time origin: Now() = time.Since(Base). Nodes of
	// one cluster share it so virtual timestamps are comparable; a
	// restarted node keeps the original base so its clock stays
	// monotonic across the crash.
	Base time.Time

	// OnDone fires (once) when the application completes its quota.
	OnDone func(id int)

	// OnRollback fires whenever the node is put at a recovery line — a
	// wire-committed rollback (RB_CMT) or a restart — the Cluster's
	// bookkeeping hook.
	OnRollback func(id, line int)
}

// Node runs one process on real time: the shared process host
// (protocol.Env and protocol.AppCtx, see internal/host) driven by a loop
// goroutine that serializes every protocol and application callback,
// with envelope delivery over the TCP mesh and stable writes on a
// storage goroutine. The Node is the host's Driver.
type Node struct {
	cfg   NodeConfig
	h     *host.Host
	mesh  *Mesh
	count func(name string, delta int64) // cfg.Metrics' event sink
	// enc serializes outgoing envelopes into pooled frames; all Sends
	// run on the loop goroutine, so its scratch state is single-owner.
	enc wire.Encoder

	inbox chan inboxItem
	quit  chan struct{}
	wg    sync.WaitGroup

	// Loop-owned timers: one runtime clock, armed for the earliest deadline
	// in timers (armed; 0: disarmed), posts runDue, built once, on firing.
	timers timerHeap
	clock  *time.Timer
	armed  des.Time
	runDue func()

	storageCh chan storeReq
	storageQ  atomic.Int32

	idCtr   atomic.Int64
	started atomic.Bool
	closed  atomic.Bool

	// Single-goroutine state, touched lock-free: persisted, held and the
	// GC state belong to the storage goroutine, recLine to the loop (reads
	// from elsewhere post to their owner, as StatusSnapshot does).
	// persisted is the highest seq written to FS; held the completions of
	// flushes that left a finalized record off the disk; recLine the last
	// committed rollback/resume line (-1: never).
	persisted int
	held      []heldWrite
	recLine   int

	// Storage GC (gc.go), on only when heard is non-nil: the epoch of the
	// last landed truncation (the start epoch before any), the last report
	// of every process, and the watermark collected to.
	dsnEpoch  int
	heard     []heardSeq
	collected int
	// voted is the epoch this process was in when it last voted in a
	// recovery round (-1: never); set on the loop, read by storage.
	voted atomic.Int64

	decodeErrors atomic.Int64

	// Registry-backed series (see registerMetrics).
	mAppFrames *metrics.Counter
	mReplayed  *metrics.Counter
}

// inboxItem is one unit of loop work: a delivered frame's slot, or fn.
type inboxItem struct {
	fn func()
	rx *rxSlot
}

// rxSlot is a received frame's copy, made on its reader goroutine so that
// it crosses to the loop without a heap allocation: env's payload points
// at pb. The loop clears env and returns the slot to rxPool once the
// delivery has returned, as the OnDeliver contract allows.
type rxSlot struct {
	env protocol.Envelope
	pb  core.Piggyback
}

var rxPool = sync.Pool{New: func() any { return new(rxSlot) }}

type storeReq struct {
	tag  string
	done func(start, end des.Time)
	// fn, when set, is a bare operation serialized with the disk writes
	// (rollback truncation); the other fields are ignored.
	fn func()
}

// heldWrite is the completion of a stable write, kept back until every
// record that was finalized when the write was served (up to seq) is on
// disk: the protocol's callback marks its checkpoint stable, which must
// not run ahead of the FinalizeBatch that commits it.
type heldWrite struct {
	seq   int
	start des.Time
	done  func(start, end des.Time)
}

// NewNode builds a node (not yet started).
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.N != len(cfg.Addrs) || cfg.ID < 0 || cfg.ID >= cfg.N {
		return nil, fmt.Errorf("transport: invalid node id %d of %d (addrs %d)", cfg.ID, cfg.N, len(cfg.Addrs))
	}
	if cfg.Proto == nil || cfg.App == nil || cfg.Rec == nil || cfg.Ckpts == nil {
		return nil, fmt.Errorf("transport: node needs proto, app, recorder and store")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Base.IsZero() {
		cfg.Base = time.Now()
	}
	n := &Node{
		cfg:       cfg,
		count:     cfg.Metrics.EventSink(),
		inbox:     make(chan inboxItem, 4096),
		quit:      make(chan struct{}),
		storageCh: make(chan storeReq, 1024),
		persisted: cfg.Resume,
		recLine:   cfg.Resume,
		dsnEpoch:  cfg.Epoch,
	}
	n.voted.Store(-1)
	n.runDue = n.runTimers
	n.clock = time.AfterFunc(time.Hour, func() { n.post(n.runDue) })
	n.clock.Stop()
	n.h = host.New(host.Process{
		ID: cfg.ID, N: cfg.N, Proto: cfg.Proto, App: cfg.App,
		Rand: rand.New(rand.NewSource(cfg.Seed + int64(cfg.ID)*7919)),
		Rec:  cfg.Rec, Ckpts: cfg.Ckpts.Proc(cfg.ID),
		Metrics: cfg.Metrics, Epoch: cfg.Epoch,
	}, n)
	mesh, err := NewMesh(MeshConfig{
		ID: cfg.ID, Addrs: cfg.Addrs, Seed: cfg.Seed, Hook: cfg.Hook,
	}, cfg.Listener, n.acceptConn)
	if err != nil {
		return nil, err
	}
	n.mesh = mesh
	n.registerMetrics()
	return n, nil
}

// registerMetrics installs this node's series in the registry. Counters
// backed by mesh/node atomics are function-attached (read at scrape
// time); a restarted node replaces its predecessor's series, so the
// per-proc values restart with the incarnation — exactly the semantics
// of a process restart under Prometheus.
func (n *Node) registerMetrics() {
	reg := n.cfg.Metrics
	proc := fmt.Sprintf("%d", n.cfg.ID)
	m := n.mesh
	reg.MustCounterVec("ocsml_wire_frames_sent_total",
		"Frames written to peer TCP connections.", "proc").Attach(m.framesSent.Load, proc)
	reg.MustCounterVec("ocsml_wire_frames_recv_total",
		"Frames read from peer TCP connections.", "proc").Attach(m.framesRecv.Load, proc)
	reg.MustCounterVec("ocsml_wire_bytes_sent_total",
		"Bytes written to peer TCP connections, including frame headers.", "proc").Attach(m.bytesSent.Load, proc)
	reg.MustCounterVec("ocsml_wire_bytes_recv_total",
		"Bytes read from peer TCP connections, including frame headers.", "proc").Attach(m.bytesRecv.Load, proc)
	reg.MustCounterVec("ocsml_wire_reconnects_total",
		"Peer connections re-established after loss.", "proc").Attach(m.reconnects.Load, proc)
	reg.MustCounterVec("ocsml_wire_frames_dropped_total",
		"Frames dropped at a full peer queue (recovered by retransmission).", "proc").Attach(m.dropped.Load, proc)
	reg.MustCounterVec("ocsml_wire_decode_errors_total",
		"Frames the wire codec rejected.", "proc").Attach(n.decodeErrors.Load, proc)
	reg.MustGaugeVec("ocsml_node_storage_queue",
		"Stable-storage writes queued or in service.", "proc").
		Attach(func() int64 { return int64(n.storageQ.Load()) }, proc)
	reg.MustCounterVec("ocsml_wire_piggyback_bytes_total",
		"Encoded bytes of protocol piggyback actually written to the wire (after delta encoding).", "proc").Attach(m.pbBytes.Load, proc)
	n.mAppFrames = reg.MustCounterVec("ocsml_wire_app_frames_total",
		"Application frames sent.", "proc").With(proc)
	n.mReplayed = reg.MustCounterVec("ocsml_recovery_replayed_msgs_total",
		"Logged messages replayed during piecewise-deterministic recovery.", "proc").With(proc)
}

// Start launches the node: mesh, loop and storage goroutines, then the
// protocol — which continues from what the checkpoint store holds — and
// the application, fresh or put at the Resume line by the host's one
// recovery routine.
func (n *Node) Start() {
	if n.cfg.Resume >= 0 {
		n.start(func() { n.h.Restart(n.cfg.Resume, n.cfg.Epoch) })
	} else {
		n.start(n.h.StartApp)
	}
}

// start is Start with then in place of the application's start (a
// restarted process's recovery round: Cluster.Recover).
func (n *Node) start(then func()) {
	if !n.started.CompareAndSwap(false, true) {
		return
	}
	n.wg.Add(2)
	go n.loop()
	go n.storageLoop()
	// Protocol start is queued before the mesh begins accepting, so no
	// delivery can reach OnDeliver ahead of Start.
	n.post(n.h.StartProtocol)
	n.post(then)
	n.mesh.Start()
}

// Close stops the node: no further callbacks run, connections drop.
func (n *Node) Close() {
	if !n.closed.CompareAndSwap(false, true) {
		return
	}
	close(n.quit)
	n.mesh.Close()
	n.wg.Wait()
	n.clock.Stop()
}

// Mesh exposes the wire fabric (stats).
func (n *Node) Mesh() *Mesh { return n.mesh }

// Post schedules fn on the node's serialized loop (cluster rollback
// uses it to mutate protocol state safely).
func (n *Node) Post(fn func()) { n.post(fn) }

// postStorage schedules fn on the storage goroutine, serialized with
// the disk persistence of finalized checkpoints. Returns false when the
// node is already shut down (fn will not run).
func (n *Node) postStorage(fn func()) bool {
	select {
	case n.storageCh <- storeReq{fn: fn}:
		return true
	case <-n.quit:
		return false
	}
}

func (n *Node) loop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.quit:
			return
		case it := <-n.inbox:
			if it.rx == nil {
				it.fn()
				continue
			}
			n.h.Deliver(&it.rx.env)
			it.rx.env = protocol.Envelope{}
			rxPool.Put(it.rx)
		}
	}
}

func (n *Node) post(fn func()) { n.enqueue(inboxItem{fn: fn}) }

func (n *Node) enqueue(it inboxItem) {
	select {
	case n.inbox <- it:
	case <-n.quit:
	}
}

// acceptConn builds one inbound connection's frame handler around a
// private stateful decoder: delta frames decode against exactly that
// connection's frame stream, and a reconnect gets a fresh decoder just
// as the sender's PeerEncoder resets its delta base. Every envelope it
// decodes is from src, the process the connection's hello named, to this
// node: frames do not carry either end.
func (n *Node) acceptConn(src int) func(frame []byte) {
	dec := wire.NewDecoder(src, n.cfg.ID)
	return func(frame []byte) { n.onFrame(dec, frame) }
}

// onFrame runs on a mesh reader goroutine: decode a view into a pooled
// slot (the next frame overwrites the decoder's), then hop onto the loop.
func (n *Node) onFrame(dec *wire.Decoder, frame []byte) {
	v, err := dec.Decode(frame)
	if err != nil {
		n.decodeErrors.Add(1)
		return
	}
	if v.CtlTag == dsnTag {
		n.onDurableReport(v)
		return
	}
	rx := rxPool.Get().(*rxSlot)
	rx.env = *v
	switch p := v.Payload.(type) {
	case *core.Piggyback:
		rx.pb.Csn, rx.pb.Stat = p.Csn, p.Stat
		rx.pb.TentSet.CopyFrom(p.TentSet)
		rx.env.Payload = &rx.pb
	case protocol.Owner:
		// Control and recovery frames are rare, and their handlers (core's
		// onControl, the host's recovery handler) assert value payloads.
		rx.env.Payload = p.Own()
	}
	n.enqueue(inboxItem{rx: rx})
}

// storageLoop serializes this process's stable-storage writes: the
// genuine disk persistence of finalized checkpoints when FS is
// configured (fsstore's write+fsync is the service time), an immediate
// completion otherwise.
func (n *Node) storageLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.quit:
			return
		case req := <-n.storageCh:
			if req.fn != nil {
				req.fn()
				continue
			}
			start, seq := n.Now(), n.persisted
			if n.cfg.FS != nil && req.tag != "ct" {
				// Finalization flush ("log" / "ct+log"): persist every
				// finalized-but-unpersisted record with a real fsync.
				was := n.persisted
				seq = n.persistFinalized()
				if n.heard != nil && n.persisted > was {
					n.durableRose()
				}
			}
			n.storageQ.Add(-1)
			if req.done != nil {
				n.held = append(n.held, heldWrite{seq, start, req.done})
			}
			n.completeDurable()
		}
	}
}

// completeDurable posts the completion of every held write whose records
// are all on disk, oldest first. When no flush has failed that is the one
// write just served; after a failed flush its completion waits here until
// a later flush has committed the seq.
func (n *Node) completeDurable() {
	end := n.Now()
	kept := n.held[:0]
	for _, w := range n.held {
		if w.seq > n.persisted {
			kept = append(kept, w)
			continue
		}
		n.post(func() { w.done(w.start, end) })
	}
	n.held = kept
}

// persistFinalized writes newly finalized records to the fsstore as one
// group commit: every finalized-but-unpersisted record joins a single
// FinalizeBatch, so a backlog of k checkpoints costs one fsync chain,
// not k. It returns the highest finalized seq it found, which is above
// the persisted watermark exactly when a record stayed off the disk. Only
// the records above the watermark are read, so a flush costs its batch,
// not the history. Runs on the storage goroutine, as does Truncate's work,
// the one other place that sets the watermark (a rollback lowers it to
// the line, and the next flush picks the re-finalized seqs up from
// there); the ProcStore is mutex-protected.
func (n *Node) persistFinalized() (finalized int) {
	finalized = n.persisted
	var batch []checkpoint.Record
	for _, rec := range n.cfg.Ckpts.Proc(n.cfg.ID).After(n.persisted) {
		if rec.FinalizedAt == 0 {
			continue
		}
		finalized = rec.Seq
		if rec.Seq <= n.cfg.FS.LastSeq() {
			// Already on disk: a previous attempt failed after its
			// manifest commit (e.g. the directory fsync); only the
			// watermark is behind.
			n.persisted = rec.Seq
			continue
		}
		batch = append(batch, rec)
	}
	if len(batch) == 0 {
		return finalized
	}
	committed, err := n.cfg.FS.FinalizeBatch(batch)
	// Advance the watermark over exactly the committed prefix. On error,
	// stop there: advancing past a failed write would strand its seq
	// forever, leaving a permanent gap in the manifest; the next flush
	// retries from it.
	if committed > 0 {
		n.persisted = batch[committed-1].Seq
	}
	if err != nil {
		n.count("fsstore.errors", 1)
	}
	return finalized
}

var _ host.Driver = (*Node)(nil)

// ---- host.Driver ----

// Now implements host.Driver: real time since the shared base.
func (n *Node) Now() des.Time { return des.Time(time.Since(n.cfg.Base)) }

// NextID implements host.Driver. IDs are unique across OS processes and
// across the incarnations of one process, whose counter restarts at zero:
// bits 40+ are the node, 32-39 the host's epoch at the send (a restarted
// incarnation resumes in an epoch above every one its predecessors sent
// in), 0-31 the counter. An aliased ID would confuse trace pairing and dedup.
func (n *Node) NextID() int64 {
	return int64(n.cfg.ID+1)<<40 | int64(n.h.Epoch()&0xff)<<32 | n.idCtr.Add(1)
}

// Transmit implements host.Driver: encode with the wire codec and
// enqueue the frame at the peer's mesh queue. The real encoded size —
// not the simulator's synthetic Bytes estimate — is what travels. This
// is the node's side of the host's ownership contract: the host calls
// it through the Driver interface, from loop callbacks only.
func (n *Node) Transmit(e *protocol.Envelope) {
	f := wire.AcquireFrame()
	if err := n.enc.EncodeFrame(f, e); err != nil {
		f.Release()
		panic(fmt.Sprintf("transport: P%d cannot encode envelope: %v", n.cfg.ID, err))
	}
	if e.Kind == protocol.KindApp {
		n.mAppFrames.Inc()
	}
	// Piggyback bytes are accounted by the mesh at write time, where the
	// per-connection delta encoding decides what actually travels.
	n.mesh.Send(e.Dst, f)
}

// After implements host.Driver: the tick joins the timer heap, and the
// clock is re-armed only when it is due first. Host.Fire fences it, so a
// tick from before a rollback is dropped at fire time.
func (n *Node) After(d des.Duration, tick host.Tick) {
	t := timerEntry{at: n.Now() + des.Time(d), tick: tick}
	n.timers.push(t)
	if n.armed == 0 || t.at < n.armed {
		n.arm(t.at)
	}
}

func (n *Node) arm(at des.Time) {
	n.armed = at
	n.clock.Reset(time.Duration(at - n.Now()))
}

// runTimers is runDue: run every entry due by now, in deadline order, then
// re-arm the clock for the earliest one left.
func (n *Node) runTimers() {
	n.armed = 0
	now := n.Now()
	for len(n.timers) > 0 && n.timers[0].at <= now {
		n.h.Fire(n.timers.pop().tick)
	}
	if len(n.timers) > 0 && (n.armed == 0 || n.timers[0].at < n.armed) {
		n.arm(n.timers[0].at)
	}
}

// timerEntry is one tick and its deadline.
type timerEntry struct {
	at   des.Time
	tick host.Tick
}

// timerHeap is a binary min-heap on at, by hand: container/heap would box
// every entry pushed.
type timerHeap []timerEntry

func (h *timerHeap) push(t timerEntry) {
	*h = append(*h, t)
	for s, i := *h, len(*h)-1; i > 0 && s[i].at < s[(i-1)/2].at; i = (i - 1) / 2 {
		s[i], s[(i-1)/2] = s[(i-1)/2], s[i]
	}
}

func (h *timerHeap) pop() timerEntry {
	s, last := *h, len(*h)-1
	top := s[0]
	s[0], s[last] = s[last], timerEntry{} // the vacated slot drops its callback
	s = s[:last]
	for i, c := 0, 1; c < len(s); i, c = c, 2*c+1 {
		if c+1 < len(s) && s[c+1].at < s[c].at {
			c++
		}
		if s[i].at <= s[c].at {
			break
		}
		s[i], s[c] = s[c], s[i]
	}
	*h = s
	return top
}

// WriteStable implements host.Driver.
func (n *Node) WriteStable(tag string, _ int64, done func(start, end des.Time)) {
	n.storageQ.Add(1)
	select {
	case n.storageCh <- storeReq{tag: tag, done: done}:
	case <-n.quit:
		// Never enqueued: undo the increment, or StorageQueueLen (read by
		// the protocol's EarlyFlush heuristic) would drift upward on every
		// write racing a shutdown.
		n.storageQ.Add(-1)
	}
}

// StorageQueueLen implements host.Driver (this process's local disk).
func (n *Node) StorageQueueLen() int { return int(n.storageQ.Load()) }

// Image implements host.Driver: a nominal 1 MiB image (checkpoint
// records carry the figure; nothing is charged for it) and no copy cost.
func (n *Node) Image() (int64, des.Duration) { return 1 << 20, 0 }

// AppSent implements host.Driver.
func (n *Node) AppSent(*protocol.Envelope) { n.count("app_msgs", 1) }

// Admit implements host.Driver (nothing is measured here).
func (n *Node) Admit(*protocol.Envelope) {}

// Stalled implements host.Driver (stall time is not measured here).
func (n *Node) Stalled(bool) {}

// Draining implements host.Driver: the real runtime has no drain
// phase; the cluster simply closes nodes when done.
func (n *Node) Draining() bool { return false }

// AppDone implements host.Driver.
func (n *Node) AppDone() {
	if n.cfg.OnDone != nil {
		n.cfg.OnDone(n.cfg.ID)
	}
}

// DurableSeqs implements host.Driver: the on-disk manifest when the node
// has one, otherwise the in-memory finalized checkpoints (a diskless
// cluster can still agree on a line). It is the process's vote in a
// recovery round, so the collector pauses first (see reportDurable).
func (n *Node) DurableSeqs() []int {
	n.voted.Store(int64(n.h.Epoch()))
	if n.cfg.FS != nil {
		return n.cfg.FS.Manifest().Seqs
	}
	var seqs []int
	for _, rec := range n.cfg.Ckpts.Proc(n.cfg.ID).All() {
		if rec.Seq > 0 && rec.FinalizedAt != 0 {
			seqs = append(seqs, rec.Seq)
		}
	}
	return seqs
}

// Truncate implements host.Driver: the store drops the records above line
// (vacuously without a store) on the storage goroutine, after any persist
// already in its queue, so a rolled-back checkpoint cannot be written back
// post-truncate; the outcome goes back to the loop. A restarted process's
// own truncation precedes its Restart (Cluster.Recover).
func (n *Node) Truncate(line, epoch int, done func(err error)) {
	n.postStorage(func() {
		var err error
		if fs := n.cfg.FS; fs != nil {
			if err = fs.TruncateAfter(line); err != nil {
				n.count("fsstore.errors", 1)
			} else {
				n.persisted, n.dsnEpoch = line, epoch
				n.completeDurable()
				n.held = nil // what is left waited on the records just discarded
			}
		}
		n.post(func() { done(err) })
	})
}

// RolledBack implements host.Driver: the node's and the cluster's
// bookkeeping of the line it was put at.
func (n *Node) RolledBack(line, replayed int) {
	n.mReplayed.Add(int64(replayed))
	n.recLine = line
	if n.cfg.OnRollback != nil {
		n.cfg.OnRollback(n.cfg.ID, line)
	}
}
