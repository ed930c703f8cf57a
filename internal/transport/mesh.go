package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ocsml/internal/wire"
)

// SendHook intercepts every outgoing frame before it reaches the peer
// queue — the fault-injection point of internal/faultnet. The hook may
// call deliver zero times (drop), once (pass or delay, possibly from a
// timer goroutine later), or several times (duplication). deliver is
// safe to call after the mesh has shut down.
//
// A hooked mesh never returns frames to the wire frame pool: the hook
// may still hold (or duplicate) a frame after the writer is done with
// its first copy, so ownership is left to the garbage collector.
type SendHook func(src, dst int, f *wire.Frame, deliver func(f *wire.Frame))

// MeshConfig parameterizes the TCP peer mesh of one process.
type MeshConfig struct {
	// ID is this process's identifier in [0, N).
	ID int
	// Addrs maps process id to TCP address; len(Addrs) is N.
	Addrs []string
	// Seed drives the backoff jitter (per-peer sources derive from it).
	Seed int64
	// Hook, when non-nil, filters every outgoing frame (fault injection).
	Hook SendHook
}

const (
	// dialBackoff is the initial reconnect delay; it doubles per failure
	// up to dialBackoffCap and resets on success.
	dialBackoff    = 20 * time.Millisecond
	dialBackoffCap = 2 * time.Second
	// peerQueueLen bounds the per-peer outgoing frame queue. A frame
	// offered to a full queue is dropped and counted — the reliable
	// middleware recovers it, exactly as it would on a lossy simulated
	// channel. The bound is a horizon, not a size: without that middleware
	// nothing resends a dropped frame, and every frame sent to a peer while
	// it restarts, the recovery line's logged re-sends among them, waits
	// here (TestRecoveryDeliversLoggedSends/unreliable). What a queue holds,
	// and its memory, is its backlog: 128 frames at most on the benchmark's
	// workloads (a write's batch included), 149 under the chaos seeds.
	peerQueueLen = 8192
	// queueKeep is the queue capacity a drained peer queue keeps; a larger
	// one (an outage's backlog) is handed back to the collector.
	queueKeep = 4 * maxWriteBatch
)

// MeshStats are the wire-level counters of one process.
type MeshStats struct {
	FramesSent, FramesRecv int64
	BytesSent, BytesRecv   int64
	// Reconnects counts connections re-established after an established
	// connection to a peer was lost (first connections don't count).
	Reconnects int64
	// Dropped counts frames discarded because a peer's queue was full
	// (or could not be framed).
	Dropped int64
}

// Mesh is the TCP fabric of one process: a listener accepting inbound
// connections from every peer, and one outbound connection per peer
// carrying this process's frames to it (so each ordered pair of
// processes has its own connection, and a process owns the connections
// it writes to).
//
// The write path is frame-batched: a writer wakeup takes the head of the
// peer queue (up to maxWriteBatch frames), rewrites each into a stream frame
// against the connection's previous one (wire.PeerEncoder: header
// fields and piggyback as deltas), and hands the whole batch to the
// kernel as one vectored write.
type Mesh struct {
	cfg    MeshConfig
	ln     net.Listener
	accept func(src int) func(frame []byte)

	peers []*peer // indexed by process id; peers[ID] is nil
	// incarnation tells this mesh from an earlier one at the same address;
	// every hello carries it (never 0).
	incarnation uint64

	quit    chan struct{}
	wg      sync.WaitGroup
	once    sync.Once
	connsMu sync.Mutex
	conns   map[net.Conn]struct{} // guarded by connsMu

	framesSent, framesRecv atomic.Int64
	bytesSent, bytesRecv   atomic.Int64
	reconnects, dropped    atomic.Int64
	pbBytes                atomic.Int64
}

// maxWriteBatch bounds how many queued frames one writer wakeup folds
// into a single vectored write.
const maxWriteBatch = 128

// peer is the outgoing side toward one process.
type peer struct {
	id int
	// mu guards q, the frames not yet written or dropped, oldest first:
	// Send appends, and the writer removes a batch only once it is written,
	// so frames a failed write leaves are still at the head. ready is a
	// token each append offers the writer.
	mu    sync.Mutex
	q     []*wire.Frame
	ready chan struct{}
	// connected tracks whether the writer currently holds an established
	// outbound connection — the liveness bit the admin API reports.
	connected atomic.Bool
	// hello is the incarnation the peer announced in its latest inbound
	// hello (0: none, or heeded) and wake a token serveConn offers with each
	// (see writerLoop). One token is enough, and one left over costs at most
	// a single immediate redial later.
	hello atomic.Uint64
	wake  chan struct{}
}

// PeerInfo is one peer's liveness snapshot as the admin API reports it.
type PeerInfo struct {
	ID   int    `json:"id"`
	Addr string `json:"addr"`
	// Connected reports an established outbound connection to the peer.
	Connected bool `json:"connected"`
	// QueueLen is the number of frames on the outgoing queue: every frame
	// offered and neither written nor dropped, those of a write that failed
	// included.
	QueueLen int `json:"queueLen"`
}

// Peers snapshots the outbound-connection state toward every peer.
func (m *Mesh) Peers() []PeerInfo {
	out := make([]PeerInfo, 0, len(m.peers)-1)
	for _, p := range m.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		queued := len(p.q)
		p.mu.Unlock()
		out = append(out, PeerInfo{
			ID: p.id, Addr: m.cfg.Addrs[p.id],
			Connected: p.connected.Load(),
			QueueLen:  queued,
		})
	}
	return out
}

// NewMesh builds the mesh around an already-bound listener (so a
// cluster can bind every address before any process starts dialing).
// accept is invoked once per established inbound connection and returns
// that connection's frame handler — connection scope is what gives a
// stateful decoder (wire.Decoder) exactly one peer's frame stream,
// reset on reconnect. The handler runs on the connection's reader
// goroutine; it must either be fast or hand off, must not retain frame
// (the buffer is reused for the next read), and handlers of different
// connections run concurrently.
func NewMesh(cfg MeshConfig, ln net.Listener, accept func(src int) func(frame []byte)) (*Mesh, error) {
	n := len(cfg.Addrs)
	if n < 2 || cfg.ID < 0 || cfg.ID >= n {
		return nil, fmt.Errorf("transport: invalid mesh id %d of %d", cfg.ID, n)
	}
	if ln == nil {
		return nil, fmt.Errorf("transport: mesh needs a bound listener")
	}
	m := &Mesh{
		cfg:    cfg,
		ln:     ln,
		accept: accept,
		peers:  make([]*peer, n),
		quit:   make(chan struct{}),
		conns:  map[net.Conn]struct{}{},
		// wall clock: incarnations must be unique across OS processes
		incarnation: uint64(time.Now().UnixNano()),
	}
	for j := 0; j < n; j++ {
		if j == cfg.ID {
			continue
		}
		m.peers[j] = &peer{id: j, ready: make(chan struct{}, 1), wake: make(chan struct{}, 1)}
	}
	return m, nil
}

// Start launches the accept loop and one writer goroutine per peer.
func (m *Mesh) Start() {
	m.wg.Add(1)
	go m.acceptLoop()
	for _, p := range m.peers {
		if p == nil {
			continue
		}
		m.wg.Add(1)
		go m.writerLoop(p)
	}
}

// Send enqueues one frame toward dst, taking ownership of it: an
// acquired frame is returned to the pool once written or dropped
// (unless a Hook is installed — see SendHook). A full queue (peer down
// long enough to exhaust the buffer) drops the frame — the loss is
// counted and left to the retransmission layer.
func (m *Mesh) Send(dst int, f *wire.Frame) {
	if m.peers[dst] == nil {
		panic(fmt.Sprintf("transport: P%d sending to itself", dst))
	}
	if h := m.cfg.Hook; h != nil {
		h(m.cfg.ID, dst, f, func(g *wire.Frame) { m.enqueue(dst, g) }) // fault-injection hook path, tests only
		return
	}
	m.enqueue(dst, f)
}

// enqueue places one frame on the peer's outgoing queue (the post-hook
// half of Send; delayed fault-injected frames land here from timers). It
// never blocks; after Close, what it queues is left to the collector.
func (m *Mesh) enqueue(dst int, f *wire.Frame) {
	p := m.peers[dst]
	p.mu.Lock()
	if len(p.q) >= peerQueueLen {
		p.mu.Unlock()
		m.dropped.Add(1)
		m.release(f)
		return
	}
	p.q = append(p.q, f)
	p.mu.Unlock()
	select {
	case p.ready <- struct{}{}:
	default:
	}
}

// take appends the head of the queue, up to maxWriteBatch frames, to
// batch; the frames stay queued until settle.
func (p *peer) take(batch []*wire.Frame) []*wire.Frame {
	p.mu.Lock()
	batch = append(batch, p.q[:min(len(p.q), maxWriteBatch)]...)
	p.mu.Unlock()
	return batch
}

// settle ends a write of the n frames take returned: they leave the
// queue, except unsent, a subsequence of them, which stays at its head.
func (p *peer) settle(n int, unsent []*wire.Frame) {
	p.mu.Lock()
	head := n - len(unsent)
	copy(p.q[head:n], unsent)
	k := copy(p.q, p.q[head:])
	clear(p.q[k:])
	p.q = p.q[:k]
	if k == 0 && cap(p.q) > queueKeep {
		p.q = nil
	}
	p.mu.Unlock()
}

// release hands a frame back to the pool when the mesh owns it — only
// an unhooked mesh does; a Hook may still hold references.
func (m *Mesh) release(f *wire.Frame) {
	if m.cfg.Hook == nil {
		f.Release()
	}
}

// Close shuts the mesh down: the listener, every open connection, and
// all goroutines.
func (m *Mesh) Close() {
	m.once.Do(func() {
		close(m.quit)
		m.ln.Close()
		m.connsMu.Lock()
		for c := range m.conns {
			c.Close()
		}
		m.connsMu.Unlock()
	})
	m.wg.Wait()
}

// Stats snapshots the wire counters.
func (m *Mesh) Stats() MeshStats {
	return MeshStats{
		FramesSent: m.framesSent.Load(),
		FramesRecv: m.framesRecv.Load(),
		BytesSent:  m.bytesSent.Load(),
		BytesRecv:  m.bytesRecv.Load(),
		Reconnects: m.reconnects.Load(),
		Dropped:    m.dropped.Load(),
	}
}

// PiggybackBytes is the total payload-block bytes of piggyback-carrying
// frames actually written — after delta encoding, so it reflects what
// traveled, not what an absolute encoding would have cost.
func (m *Mesh) PiggybackBytes() int64 { return m.pbBytes.Load() }

func (m *Mesh) trackConn(c net.Conn) bool {
	m.connsMu.Lock()
	defer m.connsMu.Unlock()
	select {
	case <-m.quit:
		c.Close()
		return false
	default:
	}
	m.conns[c] = struct{}{}
	return true
}

func (m *Mesh) untrackConn(c net.Conn) {
	m.connsMu.Lock()
	delete(m.conns, c)
	m.connsMu.Unlock()
	c.Close()
}

// acceptLoop accepts inbound connections and spawns a reader per
// connection.
func (m *Mesh) acceptLoop() {
	defer m.wg.Done()
	for {
		c, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !m.trackConn(c) {
			return
		}
		m.wg.Add(1)
		go m.serveConn(c)
	}
}

// serveConn reads the hello frame identifying the dialing peer, tells the
// writer toward that peer (the return rule, see writerLoop), answers with
// this mesh's own hello, then passes every subsequent frame to the
// connection's handler. The frame buffer is reused between reads, so
// handlers must finish with (or copy) a frame before returning.
func (m *Mesh) serveConn(c net.Conn) {
	defer m.wg.Done()
	defer m.untrackConn(c)
	src, incarnation, err := readHello(c, len(m.cfg.Addrs))
	if err != nil || src == m.cfg.ID {
		return
	}
	p := m.peers[src]
	p.hello.Store(incarnation)
	select {
	case p.wake <- struct{}{}:
	default:
	}
	if writeHello(c, m.cfg.ID, m.incarnation) != nil { // the reply, all we ever write here
		return
	}
	handler := m.accept(src)
	var buf []byte
	for {
		var n int
		buf, n, err = readFrameInto(c, buf)
		if err != nil {
			return
		}
		m.framesRecv.Add(1)
		m.bytesRecv.Add(int64(n))
		handler(buf)
	}
}

// writerLoop owns the outbound connection to one peer: dial (with
// jittered exponential backoff), send the hello frame, then write the
// queue in batches. Each batch is stream-encoded against the connection's
// base and written with one vectored write; its frames leave the queue
// once written, so a failed write leaves the unwritten tail at the head,
// where the next connection re-encodes it from the zero base (where that
// connection's decoder starts).
//
// Connection liveness is two rules (DESIGN.md §13.2). Death from the
// socket: after its hello reply the peer never writes on a connection we
// dialled, so the watcher's Read returning is the death notice, and the
// writer drops the connection before offering it another frame — a write
// into a socket whose peer has closed succeeds in the kernel and the frame
// vanishes. Return from the hello: a process binds its listener before it
// dials, so a peer's inbound hello (serveConn) ends the backoff sleep at
// once; and it names the peer's incarnation, so a connection whose far end
// answered as another one is dropped even while its death notice is still
// on its way to the watcher.
//
// The steady-state batch encode+write is a hot path: all its buffers
// (wbuf, bufs, ends, pbs, batch) and the queue amortize to zero
// allocations. The dial/backoff preamble allocates once per connection.
func (m *Mesh) writerLoop(p *peer) {
	defer m.wg.Done()
	rng := rand.New(rand.NewSource(jitterSeed(m.cfg.Seed, m.cfg.ID, p.id)))
	backoff := dialBackoff
	everConnected := false
	var conn net.Conn
	var lk *link // conn's watcher state
	var pe wire.PeerEncoder
	var batch []*wire.Frame // the queue's head, taken for the current write
	var wbuf []byte         // the batch's encoded bytes, length-prefixed
	var bufs net.Buffers    // one chunk per frame, aliasing wbuf's storage
	var ends []int64        // cumulative wire bytes through each frame
	var pbs []int64         // per-frame piggyback payload bytes
	// WriteTo consumes the vector it is called on, length and capacity,
	// and the vector escapes through its pointer receiver: written is that
	// vector, declared once so that neither bufs nor a per-batch copy is
	// reallocated.
	var written net.Buffers
	defer func() {
		if conn != nil {
			m.hangUp(p, conn)
		}
	}()
	for {
		// (Re)establish the connection.
		for conn == nil {
			c, err := net.DialTimeout("tcp", m.cfg.Addrs[p.id], backoff+time.Second)
			if err == nil {
				err = writeHello(c, m.cfg.ID, m.incarnation)
			}
			if err != nil {
				if c != nil {
					c.Close()
				}
				// Jittered exponential backoff: sleep uniform in
				// [backoff/2, 3*backoff/2), then double up to the cap —
				// unless the peer's hello says it is back.
				d := backoff/2 + time.Duration(rng.Int63n(int64(backoff)+1))
				select {
				case <-time.After(d):
					if backoff *= 2; backoff > dialBackoffCap {
						backoff = dialBackoffCap
					}
				case <-p.wake:
					backoff = dialBackoff
				case <-m.quit:
					return
				}
				continue
			}
			if !m.trackConn(c) {
				return
			}
			conn, lk = c, m.watch(c, p.id)
			select {
			case <-p.wake: // the hello that announced this connection's listener
			default:
			}
			// A fresh connection means a fresh decoder on the far side:
			// back to the zero base, so the next piggyback goes out whole.
			pe.Reset()
			p.connected.Store(true)
			backoff = dialBackoff // reset on success
			if everConnected {
				m.reconnects.Add(1)
			}
			everConnected = true
		}

		// Take a batch off the queue's head, waiting for one if it is empty.
		batch = p.take(batch[:0])
		if len(batch) == 0 {
			select {
			case <-p.ready:
				batch = p.take(batch)
			case <-p.wake:
			case <-lk.dead:
			case <-m.quit:
				return
			}
		}
		far, hello := lk.incarnation.Load(), p.hello.Load()
		gone := far != 0 && hello != 0 && far != hello
		select {
		case <-lk.dead:
			gone = true
		default:
		}
		if gone {
			// A hello is heeded once: what answers the redial is the truth,
			// whoever else claims the peer's id. The batch stays queued.
			p.hello.CompareAndSwap(hello, 0)
			m.hangUp(p, conn)
			conn = nil
			continue
		}

		// Encode the batch into one buffer: per frame maxPrefix bytes of
		// room, the stream-rewritten wire bytes, then the uvarint length
		// written right-aligned into that room, where the frame's chunk
		// starts.
		wbuf = wbuf[:0]
		bufs = bufs[:0]
		ends = ends[:0]
		pbs = pbs[:0]
		enc := batch[:0] // frames actually encoded, in order
		var total int64
		for _, f := range batch {
			if f.Len() > MaxFrame-wire.MaxStreamGrowth && pe.EncodedSize(f) > MaxFrame {
				// Unframeable: dropping it here (before the stream state
				// advances) is the queue-overflow failure mode — the
				// retransmission layer recovers.
				m.dropped.Add(1)
				m.release(f)
				continue
			}
			start := len(wbuf)
			wbuf = append(wbuf, 0, 0, 0)
			var pb int
			wbuf, pb = pe.AppendFrame(wbuf, f)
			var pre [maxPrefix]byte
			k := binary.PutUvarint(pre[:], uint64(len(wbuf)-start-maxPrefix))
			start += maxPrefix - k
			copy(wbuf[start:], pre[:k])
			// Chunk slices survive wbuf reallocation: they alias the old
			// backing array, whose bytes were already written.
			bufs = append(bufs, wbuf[start:len(wbuf):len(wbuf)])
			total += int64(len(wbuf) - start)
			ends = append(ends, total)
			pbs = append(pbs, int64(pb))
			enc = append(enc, f)
		}
		if len(enc) == 0 {
			p.settle(len(batch), nil)
			continue
		}

		written = bufs
		n, err := written.WriteTo(conn)

		// Account the fully-written prefix; the rest stays queued.
		sent := 0
		for sent < len(enc) && ends[sent] <= n {
			sent++
		}
		m.framesSent.Add(int64(sent))
		m.bytesSent.Add(n)
		var pbSum int64
		for i := 0; i < sent; i++ {
			pbSum += pbs[i]
			m.release(enc[i])
		}
		if pbSum > 0 {
			m.pbBytes.Add(pbSum)
		}
		// A partially-written frame dies with the connection (the reader
		// abandons the stream mid-frame); it is re-encoded in full on the
		// next connection, like the rest of the tail.
		p.settle(len(batch), enc[sent:])
		if err != nil {
			m.hangUp(p, conn)
			conn = nil
		}
	}
}

// hangUp closes the writer's connection to p (which also ends its
// watcher) and clears the liveness bit; only p's writer calls it.
func (m *Mesh) hangUp(p *peer, conn net.Conn) {
	p.connected.Store(false)
	m.untrackConn(conn)
}

// link is what the watcher of one outbound connection tells the writer.
type link struct {
	// incarnation is the far end's, from its hello reply (0: not read yet).
	incarnation atomic.Uint64
	// dead is closed when the connection dies.
	dead chan struct{}
}

// watch starts the watcher of one outbound connection to dst: it reads
// the acceptor's hello reply, then blocks in a Read that returns only for
// EOF, a reset or our own Close (hangUp, Mesh.Close), because nothing else
// is ever sent to us on a connection we dialled — and a stray byte, like a
// bad reply, ends the connection just the same.
func (m *Mesh) watch(c net.Conn, dst int) *link {
	lk := &link{dead: make(chan struct{})}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer close(lk.dead)
		if id, incarnation, err := readHello(c, len(m.cfg.Addrs)); err == nil && id == dst {
			lk.incarnation.Store(incarnation)
			var b [1]byte
			c.Read(b[:])
		}
	}()
	return lk
}

// jitterSeed derives the backoff-jitter stream of one writer goroutine
// from the mesh seed with a splitmix64 mix. Every (mesh, peer) pair gets
// its own decorrelated source — never process-global math/rand state,
// and not the additive prime offsets used previously, whose neighbouring
// streams were correlated — so a chaos run's reconnect timing reproduces
// from the single cluster seed.
func jitterSeed(seed int64, id, peer int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(id+1) + 0x517cc1b727220a95*uint64(peer+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// writeHello frames and writes the hello that opens every connection in
// both directions, the dialer's first and the acceptor's in reply: a
// 1-byte version, then the sender's process id and its mesh's incarnation
// as uvarints, framed like any other payload. The version is
// wire.VersionLatest and names the whole connection format, framing
// included; frames do not repeat it. A peer of another build is refused
// here, before any frame of its is misread, and the id is the Src of every
// frame the connection carries (DESIGN.md §13.1). The hello runs once per
// established connection and side, so its small buffer is off the
// steady-state write path.
func writeHello(c net.Conn, id int, incarnation uint64) error {
	buf := binary.AppendUvarint([]byte{wire.VersionLatest}, uint64(id))
	return writeFrame(c, binary.AppendUvarint(buf, incarnation))
}

func readHello(c io.Reader, n int) (id int, incarnation uint64, err error) {
	frame, err := readFrame(c)
	if err != nil {
		return -1, 0, err
	}
	if len(frame) < 3 || frame[0] != wire.VersionLatest {
		return -1, 0, fmt.Errorf("transport: bad hello frame")
	}
	src, k := binary.Uvarint(frame[1:])
	if k <= 0 || src >= uint64(n) {
		return -1, 0, fmt.Errorf("transport: bad hello id")
	}
	incarnation, k = binary.Uvarint(frame[1+k:])
	if k <= 0 || incarnation == 0 {
		return -1, 0, fmt.Errorf("transport: bad hello incarnation")
	}
	return int(src), incarnation, nil
}
