package transport

// Tests of what a node's queues cost and hold: memory that follows the
// backlog, not the bound; the peer queue's unchanged 8,192-frame horizon;
// and a backlog that counts the frames of a failed write.

import (
	"net"
	"runtime"
	"testing"
	"time"

	"ocsml/internal/checkpoint"
	"ocsml/internal/metrics"
	"ocsml/internal/trace"
	"ocsml/internal/wire"
)

// TestNewNodeAllocs: building a node allocates what it holds, not the
// capacity of its queues. Every node a cluster builds, recovered victims
// included, keeps its queues for its life; with a fixed 8,192-slot
// channel per peer and a 4,096-slot inbox, NewNode allocated 310 KB at
// N = 4, 1.10 MB at N = 16 and 4.26 MB at N = 64.
func TestNewNodeAllocs(t *testing.T) {
	const budget = 64 << 10
	for _, n := range []int{4, 16, 64} {
		addrs := make([]string, n)
		for i := range addrs {
			addrs[i] = "127.0.0.1:1" // never dialled: the node is not started
		}
		var best uint64
		for try := 0; try < 3; try++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addrs[0] = ln.Addr().String()
			cfg := NodeConfig{
				ID: 0, N: n, Addrs: addrs, Listener: ln, Seed: 1, Resume: -1,
				Proto: nopProto{}, App: nopApp{},
				Rec: trace.NewRecorder(), Ckpts: checkpoint.NewStore(n),
				Metrics: metrics.NewRegistry(), Base: time.Now(),
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			node, err := NewNode(cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			node.Close()
			if got := after.TotalAlloc - before.TotalAlloc; try == 0 || got < best {
				best = got
			}
		}
		t.Logf("N = %d: NewNode allocates %d B", n, best)
		if best > budget {
			t.Errorf("N = %d: NewNode allocates %d B at best of 3, want <= %d", n, best, budget)
		}
	}
}

// TestPeerQueueHorizon: toward a peer that never comes up, the queue holds
// 8,192 frames, and each frame offered beyond them is dropped and counted.
// The horizon is what carries logged re-sends across a peer's restart,
// so it stays whatever the queue's memory does.
func TestPeerQueueHorizon(t *testing.T) {
	lns, addrs := listenLocal(t, 2)
	lns[1].Close() // P1 never listens: every dial is refused
	m, err := NewMesh(MeshConfig{ID: 0, Addrs: addrs, Seed: 1}, lns[0],
		func(int) func([]byte) { return func([]byte) {} })
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Close()
	const extra = 100
	for i := 0; i < peerQueueLen+extra; i++ {
		m.Send(1, wire.RawFrame([]byte("f")))
	}
	if got := m.Stats().Dropped; got != extra {
		t.Errorf("dropped %d frames, want %d", got, extra)
	}
	if got := m.Peers()[0].QueueLen; got != peerQueueLen {
		t.Errorf("QueueLen = %d, want %d", got, peerQueueLen)
	}
}

// TestFailedWriteStaysQueued: the far end takes the hello, then reads
// nothing, so the writer blocks in a write with a batch in hand; the far
// end then dies and never comes back. Every frame offered is written,
// dropped or still queued: the failed write's frames are part of the
// backlog QueueLen reports (admin /v1/status queueLen) and of the bound,
// not held outside both while the writer redials.
func TestFailedWriteStaysQueued(t *testing.T) {
	lns, addrs := listenLocal(t, 2)
	m, err := NewMesh(MeshConfig{ID: 0, Addrs: addrs, Seed: 1}, lns[0],
		func(int) func([]byte) { return func([]byte) {} })
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Close()

	// The far end: answer one hello as P1, then read nothing.
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := lns[1].Accept()
		lns[1].Close() // the redial is refused
		if err != nil {
			accepted <- nil
			return
		}
		if _, _, err := readHello(c, 2); err == nil {
			writeHello(c, 1, 7)
		}
		accepted <- c
	}()

	// Enough 32 KiB frames to fill both sockets' buffers many times over.
	const frames = 512
	payload := make([]byte, 32<<10)
	for i := 0; i < frames; i++ {
		m.Send(1, wire.RawFrame(payload))
	}
	c := <-accepted
	if c == nil {
		t.Fatal("no connection from P0")
	}
	defer c.Close()
	// Blocked: nothing more is written for a while, with frames queued.
	for last, tries := int64(-1), 0; ; tries++ {
		time.Sleep(100 * time.Millisecond)
		s := m.Stats().FramesSent
		if s == last && m.Peers()[0].QueueLen > 0 {
			break
		}
		if tries == 50 {
			t.Fatalf("the writer never blocked: %d of %d frames written", s, frames)
		}
		last = s
	}
	c.Close() // the unread bytes make it a reset: the blocked write fails

	backlog := func() (queued, sent, dropped int64) {
		s := m.Stats()
		return int64(m.Peers()[0].QueueLen), s.FramesSent, s.Dropped
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		q, s, d := backlog()
		if !m.Peers()[0].Connected && q+s+d == frames {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer down: %d frames queued, %d written, %d dropped; want %d in all",
				q, s, d, frames)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDrainedQueueLetsGo: a backlog built while the peer was down is
// written once it is back, and the drained queue does not keep the
// backlog's array.
func TestDrainedQueueLetsGo(t *testing.T) {
	r := newPairRig(t)
	const backlog = 2000
	for i := 0; i < backlog; i++ {
		r.m0.Send(1, wire.RawFrame([]byte("f")))
	}
	r.start1()
	waitFor(t, 10*time.Second, func() bool { return len(r.received()) == backlog })
	p := r.m0.peers[1]
	waitFor(t, 5*time.Second, func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.q) == 0 && cap(p.q) <= queueKeep
	})
}
