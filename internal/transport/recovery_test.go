package transport

// Unit tests for the wire-level recovery coordinator and the node-side
// persistence fixes it depends on: line agreement against stub peers,
// rebroadcast through a lossy hook, timeout on a silent peer, the
// finalize-retry watermark, and storage-queue accounting across shutdown.

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ocsml/internal/checkpoint"
	"ocsml/internal/fsstore"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
	"ocsml/internal/wire"
)

// stubPeer is a survivor stand-in: a bare mesh that answers RB_BGN with a
// fixed manifest report and RB_CMT with an ACK, recording the committed
// decision.
type stubPeer struct {
	mesh *Mesh
	mu   sync.Mutex
	cmt  *protocol.RbMsg
}

func newStubPeer(t *testing.T, id int, addrs []string, ln net.Listener, seqs []int, epoch int) *stubPeer {
	t.Helper()
	p := &stubPeer{}
	mesh, err := NewMesh(MeshConfig{ID: id, Addrs: addrs, Seed: int64(id)}, ln, func(src int) func(frame []byte) {
		return func(frame []byte) {
			e, err := wire.Decode(frame)
			if err != nil || !protocol.IsRecoveryTag(e.CtlTag) {
				return
			}
			rb, ok := e.Payload.(protocol.RbMsg)
			if !ok {
				return
			}
			reply := func(tag string, m protocol.RbMsg) {
				out, err := wire.Encode(&protocol.Envelope{
					Src: id, Dst: src, Kind: protocol.KindCtl, CtlTag: tag, Payload: m,
				})
				if err != nil {
					panic(err)
				}
				p.mesh.Send(src, wire.RawFrame(out))
			}
			switch e.CtlTag {
			case protocol.TagRbBegin:
				reply(protocol.TagRbLine, protocol.RbMsg{Round: rb.Round, Epoch: epoch, Seqs: seqs})
			case protocol.TagRbCommit:
				p.mu.Lock()
				p.cmt = &rb
				p.mu.Unlock()
				reply(protocol.TagRbAck, protocol.RbMsg{Round: rb.Round})
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	p.mesh = mesh
	mesh.Start()
	t.Cleanup(func() { mesh.Close() })
	return p
}

func (p *stubPeer) committed() *protocol.RbMsg {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cmt
}

// listenLocal binds n ephemeral localhost listeners and returns them with
// their address table.
func listenLocal(t *testing.T, n int) ([]net.Listener, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return lns, addrs
}

func TestCoordinateLineAgreement(t *testing.T) {
	lns, addrs := listenLocal(t, 3)
	p1 := newStubPeer(t, 1, addrs, lns[1], []int{1, 2, 3, 4}, 2)
	p2 := newStubPeer(t, 2, addrs, lns[2], []int{1, 3, 4}, 1)

	counters := map[string]int64{}
	var mu sync.Mutex
	dec, err := Coordinate(CoordinatorConfig{
		ID: 0, Addrs: addrs, Seed: 99,
		Seqs: []int{1, 2, 3}, Epoch: 0,
		Timeout: 10 * time.Second, Retry: 25 * time.Millisecond,
		Count: func(name string, delta int64) {
			mu.Lock()
			counters[name] += delta
			mu.Unlock()
		},
	}, lns[0])
	if err != nil {
		t.Fatalf("Coordinate: %v", err)
	}
	// Intersection of {1,2,3}, {1,2,3,4}, {1,3,4} is {1,3}: line 3.
	if dec.Line != 3 {
		t.Fatalf("line = %d, want 3", dec.Line)
	}
	// Highest reported epoch is 2; the committed epoch fences it out.
	if dec.Epoch != 3 {
		t.Fatalf("epoch = %d, want 3", dec.Epoch)
	}
	for _, p := range []*stubPeer{p1, p2} {
		cmt := p.committed()
		if cmt == nil {
			t.Fatal("peer saw no commit")
		}
		if cmt.Line != dec.Line || cmt.Epoch != dec.Epoch {
			t.Fatalf("peer committed %+v, want line %d epoch %d", cmt, dec.Line, dec.Epoch)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if counters["recovery.coordinated"] != 1 {
		t.Fatalf("coordinated counter = %d", counters["recovery.coordinated"])
	}
}

func TestCoordinateEmptyIntersection(t *testing.T) {
	lns, addrs := listenLocal(t, 2)
	newStubPeer(t, 1, addrs, lns[1], nil, 0)

	dec, err := Coordinate(CoordinatorConfig{
		ID: 0, Addrs: addrs, Seed: 5, Seqs: []int{1, 2},
		Timeout: 10 * time.Second, Retry: 25 * time.Millisecond,
	}, lns[0])
	if err != nil {
		t.Fatalf("Coordinate: %v", err)
	}
	if dec.Line != 0 {
		t.Fatalf("line = %d, want 0 (initial state)", dec.Line)
	}
	if dec.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", dec.Epoch)
	}
}

func TestCoordinateRebroadcastThroughLoss(t *testing.T) {
	lns, addrs := listenLocal(t, 3)
	newStubPeer(t, 1, addrs, lns[1], []int{1, 2}, 0)
	newStubPeer(t, 2, addrs, lns[2], []int{1, 2}, 0)

	// Drop the first two frames toward every destination: both the
	// initial RB_BGN and the initial RB_CMT are lost, so only the
	// rebroadcast path can complete the round.
	var drops sync.Map
	hook := func(src, dst int, frame *wire.Frame, deliver func(frame *wire.Frame)) {
		c, _ := drops.LoadOrStore(dst, new(atomic.Int32))
		if c.(*atomic.Int32).Add(1) <= 2 {
			return
		}
		deliver(frame)
	}
	dec, err := Coordinate(CoordinatorConfig{
		ID: 0, Addrs: addrs, Seed: 7, Seqs: []int{1, 2},
		Timeout: 10 * time.Second, Retry: 20 * time.Millisecond, Hook: hook,
	}, lns[0])
	if err != nil {
		t.Fatalf("Coordinate through loss: %v", err)
	}
	if dec.Line != 2 {
		t.Fatalf("line = %d, want 2", dec.Line)
	}
}

func TestCoordinateTimeout(t *testing.T) {
	lns, addrs := listenLocal(t, 3)
	newStubPeer(t, 1, addrs, lns[1], []int{1}, 0)
	// Peer 2 exists but never answers.
	lns[2].Close()

	_, err := Coordinate(CoordinatorConfig{
		ID: 0, Addrs: addrs, Seed: 3, Seqs: []int{1},
		Timeout: 500 * time.Millisecond, Retry: 50 * time.Millisecond,
	}, lns[0])
	if err == nil {
		t.Fatal("Coordinate succeeded without peer 2")
	}
}

// TestNodeFinalizeRetry drives the watermark fix through a live node: a
// one-shot injected Finalize failure must be retried on a later flush,
// leaving the on-disk manifest gap-free, and while the failure is
// outstanding the record must not be reported stable.
func TestNodeFinalizeRetry(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	dir := t.TempDir()
	c, err := NewCluster(testClusterConfig(dir, 23))
	if err != nil {
		t.Fatal(err)
	}
	// durable reports where seq 1 of process 0 stands: marked stable in
	// the checkpoint store (what MaxStableSeq counts), listed in the
	// on-disk manifest.
	durable := func() (stable, manifested bool) {
		rec, _ := c.Ckpts.Proc(0).Get(1)
		m, err := fsstore.ReadManifest(dir, 0)
		if err != nil {
			t.Error(err)
		}
		return rec.StableAt != 0, len(m.Seqs) > 0 && m.Seqs[0] == 1
	}
	var attempts atomic.Int32
	c.FS(0).SetFinalizeErrHook(func(rec checkpoint.Record) error {
		if rec.Seq != 1 {
			return nil
		}
		if attempts.Add(1) == 1 {
			return errInjected
		}
		// The retry, a later flush's batch: until it commits, the failure
		// is outstanding.
		if stable, manifested := durable(); stable || manifested {
			t.Errorf("seq 1 before its retry commits: stable %v, manifested %v, want neither", stable, manifested)
		}
		return nil
	})
	c.Run(context.Background(), nil)
	if attempts.Load() != 2 {
		t.Fatalf("seq 1 reached FinalizeBatch %d times, want a failure and one retry", attempts.Load())
	}
	if got := c.Counter("fsstore.errors"); got != 1 {
		t.Fatalf("fsstore.errors = %d, want 1", got)
	}
	if stable, manifested := durable(); !stable || !manifested {
		t.Fatalf("seq 1 after its retry: stable %v, manifested %v, want both", stable, manifested)
	}
	// The failed seq was retried: the manifest has no gap at 1.
	m, err := fsstore.ReadManifest(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(m.Seqs); i++ {
		if m.Seqs[i] != m.Seqs[i-1]+1 {
			t.Fatalf("manifest gap: %v", m.Seqs)
		}
	}
	validateDisk(t, dir, 4, 1)
}

var errInjected = &net.AddrError{Err: "injected", Addr: "finalize"}

// TestWriteStableShutdownAccounting exercises the storageQ quit path:
// writes racing a shutdown must not leave StorageQueueLen drifted.
func TestWriteStableShutdownAccounting(t *testing.T) {
	lns, addrs := listenLocal(t, 2)
	lns[1].Close() // peer never exists; irrelevant here
	n, err := NewNode(NodeConfig{
		ID: 0, N: 2, Addrs: addrs, Listener: lns[0], Seed: 1, Resume: -1,
		Proto: nopProto{}, App: nopApp{},
		Rec: trace.NewRecorder(), Ckpts: checkpoint.NewStore(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	n.Close()

	// With no consumer left, at most the channel's buffer capacity can
	// ever be accounted as queued — every write past that hits the quit
	// branch, which must undo its increment or the gauge drifts without
	// bound.
	const cap = 1024 // storageCh buffer size
	for i := 0; i < cap+100; i++ {
		n.WriteStable("ct", 1, nil)
	}
	if got := n.StorageQueueLen(); got < 0 || got > cap {
		t.Fatalf("StorageQueueLen after %d post-shutdown writes = %d, want within [0,%d]", cap+100, got, cap)
	}
}

type nopProto struct{}

func (nopProto) Name() string                 { return "nop" }
func (nopProto) Start(protocol.Env)           {}
func (nopProto) OnAppSend(*protocol.Envelope) {}
func (nopProto) OnDeliver(*protocol.Envelope) {}
func (nopProto) OnTimer(kind, gen int)        {}
func (nopProto) Finish()                      {}

type nopApp struct{}

func (nopApp) Start(protocol.AppCtx)                           {}
func (nopApp) OnMessage(protocol.AppCtx, int, protocol.AppMsg) {}
