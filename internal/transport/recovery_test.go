package transport

// Unit tests for the node-side persistence fixes wire recovery depends on:
// the finalize-retry watermark, and storage-queue accounting across
// shutdown. The handshake's policy is tested in internal/handshake.

import (
	"context"
	"net"
	"sync/atomic"
	"testing"

	"ocsml/internal/checkpoint"
	"ocsml/internal/fsstore"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
)

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
