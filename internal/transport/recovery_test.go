package transport

// Unit tests for the node-side persistence fixes wire recovery depends on
// — the finalize-retry watermark, and storage-queue accounting across
// shutdown — and for Cluster.Recover, whose error paths only an injected
// disk fault reaches (the collector's are in gc_test.go). The handshake's
// policy is tested in internal/handshake.

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ocsml/internal/checkpoint"
	"ocsml/internal/core"
	"ocsml/internal/fsstore"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
	"ocsml/internal/wire"
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
// commit whose fsync fails once must be retried on a later flush, leaving
// the on-disk manifest gap-free, and while the failure is outstanding the
// record must not be reported stable. (The log itself may show the failed
// commit's frame to a poll meanwhile: a scan reads what the file holds.)
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
	var syncs atomic.Int32
	c.FS(0).SetFaultHook(func(op, _ string) error {
		if op != "sync" {
			return nil
		}
		switch syncs.Add(1) {
		case 1: // the commit that carries seq 1
			return errInjected
		case 2:
			// The retry, a later flush's batch: until it commits, the failure
			// is outstanding.
			if stable, _ := durable(); stable {
				t.Error("seq 1 is stable before its retry commits")
			}
		}
		return nil
	})
	c.Run(context.Background(), nil)
	if syncs.Load() < 2 {
		t.Fatalf("P0 synced %d commit(s), want a failure and its retry", syncs.Load())
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

// TestPersistFinalizedCostsItsBatch: a flush reads the records above the
// persisted watermark and nothing else, so what it allocates does not
// depend on how many checkpoints the process has behind it. (At the
// parent it copied the whole ProcStore and the hint listed every seq: a
// flush over 16 records of history allocated 4,656 B, over 4,096 records
// 554,960 B.)
func TestPersistFinalizedCostsItsBatch(t *testing.T) {
	rec := func(seq int) checkpoint.Record {
		return checkpoint.Record{Tentative: checkpoint.Tentative{Proc: 0, Seq: seq}, FinalizedAt: 1}
	}
	// flushAlloc builds an unstarted node whose ProcStore and store hold
	// history finalized-and-persisted records, then finalizes one record
	// more and runs the flush on this goroutine. The cheapest of four such
	// flushes is reported: the seq list and the index grow by doubling, and
	// one flush in many pays for that.
	flushAlloc := func(history int) uint64 {
		fs, err := fsstore.Open(t.TempDir(), 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		ckpts := checkpoint.NewStore(2)
		lns, addrs := listenLocal(t, 2)
		lns[1].Close()
		n, err := NewNode(NodeConfig{
			ID: 0, N: 2, Addrs: addrs, Listener: lns[0], Seed: 1, Resume: -1,
			Proto: core.New(core.Options{}), App: rewindApp{}, FS: fs,
			Rec: trace.NewRecorder(), Ckpts: ckpts,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		batch := make([]checkpoint.Record, 0, history)
		for seq := 1; seq <= history; seq++ {
			ckpts.Proc(0).Add(rec(seq))
			batch = append(batch, rec(seq))
		}
		if _, err := fs.FinalizeBatch(batch); err != nil {
			t.Fatal(err)
		}
		n.persisted = history
		least := ^uint64(0)
		for seq := history + 1; seq <= history+4; seq++ {
			ckpts.Proc(0).Add(rec(seq))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			finalized := n.persistFinalized()
			runtime.ReadMemStats(&after)
			if finalized != seq || n.persisted != seq || fs.LastSeq() != seq {
				t.Fatalf("flush of seq %d: finalized %d, persisted %d, on disk %d", seq, finalized, n.persisted, fs.LastSeq())
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	short, long := flushAlloc(16), flushAlloc(4096)
	if diff := int64(long) - int64(short); diff > 1<<10 || diff < -1<<10 {
		t.Fatalf("a flush allocated %d B over 16 records of history and %d B over 4096: want them within 1 KiB", short, long)
	}
}

var errInjected = &net.AddrError{Err: "injected", Addr: "fsstore"}

// failFirstSync is an fsstore fault hook: the next fsync fails, once.
func failFirstSync() func(op, path string) error {
	var failed atomic.Bool
	return func(op, _ string) error {
		if op == "sync" && failed.CompareAndSwap(false, true) {
			return errInjected
		}
		return nil
	}
}

// TestRecoverSurfacesFailedTruncation: the victim's own rollback — the
// TruncateAfter inside ResumeProtocol — fails at its fsync. Recover must
// return that error and not restart the victim above the line; the
// operator's retry then recovers.
func TestRecoverSurfacesFailedTruncation(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	const victim = 2
	var c *Cluster
	var killed atomic.Bool
	fault := failFirstSync()
	cfg := testClusterConfig(t.TempDir(), 29)
	cfg.Opt.Interval = 0 // no round: the survivors hold nothing durable, so the line is 0
	cfg.Workload.Steps = 100000
	cfg.Hook = func(src, dst int, f *wire.Frame, deliver func(*wire.Frame)) {
		// Between Kill and restart only the coordinator sends as the victim,
		// and by then Recover has reopened the store it will truncate.
		if src == victim && killed.Load() {
			c.FS(victim).SetFaultHook(fault)
		}
		deliver(f)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	waitFor(t, 10*time.Second, func() bool { return c.Counter("app_msgs") > 40 })
	c.Kill(victim)
	// A checkpoint only the victim has durable lies above any line.
	rec := checkpoint.Record{Tentative: checkpoint.Tentative{Proc: victim, Seq: 1}, FinalizedAt: 1}
	if err := c.FS(victim).Finalize(rec); err != nil {
		t.Fatal(err)
	}
	killed.Store(true)

	if _, err := c.Recover(victim); !errors.Is(err, errInjected) {
		t.Fatalf("Recover = %v, want the injected truncation failure", err)
	}
	if got := c.Counter("recovery.restarts"); got != 0 {
		t.Fatalf("after the failed recovery: %d restarts, want none", got)
	}
	line, err := c.Recover(victim)
	if err != nil || line != 0 {
		t.Fatalf("retried Recover = (line %d, %v), want line 0", line, err)
	}
	killed.Store(false)
	if got := c.FS(victim).Manifest().Seqs; len(got) != 0 {
		t.Fatalf("victim restarted at line 0 with %v on disk", got)
	}
}

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
