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
	"slices"
	"strings"
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
	// stable reports whether seq 1 of process 0 is marked stable in the
	// checkpoint store (what MaxStableSeq counts).
	stable := func() bool {
		rec, _ := c.Ckpts.Proc(0).Get(1)
		return rec.StableAt != 0
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
			if stable() {
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
	// The failed seq was retried: the manifest starts at 1, with no gap.
	m := c.FS(0).Manifest()
	if !stable() || len(m.Seqs) == 0 || m.Seqs[0] != 1 {
		t.Fatalf("seq 1 after its retry: stable %v, manifest %v; want stable and manifested", stable(), m.Seqs)
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

// TestResumeRefusedKeepsTheStore: a resume at a line the store does not
// hold is refused before anything is truncated. The store holds [5..9]
// after a collection to 5 and a reopen; a resume at 3 must leave it so.
// (The refusal used to come after the truncation, which had emptied the
// store.)
func TestResumeRefusedKeepsTheStore(t *testing.T) {
	dir := t.TempDir()
	opts := fsstore.Options{SegmentMaxBytes: 1} // a segment per commit: GCTo unlinks
	fs, err := fsstore.OpenWith(dir, 0, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 9; seq++ {
		if err := fs.Finalize(checkpoint.Record{Tentative: checkpoint.Tentative{Proc: 0, Seq: seq}, FinalizedAt: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.GCTo(5); err != nil {
		t.Fatal(err)
	}
	reopen := func() []int {
		t.Helper()
		fs, err = fsstore.OpenWith(dir, 0, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		return fs.Manifest().Seqs
	}
	want := []int{5, 6, 7, 8, 9}
	if got := reopen(); !slices.Equal(got, want) {
		t.Fatalf("reopened after GCTo(5): %v, want %v", got, want)
	}
	_, err = ResumeProtocol(core.Options{}, false, fs, checkpoint.NewStore(2).Proc(0), 3)
	if err == nil || !strings.Contains(err.Error(), "no durable checkpoint at line 3") {
		t.Fatalf("ResumeProtocol at line 3 = %v, want a refusal", err)
	}
	if got := reopen(); !slices.Equal(got, want) {
		t.Fatalf("reopened after the refused resume: %v, want %v", got, want)
	}
}

// TestFreshStartOverAUsedStoreRefused: a fresh start over a store that
// already holds checkpoints is refused, naming the process, its last seq
// and its directory, and nothing is written: the process would otherwise
// take the old run's records for its own seqs. Recovery builds over the
// same store on purpose, and is not refused.
func TestFreshStartOverAUsedStoreRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	dir := t.TempDir()
	cfg := testClusterConfig(dir, 3)
	cfg.Workload.Steps = 100000
	old, err := fsstore.Open(dir, 2, cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 3; seq++ {
		if err := old.Finalize(checkpoint.Record{Tentative: checkpoint.Tentative{Proc: 2, Seq: seq}, FinalizedAt: 1}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(context.Background(), nil)
	if err == nil {
		t.Fatal("a fresh start over P2's used store ran")
	}
	for _, want := range []string{"P2", "seq 3", fsstore.ProcDir(dir, 2), "recovery", "empty datadir"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal %q does not name %q", err, want)
		}
	}
	if c.Counter("app_msgs") != 0 || c.FS(0).LastSeq() != -1 {
		t.Fatalf("the refused cluster ran: %d app messages, P0 durable to %d", c.Counter("app_msgs"), c.FS(0).LastSeq())
	}

	// The same store under a recovery, as ocsmld -recover runs it beside
	// live peers: P2 is restarted from it, and the line is 0, since no
	// other process holds a checkpoint.
	c, err = NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for _, p := range []int{0, 1, 3} {
		c.Node(p).Start()
	}
	if line, err := c.Recover(2); err != nil || line != 0 {
		t.Fatalf("Recover(2) over the used store = (line %d, %v), want line 0", line, err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start after the recovery: %v", err)
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
	for i := 0; i < storageQueueLen+100; i++ {
		n.WriteStable("ct", 1, nil)
	}
	if got := n.StorageQueueLen(); got < 0 || got > storageQueueLen {
		t.Fatalf("StorageQueueLen after %d post-shutdown writes = %d, want within [0,%d]",
			storageQueueLen+100, got, storageQueueLen)
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
