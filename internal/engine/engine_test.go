package engine

import (
	"testing"

	"ocsml/internal/baseline/nop"
	"ocsml/internal/des"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
	"ocsml/internal/workload"
)

func smallCfg(seed int64) Config {
	cfg := DefaultConfig()
	cfg.N = 4
	cfg.Seed = seed
	cfg.Drain = des.Second
	cfg.StateBytes = 1 << 20
	cfg.CopyCost = 0
	return cfg
}

func smallWorkload() workload.Config {
	w := workload.DefaultConfig()
	w.Steps = 50
	w.Think = des.Millisecond
	return w
}

func TestRunCompletes(t *testing.T) {
	c := New(smallCfg(1), nop.Factory(), workload.Factory(smallWorkload()))
	r := c.Run()
	if !r.Completed {
		t.Fatal("run did not complete")
	}
	if r.Makespan <= 0 || r.End < r.Makespan {
		t.Fatalf("times: makespan=%v end=%v", r.Makespan, r.End)
	}
	// Each process performs 50 send-steps; receives add more work.
	if r.TotalWork < 4*50 {
		t.Fatalf("TotalWork = %d", r.TotalWork)
	}
	if r.AppMsgs != 4*50 {
		t.Fatalf("AppMsgs = %d, want 200", r.AppMsgs)
	}
	if r.CtlMsgs != 0 {
		t.Fatalf("nop protocol sent %d control messages", r.CtlMsgs)
	}
	if r.ProtoName != "none" {
		t.Fatalf("ProtoName = %q", r.ProtoName)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		return New(smallCfg(42), nop.Factory(), workload.Factory(smallWorkload())).Run()
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan {
		t.Fatalf("makespans differ: %v vs %v", a.Makespan, b.Makespan)
	}
	for i := range a.Folds {
		if a.Folds[i] != b.Folds[i] {
			t.Fatalf("fold %d differs", i)
		}
	}
	if a.Trace.Len() != b.Trace.Len() {
		t.Fatal("trace lengths differ")
	}
	c := New(smallCfg(43), nop.Factory(), workload.Factory(smallWorkload())).Run()
	if c.Makespan == a.Makespan && c.Folds[0] == a.Folds[0] {
		t.Fatal("different seeds gave identical results (suspicious)")
	}
}

func TestSendReceiveTraced(t *testing.T) {
	r := New(smallCfg(7), nop.Factory(), workload.Factory(smallWorkload())).Run()
	sends := r.Trace.CountKind(trace.KSend)
	recvs := r.Trace.CountKind(trace.KRecv)
	if int64(sends) != r.AppMsgs {
		t.Fatalf("sends traced %d, AppMsgs %d", sends, r.AppMsgs)
	}
	if recvs != sends {
		t.Fatalf("recvs %d != sends %d (all messages should arrive)", recvs, sends)
	}
}

// stallProto stalls the app for a long window at start; the makespan must
// grow accordingly versus nop.
type stallProto struct {
	env protocol.Env
	d   des.Duration
}

func (p *stallProto) Name() string                 { return "stall" }
func (p *stallProto) Start(env protocol.Env)       { p.env = env; env.StallAppFor(p.d) }
func (p *stallProto) OnAppSend(*protocol.Envelope) {}
func (p *stallProto) OnDeliver(e *protocol.Envelope) {
	if e.IsApp() {
		p.env.DeliverApp(e, nil)
	}
}
func (p *stallProto) OnTimer(kind, gen int) {}
func (p *stallProto) Finish()               {}

func TestStallInflatesMakespan(t *testing.T) {
	base := New(smallCfg(5), nop.Factory(), workload.Factory(smallWorkload())).Run()
	stall := des.Duration(2 * des.Second)
	slow := New(smallCfg(5), func(int, int) protocol.Protocol {
		return &stallProto{d: stall}
	}, workload.Factory(smallWorkload())).Run()
	if slow.Makespan < base.Makespan+stall/2 {
		t.Fatalf("stall did not inflate makespan: base=%v slow=%v", base.Makespan, slow.Makespan)
	}
	if slow.StalledSeconds.Sum() < 4*1.9 {
		t.Fatalf("stalled seconds = %v, want ~8", slow.StalledSeconds.Sum())
	}
}

func TestDeferredDeliveryPreservesMessages(t *testing.T) {
	// With stalls, messages arriving during the stall must still be
	// processed (deferred), not lost: recvs == sends.
	r := New(smallCfg(5), func(int, int) protocol.Protocol {
		return &stallProto{d: 500 * des.Millisecond}
	}, workload.Factory(smallWorkload())).Run()
	if got, want := r.Trace.CountKind(trace.KRecv), r.Trace.CountKind(trace.KSend); got != want {
		t.Fatalf("recvs %d != sends %d", got, want)
	}
}

// writerProto issues one blocking stable write per process at start.
type writerProto struct {
	env  protocol.Env
	done bool
}

func (p *writerProto) Name() string { return "writer" }
func (p *writerProto) Start(env protocol.Env) {
	p.env = env
	env.WriteStableBlocking("ckpt", 1<<20, func(start, end des.Time) { p.done = true })
}
func (p *writerProto) OnAppSend(*protocol.Envelope) {}
func (p *writerProto) OnDeliver(e *protocol.Envelope) {
	if e.IsApp() {
		p.env.DeliverApp(e, nil)
	}
}
func (p *writerProto) OnTimer(kind, gen int) {}
func (p *writerProto) Finish()               {}

func TestBlockingWritesContendAtStorage(t *testing.T) {
	r := New(smallCfg(3), func(int, int) protocol.Protocol {
		return &writerProto{}
	}, workload.Factory(smallWorkload())).Run()
	// All 4 processes write 1 MiB at t=0 → peak queue 4, nonzero waits.
	if r.Storage.PeakQueue() != 4 {
		t.Fatalf("PeakQueue = %d, want 4", r.Storage.PeakQueue())
	}
	if r.Storage.MeanWait() <= 0 {
		t.Fatal("expected queueing delay at storage")
	}
	if r.Storage.WriteCount.Value() != 4 {
		t.Fatalf("writes = %d", r.Storage.WriteCount.Value())
	}
}

func TestLocalStorageRemovesQueueing(t *testing.T) {
	cfg := smallCfg(3)
	cfg.LocalStorage = true
	r := New(cfg, func(int, int) protocol.Protocol {
		return &writerProto{}
	}, workload.Factory(smallWorkload())).Run()
	// Four processes write 1 MiB each at t=0, but to four separate
	// disks: no server ever sees more than one write.
	if got := r.StoragePeakAll(); got != 1 {
		t.Fatalf("StoragePeakAll = %d, want 1", got)
	}
	if got := r.StorageMeanWaitAll(); got != 0 {
		t.Fatalf("StorageMeanWaitAll = %v, want 0", got)
	}
	if len(r.Stores) != 4 {
		t.Fatalf("Stores = %d, want 4", len(r.Stores))
	}
	var writes int64
	for _, s := range r.Stores {
		writes += s.WriteCount.Value()
	}
	if writes != 4 {
		t.Fatalf("total writes = %d", writes)
	}
}

// broadcastProto broadcasts one control message at start.
type broadcastProto struct{ env protocol.Env }

func (p *broadcastProto) Name() string { return "bcast" }
func (p *broadcastProto) Start(env protocol.Env) {
	p.env = env
	if env.ID() == 0 {
		env.Broadcast(&protocol.Envelope{Kind: protocol.KindCtl, CtlTag: "HELLO", Bytes: 4})
	}
}
func (p *broadcastProto) OnAppSend(*protocol.Envelope) {}
func (p *broadcastProto) OnDeliver(e *protocol.Envelope) {
	if e.IsApp() {
		p.env.DeliverApp(e, nil)
		return
	}
	p.env.Count("hello."+e.CtlTag, 1)
}
func (p *broadcastProto) OnTimer(kind, gen int) {}
func (p *broadcastProto) Finish()               {}

func TestBroadcastReachesEveryPeer(t *testing.T) {
	r := New(smallCfg(1), func(int, int) protocol.Protocol {
		return &broadcastProto{}
	}, workload.Factory(smallWorkload())).Run()
	if got := r.Counter("hello.HELLO"); got != 3 {
		t.Fatalf("broadcast delivered %d, want 3", got)
	}
	if got := r.Counter("ctl.HELLO"); got != 3 {
		t.Fatalf("broadcast counted %d sends, want 3", got)
	}
}

func TestScriptedWorkload(t *testing.T) {
	plans := map[int][]workload.ScriptedSend{
		0: {{At: 10 * des.Millisecond, Dst: 1, Bytes: 100}},
		1: {{At: 30 * des.Millisecond, Dst: 0, Bytes: 100}},
	}
	cfg := smallCfg(1)
	cfg.N = 2
	r := New(cfg, nop.Factory(), workload.ScriptedFactory(plans)).Run()
	if r.AppMsgs != 2 {
		t.Fatalf("AppMsgs = %d", r.AppMsgs)
	}
	if !r.Completed {
		t.Fatal("scripted run should complete")
	}
}

func TestHorizonAbortsRun(t *testing.T) {
	cfg := smallCfg(1)
	cfg.MaxTime = 20 * des.Millisecond
	w := smallWorkload()
	w.Steps = 100000
	w.Think = des.Millisecond
	r := New(cfg, nop.Factory(), workload.Factory(w)).Run()
	if r.Completed {
		t.Fatal("run should have been cut off by MaxTime")
	}
	if r.End > cfg.MaxTime {
		t.Fatalf("End = %v beyond horizon", r.End)
	}
}

func TestCountersAndCounterNames(t *testing.T) {
	r := New(smallCfg(1), nop.Factory(), workload.Factory(smallWorkload())).Run()
	if len(r.CounterNames()) != 0 {
		t.Fatalf("nop should produce no counters, got %v", r.CounterNames())
	}
	if r.Counter("missing") != 0 {
		t.Fatal("missing counter should read 0")
	}
}

func TestTooFewProcessesPanics(t *testing.T) {
	cfg := smallCfg(1)
	cfg.N = 1
	defer func() {
		if recover() == nil {
			t.Fatal("N=1 should panic")
		}
	}()
	New(cfg, nop.Factory(), workload.Factory(smallWorkload()))
}

func TestWorkloadPatternsComplete(t *testing.T) {
	for _, p := range []workload.Pattern{
		workload.UniformRandom, workload.Ring, workload.ClientServer,
		workload.Mesh, workload.Bursty,
	} {
		w := smallWorkload()
		w.Pattern = p
		w.ServerReplies = true
		w.BurstLen = 10
		w.BurstIdle = 20 * des.Millisecond
		cfg := smallCfg(11)
		cfg.N = 6
		r := New(cfg, nop.Factory(), workload.Factory(w)).Run()
		if !r.Completed {
			t.Fatalf("pattern %v did not complete", p)
		}
		if r.AppMsgs == 0 {
			t.Fatalf("pattern %v sent no messages", p)
		}
	}
}
