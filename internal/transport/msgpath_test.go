package transport

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ocsml/internal/checkpoint"
	"ocsml/internal/core"
	"ocsml/internal/des"
	"ocsml/internal/protocol"
	"ocsml/internal/reliable"
	"ocsml/internal/trace"
	"ocsml/internal/wire"
)

// ringApp forwards every message it receives to the next process: tokens
// circling a ring keep the message path at steady state without timers of
// the application's own. With a limit, a token stops once the ring has
// delivered that many messages.
type ringApp struct {
	id, n, tokens int
	delivered     *atomic.Int64
	limit         int64
}

func (a *ringApp) Start(ctx protocol.AppCtx) {
	for i := 0; i < a.tokens; i++ {
		ctx.Send((a.id+1)%a.n, protocol.AppMsg{Bytes: 64})
	}
}

func (a *ringApp) OnMessage(ctx protocol.AppCtx, _ int, _ protocol.AppMsg) {
	if d := a.delivered.Add(1); a.limit > 0 && d > a.limit-int64(a.tokens*a.n) {
		return
	}
	ctx.Send((a.id+1)%a.n, protocol.AppMsg{Bytes: 64})
}

// TestNodeMessagePathAllocs pins what a delivered application message costs
// the heap on the TCP runtime: four OCSML nodes pass tokens round a ring,
// and once the pools, heaps and maps have grown, the process's mallocs per
// delivered message are read over a window (best of 5). Neither side
// allocates: the sender reuses its envelope and piggyback snapshot, the
// receiver its pooled slot. With reliable on, the link block rides in the
// envelope, and the per-link queues and floors reuse their storage; on a
// one-way ring every acknowledgement is a standalone ACK, which allocates
// nothing either (DESIGN.md §15.1). Checkpointing is off (Interval 0), so
// no round's cost lands in the window.
func TestNodeMessagePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	for _, row := range []struct {
		name     string
		reliable bool
		budget   float64
	}{
		{"reliable", true, 0.5},
		{"bare", false, 0.5},
	} {
		t.Run(row.name, func(t *testing.T) {
			const n = 4
			var delivered atomic.Int64
			lns, addrs := listenLocal(t, n)
			rec := trace.NewRecorder()
			rec.SetEnabled(false) // as on a daemon: a recorder grows with the run
			ckpts := checkpoint.NewStore(n)
			nodes := make([]*Node, n)
			for i := range nodes {
				var proto protocol.Protocol = core.New(core.Options{})
				if row.reliable {
					proto = reliable.Wrap(proto, reliable.Options{})
				}
				var err error
				nodes[i], err = NewNode(NodeConfig{
					ID: i, N: n, Addrs: addrs, Listener: lns[i], Seed: 1, Resume: -1,
					Proto: proto, App: &ringApp{id: i, n: n, tokens: 16, delivered: &delivered},
					Rec: rec, Ckpts: ckpts,
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, nd := range nodes {
				nd.Start()
				defer nd.Close()
			}
			waitFor(t, 20*time.Second, func() bool { return delivered.Load() >= 20000 })

			perMsg := func() float64 {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				m0, d0 := ms.Mallocs, delivered.Load()
				waitFor(t, 20*time.Second, func() bool { return delivered.Load() >= d0+5000 })
				runtime.ReadMemStats(&ms)
				return float64(ms.Mallocs-m0) / float64(delivered.Load()-d0)
			}
			best := perMsg()
			for i := 1; i < 5; i++ {
				best = min(best, perMsg())
			}
			t.Logf("%.2f allocs per delivered app message", best)
			if best > row.budget {
				t.Errorf("%.2f allocs per delivered app message at best of 5, want <= %.1f", best, row.budget)
			}
		})
	}
}

// stallProto stalls its application from the start and records, for every
// application envelope, what OnDeliver saw and what AfterApp sees once the
// stall lifts. Loop-owned, apart from arrived.
type stallProto struct {
	env            protocol.Env
	arrived        atomic.Int64
	got, processed []string
}

func describe(e *protocol.Envelope) string {
	pb, _ := core.AsPiggyback(e.Payload)
	return fmt.Sprintf("%d/%d/%+v/csn%d/%v", e.Src, e.ID, e.App, pb.Csn, pb.TentSet)
}

func (p *stallProto) Name() string                  { return "stall" }
func (p *stallProto) Start(env protocol.Env)        { p.env = env; env.StallApp() }
func (p *stallProto) OnAppSend(*protocol.Envelope)  {}
func (p *stallProto) OnTimer(int, int)              {}
func (p *stallProto) Finish()                       {}
func (p *stallProto) BeforeApp(*protocol.Envelope)  {}
func (p *stallProto) AfterApp(e *protocol.Envelope) { p.processed = append(p.processed, describe(e)) }
func (p *stallProto) OnDeliver(e *protocol.Envelope) {
	p.got = append(p.got, describe(e))
	p.env.DeliverApp(e, p)
	p.arrived.Add(1)
}

// TestStalledDeliveryOwnsEnvelope: an envelope handed to OnDeliver lives in
// a receive slot the node reuses once OnDeliver returns; a delivery the
// stalled application defers must run on its own copy. Frames arrive while
// the application is stalled, then ResumeApp runs every deferred delivery:
// each must see its own source, id, message and tentSet.
func TestStalledDeliveryOwnsEnvelope(t *testing.T) {
	const frames = 64
	lns, addrs := listenLocal(t, 2)
	proto := &stallProto{}
	node, err := NewNode(NodeConfig{
		ID: 0, N: 2, Addrs: addrs, Listener: lns[0], Seed: 1, Resume: -1,
		Proto: proto, App: nopApp{},
		Rec: trace.NewRecorder(), Ckpts: checkpoint.NewStore(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := NewMesh(MeshConfig{ID: 1, Addrs: addrs, Seed: 1}, lns[1],
		func(int) func([]byte) { return func([]byte) {} })
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	peer.Start()
	defer node.Close()
	defer peer.Close()

	var want []string
	for k := 0; k < frames; k++ {
		set := protocol.NewProcSet(frames)
		set.Add(k)
		e := &protocol.Envelope{
			ID: int64(1000 + k), Src: 1, Dst: 0, Kind: protocol.KindApp, SentAt: 1,
			App:     protocol.AppMsg{Seq: int64(k + 1), Bytes: int64(k), Tag: uint64(7 * (k + 1))},
			Payload: core.Piggyback{Csn: k, Stat: core.Tentative, TentSet: set},
		}
		want = append(want, describe(e))
		frame, err := wire.Encode(e)
		if err != nil {
			t.Fatal(err)
		}
		peer.Send(0, wire.RawFrame(frame))
	}
	waitFor(t, 10*time.Second, func() bool { return proto.arrived.Load() == frames })

	type result struct{ deferred, got, processed []string }
	out := make(chan result, 1)
	node.Post(func() {
		deferred := append([]string(nil), proto.processed...)
		proto.env.ResumeApp()
		out <- result{deferred, proto.got, proto.processed}
	})
	r := <-out
	if len(r.deferred) != 0 {
		t.Fatalf("%d deliveries processed while the application was stalled", len(r.deferred))
	}
	if !reflect.DeepEqual(r.got, want) {
		t.Fatalf("OnDeliver saw\n%v\nwant\n%v", r.got, want)
	}
	if !reflect.DeepEqual(r.processed, want) {
		t.Fatalf("deferred deliveries saw\n%v\nwant each its own envelope\n%v", r.processed, want)
	}
}

// TestFrameSrcIsTheConnection: an envelope's sender is the process the
// connection's hello named, whatever the envelope a frame was encoded from
// claimed. A peer whose hello says P1 sends an envelope with Src 2, and the
// node delivers it as from P1.
func TestFrameSrcIsTheConnection(t *testing.T) {
	lns, addrs := listenLocal(t, 3)
	lns[2].Close() // P2 is down: the only connection into P0 is P1's
	proto := &stallProto{}
	node, err := NewNode(NodeConfig{
		ID: 0, N: 3, Addrs: addrs, Listener: lns[0], Seed: 1, Resume: -1,
		Proto: proto, App: nopApp{},
		Rec: trace.NewRecorder(), Ckpts: checkpoint.NewStore(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := NewMesh(MeshConfig{ID: 1, Addrs: addrs, Seed: 1}, lns[1],
		func(int) func([]byte) { return func([]byte) {} })
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	peer.Start()
	defer node.Close()
	defer peer.Close()

	e := &protocol.Envelope{
		ID: 1000, Src: 2, Dst: 0, Kind: protocol.KindApp,
		App:     protocol.AppMsg{Seq: 1, Bytes: 8, Tag: 7},
		Payload: core.Piggyback{Csn: 1, TentSet: protocol.NewProcSet(3)},
	}
	frame, err := wire.Encode(e)
	if err != nil {
		t.Fatal(err)
	}
	peer.Send(0, wire.RawFrame(frame))
	waitFor(t, 10*time.Second, func() bool { return proto.arrived.Load() == 1 })
	got := make(chan []string, 1)
	node.Post(func() { got <- proto.got })
	e.Src = 1
	if g, want := <-got, []string{describe(e)}; !reflect.DeepEqual(g, want) {
		t.Fatalf("delivered %v, want %v", g, want)
	}
}

// TestTimerHeapOrder: whatever the interleaving of pushes and pops, the
// heap behind Node.After hands entries out in deadline order, every one of
// them once.
func TestTimerHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h timerHeap
	pushed, popped := 0, 0
	last := des.Time(-1)
	for i := 0; i < 5000; i++ {
		if len(h) == 0 || rng.Intn(3) > 0 {
			at := last + 1 + des.Time(rng.Intn(1000))
			h.push(timerEntry{at: at})
			pushed++
			continue
		}
		e := h.pop()
		if e.at < last {
			t.Fatalf("pop %d: deadline %d after %d", popped, e.at, last)
		}
		last = e.at
		popped++
	}
	for len(h) > 0 {
		if e := h.pop(); e.at < last {
			t.Fatalf("drain: deadline %d after %d", e.at, last)
		} else {
			last = e.at
		}
		popped++
	}
	if popped != pushed {
		t.Fatalf("popped %d of %d entries", popped, pushed)
	}
}

// TestReliableStateFlat: on real sockets, what the reliable layer of a
// 4-node cluster retains once a ring of tokens has stopped is the same
// after 100,000 deliveries as after 1,000 — no per-delivery residue such
// as an ID-keyed dedup set. (The DES runs the same test in
// internal/reliable.)
func TestReliableStateFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	state := func(limit int64) int {
		const n = 4
		var delivered atomic.Int64
		lns, addrs := listenLocal(t, n)
		rec := trace.NewRecorder()
		rec.SetEnabled(false)
		ckpts := checkpoint.NewStore(n)
		nodes := make([]*Node, n)
		rels := make([]*reliable.Protocol, n)
		for i := range nodes {
			rels[i] = reliable.Wrap(core.New(core.Options{}), reliable.Options{})
			var err error
			nodes[i], err = NewNode(NodeConfig{
				ID: i, N: n, Addrs: addrs, Listener: lns[i], Seed: 1, Resume: -1,
				Proto: rels[i], App: &ringApp{id: i, n: n, tokens: 16, delivered: &delivered, limit: limit},
				Rec: rec, Ckpts: ckpts,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, nd := range nodes {
			nd.Start()
			defer nd.Close()
		}
		// Read on each node's loop, which owns the protocol.
		read := func(f func(*reliable.Protocol) int) int {
			total := 0
			for i, nd := range nodes {
				ch := make(chan int, 1)
				nd.Post(func() { ch <- f(rels[i]) })
				total += <-ch
			}
			return total
		}
		waitFor(t, 30*time.Second, func() bool {
			return delivered.Load() >= limit && read((*reliable.Protocol).PendingCount) == 0
		})
		return read((*reliable.Protocol).StateSize)
	}
	small, large := state(1000), state(100000)
	t.Logf("retained link state after 1,000 deliveries: %d; after 100,000: %d", small, large)
	if large > small {
		t.Fatalf("retained link state grew with deliveries: %d after 1,000, %d after 100,000", small, large)
	}
}
