package reliable_test

import (
	"fmt"
	"testing"

	"ocsml/internal/baseline/nop"
	"ocsml/internal/core"
	"ocsml/internal/des"
	"ocsml/internal/engine"
	"ocsml/internal/host/hosttest"
	"ocsml/internal/protocol"
	"ocsml/internal/reliable"
	"ocsml/internal/trace"
	"ocsml/internal/workload"
)

func lossyCfg(seed int64, drop float64) engine.Config {
	cfg := engine.DefaultConfig()
	cfg.N = 5
	cfg.Seed = seed
	cfg.DropRate = drop
	cfg.StateBytes = 1 << 20
	cfg.CopyCost = 0
	cfg.Drain = 10 * des.Second
	return cfg
}

func uniformWl(steps int64) engine.AppFactory {
	return workload.Factory(workload.Config{
		Pattern: workload.UniformRandom, Steps: steps,
		Think: 10 * des.Millisecond, MsgBytes: 512,
	})
}

func TestLossyNetworkLosesMessagesWithoutTransport(t *testing.T) {
	r := engine.New(lossyCfg(1, 0.2), nop.Factory(), uniformWl(300)).Run()
	sends := r.Trace.CountKind(trace.KSend)
	recvs := r.Trace.CountKind(trace.KRecv)
	if recvs >= sends {
		t.Fatalf("expected loss: sends=%d recvs=%d", sends, recvs)
	}
	if r.Net.Dropped.Value() == 0 {
		t.Fatal("network recorded no drops")
	}
}

func TestReliableDeliversEverythingUnderLoss(t *testing.T) {
	for _, drop := range []float64{0.05, 0.2, 0.4} {
		drop := drop
		t.Run(fmt.Sprintf("drop%.2f", drop), func(t *testing.T) {
			r := engine.New(lossyCfg(2, drop),
				reliable.Factory(nop.Factory(), reliable.DefaultOptions()),
				uniformWl(300)).Run()
			if !r.Completed {
				t.Fatal("did not complete")
			}
			sends := r.Trace.CountKind(trace.KSend)
			recvs := r.Trace.CountKind(trace.KRecv)
			if sends != recvs {
				t.Fatalf("reliable transport lost messages: sends=%d recvs=%d", sends, recvs)
			}
			if r.Counter("reliable.retransmits") == 0 {
				t.Fatal("no retransmissions under loss (suspicious)")
			}
		})
	}
}

func TestReliableNoLossNoRetransmitsByDeadline(t *testing.T) {
	// On a loss-free network the transport should stay almost silent:
	// only ACK overhead, no (or negligible) retransmissions.
	r := engine.New(lossyCfg(3, 0),
		reliable.Factory(nop.Factory(), reliable.DefaultOptions()),
		uniformWl(200)).Run()
	if got := r.Counter("reliable.retransmits"); got != 0 {
		t.Fatalf("retransmits = %d on a perfect network", got)
	}
	if got := r.Counter("reliable.dup_dropped"); got != 0 {
		t.Fatalf("dups = %d on a perfect network", got)
	}
	if r.Counter("ctl.ACK") == 0 {
		t.Fatal("no ACKs recorded")
	}
}

func TestOCSMLOverLossyChannels(t *testing.T) {
	// The headline integration: the paper's protocol, whose correctness
	// assumes reliable channels, runs unmodified over a 15%-loss network
	// through the transport middleware — and every global checkpoint is
	// still consistent with exact replay.
	opt := core.DefaultOptions()
	opt.Interval = des.Second
	opt.Timeout = 400 * des.Millisecond
	protos := make([]*core.Protocol, 5)
	pf := reliable.Factory(func(i, n int) protocol.Protocol {
		protos[i] = core.New(opt)
		return protos[i]
	}, reliable.DefaultOptions())

	r := engine.New(lossyCfg(4, 0.15), pf, uniformWl(400)).Run()
	if !r.Completed {
		t.Fatal("did not complete")
	}
	if r.Counter("reliable.retransmits") == 0 {
		t.Fatal("expected retransmissions at 15% loss")
	}
	seqs, err := r.CheckAllGlobals()
	if err != nil {
		t.Fatalf("consistency under loss: %v", err)
	}
	if len(seqs) < 2 {
		t.Fatalf("too few globals: %v", seqs)
	}
	for p := 0; p < 5; p++ {
		if protos[p].Status() != core.Normal {
			t.Fatalf("P%d stranded under loss", p)
		}
		for _, rec := range r.Ckpts.Proc(p).All() {
			if !rec.Replays() {
				t.Fatalf("replay mismatch P%d seq %d under loss", p, rec.Seq)
			}
		}
	}
}

func TestLossTransportAndFailureCompose(t *testing.T) {
	// The full stack: 20% packet loss + ack/retransmit transport + a
	// mid-run crash with live rollback recovery. Everything must still
	// complete with consistent checkpoints.
	opt := core.DefaultOptions()
	opt.Interval = des.Second
	opt.Timeout = 400 * des.Millisecond
	pf := reliable.Factory(core.Factory(opt), reliable.DefaultOptions())
	cfg := lossyCfg(8, 0.2)
	cfg.N = 6
	c := engine.New(cfg, pf, uniformWl(600))
	c.InjectFailure(engine.FailurePlan{At: 2500 * des.Millisecond, Proc: 4})
	r := c.Run()
	if !r.Completed {
		t.Fatal("did not complete")
	}
	if r.Counter("recovery.recoveries") != 1 {
		t.Fatal("recovery did not run")
	}
	if r.Counter("reliable.retransmits") == 0 {
		t.Fatal("no retransmits at 20% loss")
	}
	if _, err := r.CheckAllGlobals(); err != nil {
		t.Fatalf("consistency under loss+failure: %v", err)
	}
	line := int(r.Counter("recovery.line_seq"))
	if r.Ckpts.MaxCompleteSeq() <= line {
		t.Fatal("no post-recovery checkpoints")
	}
}

func TestWrapperRollbackRequiresRewindableInner(t *testing.T) {
	w := reliable.Wrap(nop.Factory()(0, 2), reliable.Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("Rollback over non-rewindable inner should panic")
		}
	}()
	w.Rollback(1)
}

func TestWrapperBookkeeping(t *testing.T) {
	inner := nop.Factory()(0, 2)
	w := reliable.Wrap(inner, reliable.Options{})
	if w.Name() != "none+reliable" {
		t.Fatalf("Name = %q", w.Name())
	}
	if w.Inner() != inner {
		t.Fatal("Inner lost")
	}
	if w.PendingCount() != 0 || w.StateSize() != 0 {
		t.Fatal("fresh wrapper should be empty")
	}
}

// TestRetransmitSendsFirstTransmission: the host reuses one envelope for
// every application send, and the inner protocol's state moves on between
// sends. A retransmission must still carry what the first transmission
// did: its ID and its piggyback.
func TestRetransmitSendsFirstTransmission(t *testing.T) {
	w := reliable.Wrap(core.New(core.Options{}), reliable.Options{})
	env := hosttest.New(0, 3, w)
	var out protocol.Envelope // the host's reused send envelope
	send := func(id int64) {
		out = protocol.Envelope{ID: id, Dst: 1, Kind: protocol.KindApp, App: protocol.AppMsg{Seq: id}}
		w.OnAppSend(&out)
		env.Host.Send(&out)
	}
	send(1)
	w.Inner().(*core.Protocol).Initiate() // csn 0 normal -> csn 1 tentative
	send(2)
	env.Sim.RunUntil(reliable.DefaultOptions().RTO)
	var resent []*protocol.Envelope
	for _, e := range env.Sent[2:] {
		if e.ID == 1 {
			resent = append(resent, e)
		}
	}
	if len(resent) != 1 {
		t.Fatalf("message 1 retransmitted %d times by one RTO, want once", len(resent))
	}
	pb, ok := core.AsPiggyback(resent[0].Payload)
	if !ok || pb.Csn != 0 || pb.Stat != core.Normal || !pb.TentSet.Empty() || resent[0].App.Seq != 1 {
		t.Fatalf("retransmission of message 1 carries seq %d, csn %d, %v, %v; want seq 1, csn 0, normal, {}",
			resent[0].App.Seq, pb.Csn, pb.Stat, pb.TentSet)
	}
}

func TestInvalidDropRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DropRate=1 should panic")
		}
	}()
	cfg := lossyCfg(1, 0)
	cfg.DropRate = 1.0
	engine.New(cfg, nop.Factory(), uniformWl(10))
}

// wrapAll builds reliable-wrapped instances of inner and keeps them.
func wrapAll(inner func(i, n int) protocol.Protocol, ws *[]*reliable.Protocol) engine.ProtoFactory {
	return func(i, n int) protocol.Protocol {
		w := reliable.Wrap(inner(i, n), reliable.DefaultOptions())
		*ws = append(*ws, w)
		return w
	}
}

// TestReliableStateFlat: what the transport retains is bounded by what is
// in flight, not by how much was ever delivered. A run of 100,000
// deliveries leaves every process's links no larger than a run of 1,000
// does (an ID-keyed dedup set grows by one entry per delivery).
func TestReliableStateFlat(t *testing.T) {
	state := func(perProc int64) (maxState int, msgs int) {
		var ws []*reliable.Protocol
		cfg := lossyCfg(5, 0)
		cfg.N = 4
		cfg.TraceEnabled = false
		r := engine.New(cfg, wrapAll(nop.Factory(), &ws), workload.Factory(workload.Config{
			Pattern: workload.UniformRandom, Steps: perProc, Think: des.Millisecond, MsgBytes: 64,
		})).Run()
		if !r.Completed {
			t.Fatal("did not complete")
		}
		for _, w := range ws {
			maxState = max(maxState, w.StateSize())
		}
		return maxState, int(r.AppMsgs)
	}
	small, n1 := state(250)
	large, n2 := state(25000)
	t.Logf("retained link state after %d deliveries: %d; after %d: %d", n1, small, n2, large)
	if n2 < 100000 {
		t.Fatalf("the large run delivered %d messages, want >= 100000", n2)
	}
	if large > small {
		t.Fatalf("retained link state grew with deliveries: %d after %d, %d after %d", small, n1, large, n2)
	}
}

// TestOneWayRingDelayedAcks: on a ring no application message ever goes
// back to its sender, so every acknowledgement is a standalone ACK after
// the delayed-ACK interval. On a loss-free network they arrive well inside
// the RTO: nothing is retransmitted, and the run ends with nothing pending.
func TestOneWayRingDelayedAcks(t *testing.T) {
	var ws []*reliable.Protocol
	cfg := lossyCfg(6, 0)
	r := engine.New(cfg, wrapAll(nop.Factory(), &ws), workload.Factory(workload.Config{
		Pattern: workload.Ring, Steps: 400, Think: 10 * des.Millisecond, MsgBytes: 64,
	})).Run()
	if !r.Completed {
		t.Fatal("did not complete")
	}
	if got := r.Counter("reliable.retransmits"); got != 0 {
		t.Fatalf("%d retransmissions on a loss-free one-way ring", got)
	}
	if r.Counter("ctl.ACK") == 0 {
		t.Fatal("no standalone ACK: nothing else can acknowledge a one-way ring")
	}
	for i, w := range ws {
		if n := w.PendingCount(); n != 0 {
			t.Fatalf("P%d ends with %d envelope(s) unacknowledged", i, n)
		}
	}
}

// countingProto records, per envelope ID, how often the inner protocol
// was handed it, and what it sent; on delivery it reports arrivals that
// overtook an earlier seq of their link.
type countingProto struct {
	protocol.Protocol
	sent      map[int64]bool
	got       map[int64]int
	maxSeq    map[int]int64
	reordered int
}

type countingEnv struct {
	protocol.Env
	p *countingProto
}

func (e countingEnv) Send(env *protocol.Envelope) {
	e.Env.Send(env)
	e.p.sent[env.ID] = true
}

func (e countingEnv) Broadcast(env *protocol.Envelope) {
	for dst := 0; dst < e.N(); dst++ {
		if dst != e.ID() {
			cp := *env
			cp.ID, cp.Dst = 0, dst
			e.Send(&cp)
		}
	}
}

func (p *countingProto) Start(env protocol.Env) { p.Protocol.Start(countingEnv{env, p}) }

func (p *countingProto) OnAppSend(e *protocol.Envelope) {
	p.Protocol.OnAppSend(e)
	p.sent[e.ID] = true
}

func (p *countingProto) OnDeliver(e *protocol.Envelope) {
	p.got[e.ID]++
	if e.Link.Seq < p.maxSeq[e.Src] {
		p.reordered++
	}
	p.maxSeq[e.Src] = max(p.maxSeq[e.Src], e.Link.Seq)
	p.Protocol.OnDeliver(e)
}

// TestExactlyOnceUnderLossAndReordering is the channel property the paper
// assumes (§2.1), over a network that drops 30% of all frames, data and
// acknowledgements alike, and reorders what it delivers: on every seed,
// every envelope the inner protocol sent — application messages and the
// protocol's own control messages — reaches its destination's inner
// protocol exactly once.
func TestExactlyOnceUnderLossAndReordering(t *testing.T) {
	opt := core.DefaultOptions()
	opt.Interval = des.Second
	opt.Timeout = 400 * des.Millisecond
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			var ps []*countingProto
			var ws []*reliable.Protocol
			pf := wrapAll(func(i, n int) protocol.Protocol {
				p := &countingProto{Protocol: core.New(opt), sent: map[int64]bool{}, got: map[int64]int{}, maxSeq: map[int]int64{}}
				ps = append(ps, p)
				return p
			}, &ws)
			r := engine.New(lossyCfg(seed, 0.3), pf, uniformWl(300)).Run()
			if !r.Completed {
				t.Fatal("did not complete")
			}
			sent, reordered := 0, 0
			got := map[int64]int{}
			for _, p := range ps {
				sent += len(p.sent)
				reordered += p.reordered
				for id, n := range p.got {
					got[id] += n
				}
			}
			for _, p := range ps {
				for id := range p.sent {
					if got[id] != 1 {
						t.Fatalf("envelope %d reached the inner protocol %d times, want once", id, got[id])
					}
				}
			}
			if len(got) != sent {
				t.Fatalf("%d envelopes delivered, %d sent", len(got), sent)
			}
			if reordered == 0 || r.Counter("reliable.retransmits") == 0 {
				t.Fatalf("reordered %d, retransmitted %d: the run exercised neither", reordered, r.Counter("reliable.retransmits"))
			}
			for i, w := range ws {
				if n := w.PendingCount(); n != 0 {
					t.Fatalf("P%d ends with %d envelope(s) unacknowledged", i, n)
				}
			}
		})
	}
}
