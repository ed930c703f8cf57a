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
	if w.PendingCount() != 0 || w.Retries(42) != 0 {
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
