// Package kootoueg implements a Koo–Toueg-style synchronous (blocking)
// coordinated checkpointing baseline [Koo & Toueg 1987], the class the
// paper criticizes in §1: "Some or all processes may have to block their
// computations for checkpointing, which may degrade the system
// performance", and all stable-storage writes pile up concurrently.
//
// A coordinator (P0) runs a two-phase commit per round:
//
//	phase 1  KT_REQ → every process blocks its application, records a
//	         tentative state, and replies KT_ACK;
//	phase 2  KT_COMMIT → every process writes its state to stable
//	         storage (synchronously) and only then resumes.
//
// Simplification vs. the original: Koo–Toueg checkpoints only the
// processes in the initiator's dependency closure; under the evaluated
// all-to-all workloads the closure is (almost always) everyone, so this
// implementation always includes all processes. The blocking window and
// write burst — the properties compared in the experiments — are
// unaffected.
//
// The cut is consistent by construction: between recording its state and
// resuming, a process sends no application messages, so no message can be
// received inside the cut that was sent after its sender's cut.
package kootoueg

import (
	"fmt"

	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
)

// Options configures the baseline.
type Options struct {
	// Interval is the coordinator's checkpoint period.
	Interval des.Duration
}

// DefaultOptions returns a 30s period.
func DefaultOptions() Options { return Options{Interval: 30 * des.Second} }

// Factory builds protocol instances.
func Factory(opt Options) func(i, n int) protocol.Protocol {
	return func(i, n int) protocol.Protocol { return New(opt) }
}

// Control tags.
const (
	tagReq    = "KT_REQ"
	tagAck    = "KT_ACK"
	tagCommit = "KT_COMMIT"
	tagDone   = "KT_DONE"
)

type ctl struct {
	round int
}

// Protocol is one process's Koo–Toueg state machine.
//
// No piggyback: two-phase coordination over control messages only; app
// messages carry no index.
type Protocol struct {
	env protocol.Env
	opt Options

	round   int
	blocked bool
	snap    protocol.Snapshot
	snapAt  des.Time

	// Coordinator state.
	acks     int
	dones    int
	complete bool // previous round fully committed cluster-wide
}

// New returns a fresh instance.
func New(opt Options) *Protocol {
	if opt.Interval <= 0 {
		opt.Interval = 30 * des.Second
	}
	return &Protocol{opt: opt}
}

var _ protocol.Protocol = (*Protocol)(nil)

// Name implements protocol.Protocol.
func (p *Protocol) Name() string { return "koo-toueg" }

// Start implements protocol.Protocol.
func (p *Protocol) Start(env protocol.Env) {
	p.env = env
	env.Checkpoints().Add(checkpoint.Record{
		Tentative: checkpoint.Tentative{Proc: env.ID(), Seq: 0},
		StableAt:  1,
	})
	if env.ID() == 0 {
		p.complete = true
		env.SetTimer(p.opt.Interval, protocol.TimerBasic, 0)
	}
}

// OnTimer implements protocol.Protocol. A new round starts only when the
// previous one has fully committed on every process (KT_DONE collected);
// otherwise the scheduled checkpoint is skipped — a blocking protocol
// cannot keep a too-short period.
func (p *Protocol) OnTimer(kind, gen int) {
	if kind != protocol.TimerBasic || p.env.Draining() {
		return
	}
	if !p.blocked && p.complete {
		p.beginRound()
	} else {
		p.env.Count("round_skipped", 1)
	}
	p.env.SetTimer(p.opt.Interval, protocol.TimerBasic, 0)
}

// Finish implements protocol.Protocol.
func (p *Protocol) Finish() {}

func (p *Protocol) beginRound() {
	p.acks = 0
	p.dones = 0
	p.complete = false
	p.takeTentative(p.round + 1)
	p.env.Broadcast(&protocol.Envelope{
		Kind: protocol.KindCtl, CtlTag: tagReq, Bytes: 8,
		Payload: ctl{round: p.round},
	})
}

// takeTentative blocks the application and records the state.
func (p *Protocol) takeTentative(round int) {
	if p.blocked {
		panic(fmt.Sprintf("kootoueg: P%d re-entering round %d (interval too short)", p.env.ID(), round))
	}
	p.round = round
	p.blocked = true
	p.env.StallApp() // phase-1 blocking starts
	p.snap = p.env.Snapshot()
	p.snapAt = p.env.Now()
	p.env.Note(trace.KCheckpoint, round)
	p.env.Count("checkpoints", 1)
}

// commit writes the tentative state to stable storage and resumes the
// application when the write completes (synchronous write).
func (p *Protocol) commit(round int) {
	if !p.blocked || p.round != round {
		panic(fmt.Sprintf("kootoueg: P%d commit for round %d in wrong state", p.env.ID(), round))
	}
	snap, snapAt := p.snap, p.snapAt
	store := p.env.Checkpoints()
	rec := checkpoint.Record{
		Tentative: checkpoint.Tentative{
			Proc: p.env.ID(), Seq: round, TakenAt: snapAt,
			StateBytes: snap.Bytes, Fold: snap.Fold, Work: snap.Work,
		},
		FinalizedAt: p.env.Now(),
		CFEFold:     snap.Fold,
	}
	store.Add(rec)
	p.env.WriteStable("ckpt", snap.Bytes, func(start, end des.Time) {
		store.MarkStable(round, end)
		p.blocked = false
		p.env.ResumeApp() // blocking ends only after the write lands
		if p.env.ID() == 0 {
			p.noteDone()
		} else {
			p.env.Send(&protocol.Envelope{
				Dst: 0, Kind: protocol.KindCtl, CtlTag: tagDone, Bytes: 8,
				Payload: ctl{round: round},
			})
		}
	})
}

// noteDone is coordinator bookkeeping: the round is over when all N
// commits (including its own) have landed on stable storage.
func (p *Protocol) noteDone() {
	p.dones++
	if p.dones == p.env.N() {
		p.complete = true
	}
}

// OnAppSend implements protocol.Protocol: no piggyback. (The application
// cannot send while blocked, so nothing else is needed.)
func (p *Protocol) OnAppSend(e *protocol.Envelope) {}

// OnDeliver implements protocol.Protocol.
func (p *Protocol) OnDeliver(e *protocol.Envelope) {
	if e.Kind == protocol.KindApp {
		p.env.DeliverApp(e, nil)
		return
	}
	m := e.Payload.(ctl)
	switch e.CtlTag {
	case tagReq:
		if m.round != p.round+1 {
			panic(fmt.Sprintf("kootoueg: P%d REQ round %d at round %d", p.env.ID(), m.round, p.round))
		}
		p.takeTentative(m.round)
		p.env.Send(&protocol.Envelope{
			Dst: 0, Kind: protocol.KindCtl, CtlTag: tagAck, Bytes: 8,
			Payload: ctl{round: m.round},
		})
	case tagAck:
		if p.env.ID() != 0 || m.round != p.round {
			panic("kootoueg: unexpected ACK")
		}
		p.acks++
		if p.acks == p.env.N()-1 {
			p.env.Broadcast(&protocol.Envelope{
				Kind: protocol.KindCtl, CtlTag: tagCommit, Bytes: 8,
				Payload: ctl{round: m.round},
			})
			p.commit(m.round)
		}
	case tagCommit:
		p.commit(m.round)
	case tagDone:
		if p.env.ID() != 0 {
			panic("kootoueg: DONE at non-coordinator")
		}
		p.noteDone()
	default:
		panic(fmt.Sprintf("kootoueg: unknown control tag %q", e.CtlTag))
	}
}
