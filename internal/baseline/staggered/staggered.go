// Package staggered implements a Vaidya-style staggered consistent
// checkpointing baseline [Vaidya 1999; Plank 1993], the closest prior
// work the paper discusses (§4): the consistent cut is established
// Chandy–Lamport style, but the *physical* stable-storage writes are
// serialized by a write token so no two processes ever write
// concurrently.
//
// Round structure (coordinator P0, period Interval):
//
//  1. P0 records its state in memory (logical checkpoint, the cut point)
//     and broadcasts ST_MARK; every process records in memory on first
//     mark; channel states are collected as in Chandy–Lamport.
//  2. Physical phase: P0 writes its in-memory snapshot to stable storage,
//     then passes ST_TOKEN to P1, which writes and passes it on; when the
//     token returns to P0 the round is committed.
//
// This trades the write burst for (a) an O(N · writeTime) serial tail
// before the global checkpoint is durable and (b) holding the in-memory
// snapshot longer — precisely the trade-offs the paper's own algorithm
// avoids by decoupling write times from the cut entirely.
package staggered

import (
	"fmt"

	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
)

// Options configures the baseline.
type Options struct {
	// Interval is the coordinator's round period.
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
	tagMark  = "ST_MARK"
	tagToken = "ST_TOKEN"
)

type ctl struct {
	round int
}

// Protocol is one process's staggered-checkpointing state machine.
//
// No piggyback: round-token coordination over control messages only; app
// messages carry no index.
type Protocol struct {
	env protocol.Env
	opt Options

	round      int
	recording  bool // between state record and last channel marker
	markerFrom []bool
	markersIn  int
	chanState  []checkpoint.LoggedMsg
	snap       protocol.Snapshot
	snapAt     des.Time
	written    bool     // physical write issued for current round
	writeEnd   des.Time // completion time of the physical write (0 = pending)
	complete   bool     // coordinator: write token returned, round over
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
func (p *Protocol) Name() string { return "staggered" }

// Start implements protocol.Protocol.
func (p *Protocol) Start(env protocol.Env) {
	p.env = env
	p.markerFrom = make([]bool, env.N())
	env.Checkpoints().Add(checkpoint.Record{
		Tentative: checkpoint.Tentative{Proc: env.ID(), Seq: 0},
		StableAt:  1,
	})
	if env.ID() == 0 {
		p.complete = true
		env.SetTimer(p.opt.Interval, protocol.TimerBasic, 0)
	}
}

// OnTimer implements protocol.Protocol. The coordinator starts a new
// round only when the write token from the previous round has returned —
// staggering serializes writes, so a too-short period skips rounds rather
// than overlapping them.
func (p *Protocol) OnTimer(kind, gen int) {
	if kind != protocol.TimerBasic || p.env.Draining() {
		return
	}
	if !p.recording && p.complete {
		p.complete = false
		p.beginRound(p.round + 1)
		// Coordinator starts the write chain immediately: its write is
		// first, then the token visits P1..PN-1.
		p.physicalWrite()
	} else {
		p.env.Count("round_skipped", 1)
	}
	p.env.SetTimer(p.opt.Interval, protocol.TimerBasic, 0)
}

// Finish implements protocol.Protocol.
func (p *Protocol) Finish() {}

func (p *Protocol) beginRound(round int) {
	if p.recording {
		panic(fmt.Sprintf("staggered: P%d round %d while %d active", p.env.ID(), round, p.round))
	}
	p.round = round
	p.recording = true
	p.markersIn = 0
	for i := range p.markerFrom {
		p.markerFrom[i] = false
	}
	p.chanState = nil
	p.written = false
	p.writeEnd = 0
	p.snap = p.env.Snapshot()
	p.snapAt = p.env.Now()
	p.env.Note(trace.KCheckpoint, round)
	p.env.Count("checkpoints", 1)
	p.env.Broadcast(&protocol.Envelope{
		Kind: protocol.KindCtl, CtlTag: tagMark, Bytes: 8,
		Payload: ctl{round: round},
	})
}

// physicalWrite flushes the in-memory snapshot; on completion the token
// moves to the next process.
func (p *Protocol) physicalWrite() {
	if p.written {
		panic(fmt.Sprintf("staggered: P%d double write in round %d", p.env.ID(), p.round))
	}
	p.written = true
	round := p.round
	id := p.env.ID()
	p.env.WriteStable("ckpt", p.snap.Bytes, func(start, end des.Time) {
		// The cut (record) may complete before or after this write; the
		// later of the two marks stability via writeEnd.
		p.writeEnd = end
		if !p.recording && p.round == round {
			p.env.Checkpoints().MarkStable(round, end)
		}
		// Forward the write token so the next process's physical write
		// starts only now — writes never overlap. The last process
		// returns the token to the coordinator, closing the round.
		next := id + 1
		if next == p.env.N() {
			next = 0
		}
		if next != id {
			p.env.Send(&protocol.Envelope{
				Dst: next, Kind: protocol.KindCtl, CtlTag: tagToken, Bytes: 8,
				Payload: ctl{round: round},
			})
		}
	})
}

// OnAppSend implements protocol.Protocol.
func (p *Protocol) OnAppSend(e *protocol.Envelope) {}

// OnDeliver implements protocol.Protocol.
func (p *Protocol) OnDeliver(e *protocol.Envelope) {
	if e.Kind == protocol.KindApp {
		if p.recording && !p.markerFrom[e.Src] {
			p.chanState = append(p.chanState, checkpoint.LoggedMsg{
				ID: e.ID, Src: e.Src, Dst: e.Dst, Dir: checkpoint.Received,
				Bytes: e.App.Bytes, Tag: e.App.Tag, AppSeq: e.App.Seq,
			})
		}
		p.env.DeliverApp(e, nil)
		return
	}
	m := e.Payload.(ctl)
	switch e.CtlTag {
	case tagMark:
		p.onMark(e.Src, m.round)
	case tagToken:
		if m.round != p.round {
			panic(fmt.Sprintf("staggered: P%d token round %d at %d", p.env.ID(), m.round, p.round))
		}
		if p.env.ID() == 0 {
			p.complete = true // token returned: round over
		} else {
			p.physicalWrite()
		}
	default:
		panic(fmt.Sprintf("staggered: unknown control tag %q", e.CtlTag))
	}
}

func (p *Protocol) onMark(src, round int) {
	switch {
	case round == p.round && p.recording:
		if p.markerFrom[src] {
			panic("staggered: duplicate mark")
		}
		p.markerFrom[src] = true
		p.markersIn++
		if p.markersIn == p.env.N()-1 {
			p.completeCut()
		}
	case round == p.round+1:
		p.beginRound(round)
		p.markerFrom[src] = true
		p.markersIn++
		if p.markersIn == p.env.N()-1 {
			p.completeCut()
		}
	default:
		panic(fmt.Sprintf("staggered: P%d mark round %d at round %d", p.env.ID(), round, p.round))
	}
}

// completeCut finishes the logical checkpoint (all channels recorded).
func (p *Protocol) completeCut() {
	p.recording = false
	rec := checkpoint.Record{
		Tentative: checkpoint.Tentative{
			Proc: p.env.ID(), Seq: p.round, TakenAt: p.snapAt,
			StateBytes: p.snap.Bytes, Fold: p.snap.Fold, Work: p.snap.Work,
		},
		Log:         p.chanState,
		FinalizedAt: p.env.Now(),
		CFEFold:     p.snap.Fold,
	}
	p.chanState = nil
	p.env.Checkpoints().Add(rec)
	if p.writeEnd > 0 {
		p.env.Checkpoints().MarkStable(p.round, p.writeEnd)
	}
}
