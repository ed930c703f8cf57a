// Package chandylamport implements the Chandy–Lamport distributed
// snapshot algorithm [Chandy & Lamport 1985], the classical coordinated
// baseline the paper compares against (via Plank's and Vaidya's staggered
// variants, §4).
//
// A coordinator (P0) periodically initiates a snapshot round: it records
// its state, writes it to stable storage synchronously, and sends a marker
// on every outgoing channel. On the first marker of a round every other
// process does the same; messages that arrive on a channel after the local
// state was recorded but before that channel's marker form the recorded
// channel state (kept in the checkpoint's Log).
//
// Two properties make it the contention-heavy baseline: it requires FIFO
// channels, and every process's synchronous stable-storage write happens
// within one network round-trip of the initiation — N near-simultaneous
// writes queue up at the file server.
package chandylamport

import (
	"fmt"

	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
)

// Options configures the baseline.
type Options struct {
	// Interval is the coordinator's snapshot period.
	Interval des.Duration
	// BlockingWrite selects a synchronous stable-storage write at state
	// record time (the classical behaviour). When false the write is
	// asynchronous, isolating the pure contention effect from blocking.
	BlockingWrite bool
}

// DefaultOptions matches the classical algorithm.
func DefaultOptions() Options {
	return Options{Interval: 30 * des.Second, BlockingWrite: true}
}

// Factory builds protocol instances.
func Factory(opt Options) func(i, n int) protocol.Protocol {
	return func(i, n int) protocol.Protocol { return New(opt) }
}

const tagMarker = "marker"

// marker is the control payload: the snapshot round number.
type marker struct {
	round int
}

// Protocol is one process's Chandy–Lamport state machine.
//
// No piggyback: marker-based coordination, consistency comes from FIFO
// channel markers, not per-message indices.
type Protocol struct {
	env protocol.Env
	opt Options

	round      int  // highest round participated in
	recording  bool // state recorded, collecting channel states
	markerFrom []bool
	markersIn  int
	chanState  []checkpoint.LoggedMsg
	snapAt     des.Time
	snapFold   uint64
	snapWork   int64
	snapBytes  int64
	// Per-round stable-write completion times: at large N the storage
	// queue can stretch past the next round, so bookkeeping must not
	// live in per-instance fields.
	stateEnd map[int]des.Time
	chanEnd  map[int]des.Time
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
func (p *Protocol) Name() string { return "chandy-lamport" }

// Start implements protocol.Protocol.
func (p *Protocol) Start(env protocol.Env) {
	p.env = env
	p.markerFrom = make([]bool, env.N())
	p.stateEnd = map[int]des.Time{}
	p.chanEnd = map[int]des.Time{}
	env.Checkpoints().Add(checkpoint.Record{
		Tentative: checkpoint.Tentative{Proc: env.ID(), Seq: 0},
		StableAt:  1,
	})
	if env.ID() == 0 {
		env.SetTimer(p.opt.Interval, protocol.TimerBasic, 0)
	}
}

// OnTimer implements protocol.Protocol: the coordinator's periodic
// initiation.
func (p *Protocol) OnTimer(kind, gen int) {
	if kind != protocol.TimerBasic {
		return
	}
	if !p.env.Draining() {
		if !p.recording {
			p.beginRound(p.round + 1)
		} else {
			p.env.Count("round_skipped", 1)
		}
		p.env.SetTimer(p.opt.Interval, protocol.TimerBasic, 0)
	}
}

// Finish implements protocol.Protocol.
func (p *Protocol) Finish() {}

// beginRound records local state and floods markers.
func (p *Protocol) beginRound(round int) {
	if p.recording {
		panic(fmt.Sprintf("chandylamport: P%d starting round %d while round %d active (interval too short)",
			p.env.ID(), round, p.round))
	}
	p.round = round
	p.recording = true
	p.markersIn = 0
	for i := range p.markerFrom {
		p.markerFrom[i] = false
	}
	p.chanState = nil

	snap := p.env.Snapshot()
	p.snapAt, p.snapFold, p.snapWork, p.snapBytes = p.env.Now(), snap.Fold, snap.Work, snap.Bytes
	p.env.Note(trace.KCheckpoint, round)
	p.env.Count("checkpoints", 1)

	write := p.env.WriteStable
	if p.opt.BlockingWrite {
		write = p.env.WriteStableBlocking
	}
	seq := round
	write("ckpt", snap.Bytes, func(start, end des.Time) {
		p.stateEnd[seq] = end
		p.maybeStable(seq)
	})

	p.env.Broadcast(&protocol.Envelope{
		Kind: protocol.KindCtl, CtlTag: tagMarker,
		Bytes: 8, Payload: marker{round: round},
	})
}

// OnAppSend implements protocol.Protocol: Chandy–Lamport piggybacks
// nothing on application messages.
func (p *Protocol) OnAppSend(e *protocol.Envelope) {}

// OnDeliver implements protocol.Protocol.
func (p *Protocol) OnDeliver(e *protocol.Envelope) {
	if e.Kind == protocol.KindCtl {
		m := e.Payload.(marker)
		p.onMarker(e.Src, m.round)
		return
	}
	// Application message: if we are recording and the marker has not
	// yet arrived on this channel, the message is part of the channel
	// state.
	if p.recording && !p.markerFrom[e.Src] {
		p.chanState = append(p.chanState, checkpoint.LoggedMsg{
			ID: e.ID, Src: e.Src, Dst: e.Dst, Dir: checkpoint.Received,
			Bytes: e.App.Bytes, Tag: e.App.Tag, AppSeq: e.App.Seq,
		})
	}
	p.env.DeliverApp(e, nil)
}

// onMarker implements the marker rule.
func (p *Protocol) onMarker(src, round int) {
	switch {
	case round == p.round && p.recording:
		// Subsequent marker: close this channel.
		if p.markerFrom[src] {
			panic(fmt.Sprintf("chandylamport: duplicate marker from P%d", src))
		}
		p.markerFrom[src] = true
		p.markersIn++
		if p.markersIn == p.env.N()-1 {
			p.completeRound()
		}
	case round == p.round+1:
		// First marker of a new round: record state, flood markers,
		// and the sending channel is already closed.
		p.beginRound(round)
		p.markerFrom[src] = true
		p.markersIn++
		if p.markersIn == p.env.N()-1 {
			p.completeRound()
		}
	case round <= p.round && !p.recording:
		// Marker for a round we already completed (slow channel after
		// our completion is impossible under FIFO — each peer sends one
		// marker per round and we counted N-1). Defensive.
		panic(fmt.Sprintf("chandylamport: P%d stale marker round %d (at %d)", p.env.ID(), round, p.round))
	default:
		panic(fmt.Sprintf("chandylamport: P%d marker round %d while at round %d (recording=%v)",
			p.env.ID(), round, p.round, p.recording))
	}
}

// completeRound closes the snapshot: all channels are recorded.
func (p *Protocol) completeRound() {
	p.recording = false
	rec := checkpoint.Record{
		Tentative: checkpoint.Tentative{
			Proc: p.env.ID(), Seq: p.round, TakenAt: p.snapAt,
			StateBytes: p.snapBytes, Fold: p.snapFold, Work: p.snapWork,
		},
		Log:         p.chanState,
		FinalizedAt: p.env.Now(),
		CFEFold:     p.snapFold, // the cut point IS the state record
	}
	p.chanState = nil
	seq := p.round
	store := p.env.Checkpoints()
	var chanBytes int64
	for i := range rec.Log {
		chanBytes += rec.Log[i].Bytes
	}
	store.Add(rec)
	// The channel state is appended to the checkpoint on stable storage;
	// the checkpoint is stable when both writes have landed.
	p.env.WriteStable("chanstate", chanBytes, func(start, end des.Time) {
		p.chanEnd[seq] = end
		p.maybeStable(seq)
	})
}

// maybeStable marks seq stable once both its state and channel-state
// writes have completed AND the round's record exists.
func (p *Protocol) maybeStable(seq int) {
	se, ok1 := p.stateEnd[seq]
	ce, ok2 := p.chanEnd[seq]
	if !ok1 || !ok2 {
		return
	}
	if ce > se {
		se = ce
	}
	p.env.Checkpoints().MarkStable(seq, se)
	delete(p.stateEnd, seq)
	delete(p.chanEnd, seq)
}
