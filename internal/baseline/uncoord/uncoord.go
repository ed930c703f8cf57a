// Package uncoord implements fully asynchronous (uncoordinated)
// checkpointing: every process checkpoints independently on its own timer
// with no piggybacking and no coordination whatsoever. It is the cheapest
// protocol during failure-free execution and the baseline that exhibits
// the domino effect during recovery (paper §1) — harness.Domino
// quantifies the rollback it causes.
package uncoord

import (
	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
)

// Options configures the baseline.
type Options struct {
	// Interval is the per-process checkpoint period; processes are
	// deliberately unsynchronized (full-interval random phase).
	Interval des.Duration
}

// DefaultOptions returns a 30s period.
func DefaultOptions() Options { return Options{Interval: 30 * des.Second} }

// Factory builds protocol instances.
func Factory(opt Options) func(i, n int) protocol.Protocol {
	return func(i, n int) protocol.Protocol { return New(opt) }
}

// Protocol is one process's uncoordinated checkpointer.
//
// No piggyback: uncoordinated baseline, independent checkpoints, no
// inter-process metadata.
type Protocol struct {
	env protocol.Env
	opt Options
	seq int
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
func (p *Protocol) Name() string { return "uncoordinated" }

// Start implements protocol.Protocol.
func (p *Protocol) Start(env protocol.Env) {
	p.env = env
	env.Checkpoints().Add(checkpoint.Record{
		Tentative: checkpoint.Tentative{Proc: env.ID(), Seq: 0},
		StableAt:  1,
	})
	first := des.Duration(env.Rand().Int63n(int64(p.opt.Interval))) + p.opt.Interval/10
	env.SetTimer(first, protocol.TimerBasic, 0)
}

// OnTimer implements protocol.Protocol.
func (p *Protocol) OnTimer(kind, gen int) {
	if kind != protocol.TimerBasic || p.env.Draining() {
		return
	}
	p.seq++
	seq := p.seq
	snap := p.env.Snapshot()
	now := p.env.Now()
	store := p.env.Checkpoints()
	store.Add(checkpoint.Record{
		Tentative: checkpoint.Tentative{
			Proc: p.env.ID(), Seq: seq, TakenAt: now,
			StateBytes: snap.Bytes, Fold: snap.Fold, Work: snap.Work,
		},
		FinalizedAt: now,
		CFEFold:     snap.Fold,
	})
	p.env.Note(trace.KCheckpoint, seq)
	p.env.Count("checkpoints", 1)
	p.env.WriteStable("ckpt", snap.Bytes, func(start, end des.Time) {
		store.MarkStable(seq, end)
	})
	p.env.SetTimer(p.opt.Interval, protocol.TimerBasic, 0)
}

// Finish implements protocol.Protocol.
func (p *Protocol) Finish() {}

// Note: no Rollback — uncoordinated checkpoints do not form consistent
// same-sequence lines, so the engine's coordinated live recovery must not
// be used with this protocol (use the offline harness.Domino analysis).

// OnAppSend implements protocol.Protocol: nothing is piggybacked.
func (p *Protocol) OnAppSend(e *protocol.Envelope) {}

// OnDeliver implements protocol.Protocol.
func (p *Protocol) OnDeliver(e *protocol.Envelope) {
	p.env.DeliverApp(e, nil)
}
