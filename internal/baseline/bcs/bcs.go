// Package bcs implements the Briatico–Ciuffoletti–Simoncini index-based
// communication-induced checkpointing (CIC) baseline — the
// quasi-synchronous class the paper belongs to and improves upon. Every
// process takes periodic basic checkpoints with an increasing index and
// piggybacks the index on every message; receiving a message with a higher
// index FORCES a checkpoint with that index BEFORE the message may be
// processed.
//
// Checkpoints with equal index form a consistent global checkpoint, but
// the costs are exactly the drawbacks the paper lists (§1):
//
//   - forced checkpoints delay message processing (the state must be
//     recorded — and conservatively flushed — before the receive);
//   - communication patterns can induce many extra checkpoints;
//   - many processes checkpoint at nearly the same time, contending for
//     storage.
//
// When a process's index jumps (a forced checkpoint skips indices), the
// single recorded state stands for every skipped index: alias records with
// zero additional storage are emitted so every S_k is complete.
package bcs

import (
	"fmt"

	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
)

// Options configures the baseline.
type Options struct {
	// Interval is the basic checkpoint period per process.
	Interval des.Duration
	// BlockingForced makes the forced checkpoint's storage write
	// synchronous (the conservative classical reading: the message is
	// processed only after the checkpoint is durable). When false, only
	// the in-memory state copy delays processing and the write is
	// asynchronous.
	BlockingForced bool
}

// DefaultOptions returns a 30s basic period with synchronous forced
// writes.
func DefaultOptions() Options {
	return Options{Interval: 30 * des.Second, BlockingForced: true}
}

// Factory builds protocol instances.
func Factory(opt Options) func(i, n int) protocol.Protocol {
	return func(i, n int) protocol.Protocol { return New(opt) }
}

// piggyback carries the sender's checkpoint index.
type piggyback struct {
	csn int
}

const piggyBytes = 4

// Protocol is one process's BCS state machine.
type Protocol struct {
	env protocol.Env
	opt Options
	csn int
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
func (p *Protocol) Name() string { return "bcs-cic" }

// Start implements protocol.Protocol.
func (p *Protocol) Start(env protocol.Env) {
	p.env = env
	env.Checkpoints().Add(checkpoint.Record{
		Tentative: checkpoint.Tentative{Proc: env.ID(), Seq: 0},
		StableAt:  1,
	})
	first := p.opt.Interval + des.Duration(env.Rand().Int63n(int64(p.opt.Interval/20)+1))
	env.SetTimer(first, protocol.TimerBasic, 0)
}

// OnTimer implements protocol.Protocol: periodic basic checkpoints.
func (p *Protocol) OnTimer(kind, gen int) {
	if kind != protocol.TimerBasic || p.env.Draining() {
		return
	}
	p.takeCheckpoint(p.csn+1, trace.KCheckpoint, false)
	p.env.SetTimer(p.opt.Interval, protocol.TimerBasic, 0)
}

// Finish implements protocol.Protocol.
func (p *Protocol) Finish() {}

// takeCheckpoint records the state under index `to`, emitting alias
// records for any skipped indices. Forced checkpoints may block.
func (p *Protocol) takeCheckpoint(to int, kind trace.Kind, blocking bool) {
	if to <= p.csn {
		panic(fmt.Sprintf("bcs: P%d checkpoint index %d not above %d", p.env.ID(), to, p.csn))
	}
	snap := p.env.Snapshot()
	now := p.env.Now()
	store := p.env.Checkpoints()
	for seq := p.csn + 1; seq <= to; seq++ {
		rec := checkpoint.Record{
			Tentative: checkpoint.Tentative{
				Proc: p.env.ID(), Seq: seq, TakenAt: now,
				Fold: snap.Fold, Work: snap.Work,
			},
			FinalizedAt: now,
			CFEFold:     snap.Fold,
		}
		if seq == to {
			rec.StateBytes = snap.Bytes // aliases carry no extra bytes
		} else {
			p.env.Count("alias", 1)
		}
		store.Add(rec)
		p.env.Note(kind, seq)
	}
	p.csn = to
	p.env.Count("checkpoints", 1)
	if kind == trace.KForced {
		p.env.Count("forced", 1)
	}
	seq := to
	write := p.env.WriteStable
	if blocking {
		write = p.env.WriteStableBlocking
	}
	write("ckpt", snap.Bytes, func(start, end des.Time) {
		store.MarkStable(seq, end)
		// Aliased (skipped) indices share this write: mark them too.
		for s := seq - 1; s > 0; s-- {
			r, ok := store.Get(s)
			if !ok || r.StateBytes != 0 || r.StableAt > 0 {
				break
			}
			store.MarkStable(s, end)
		}
	})
}

// OnAppSend implements protocol.Protocol: piggyback the index.
func (p *Protocol) OnAppSend(e *protocol.Envelope) {
	e.Payload = piggyback{csn: p.csn}
	e.Bytes += piggyBytes
}

// OnDeliver implements protocol.Protocol: the CIC rule — force a
// checkpoint BEFORE processing any message carrying a higher index.
func (p *Protocol) OnDeliver(e *protocol.Envelope) {
	if e.Kind != protocol.KindApp {
		panic("bcs: unexpected control message")
	}
	pb := e.Payload.(piggyback)
	if pb.csn > p.csn {
		p.takeCheckpoint(pb.csn, trace.KForced, p.opt.BlockingForced)
	}
	p.env.DeliverApp(e, nil)
}
