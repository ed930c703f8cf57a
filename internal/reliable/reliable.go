// Package reliable provides a positive-acknowledgement retransmission
// middleware that wraps any checkpointing protocol so it runs correctly
// over lossy channels.
//
// The paper's system model assumes reliable (if arbitrarily slow and
// non-FIFO) channels; real deployments provide that with a transport
// layer exactly like this one. The wrapper:
//
//   - intercepts every envelope the inner protocol (or the application)
//     sends, and retransmits it with exponential backoff until the
//     destination acknowledges it;
//   - acknowledges and deduplicates on the receive path, so the inner
//     protocol sees each envelope exactly once, in possibly-reordered
//     order — precisely the paper's channel model.
//
// A retransmission sends a copy of the envelope as first transmitted (same
// ID, same piggyback): the piggybacked state is the state at first
// transmission, which is what the paper's correctness argument assumes of
// a channel that delivers late.
//
// The wrapper composes with live recovery on either driver when the inner
// protocol supports rollback: transport state is reset at the rollback,
// and the host's re-sends of the line's logged messages go through
// OnAppSend like any application send, so they are retransmitted until
// acknowledged too.
package reliable

import (
	"fmt"

	"ocsml/internal/des"
	"ocsml/internal/protocol"
)

// Options tunes the transport.
type Options struct {
	// RTO is the initial retransmission timeout.
	RTO des.Duration
	// MaxRTO caps the exponential backoff.
	MaxRTO des.Duration
}

// DefaultOptions suits the simulated LAN (sub-2ms delivery).
func DefaultOptions() Options {
	return Options{RTO: 20 * des.Millisecond, MaxRTO: 500 * des.Millisecond}
}

const (
	// timerKind is far above any inner protocol's timer kinds.
	timerKind = 1 << 20
	// AckTag is the control tag of transport acknowledgements.
	AckTag   = "ACK"
	ackBytes = 12
)

// Ack is the acknowledgement payload: the envelope id being confirmed.
// Exported so the real-network runtime (internal/wire) can serialize it.
type Ack struct {
	ID int64
}

// Own implements protocol.Owner for the decoder's view.
func (a *Ack) Own() any { return *a }

type pendingMsg struct {
	env     protocol.Envelope // a copy: the sender reuses its envelope
	rto     des.Duration
	retries int
}

// Protocol wraps an inner protocol with reliable delivery.
type Protocol struct {
	inner protocol.Protocol
	opt   Options
	env   protocol.Env // the engine's env

	pending map[int64]pendingMsg
	seen    map[int64]bool
	// ack is the envelope of every ACK and retransmission, reused: Env.Send
	// keeps nothing of it once it returns.
	ack protocol.Envelope
}

// Wrap builds the middleware around an inner protocol instance.
func Wrap(inner protocol.Protocol, opt Options) *Protocol {
	if opt.RTO <= 0 {
		opt = DefaultOptions()
	}
	if opt.MaxRTO < opt.RTO {
		opt.MaxRTO = opt.RTO * 16
	}
	return &Protocol{
		inner:   inner,
		opt:     opt,
		pending: map[int64]pendingMsg{},
		seen:    map[int64]bool{},
	}
}

// Factory wraps a protocol factory.
func Factory(inner func(i, n int) protocol.Protocol, opt Options) func(i, n int) protocol.Protocol {
	return func(i, n int) protocol.Protocol { return Wrap(inner(i, n), opt) }
}

var _ protocol.Protocol = (*Protocol)(nil)

// Name implements protocol.Protocol.
func (p *Protocol) Name() string { return p.inner.Name() + "+reliable" }

// Start implements protocol.Protocol: the inner protocol receives a
// wrapped Env whose Send/Broadcast route through the transport.
func (p *Protocol) Start(env protocol.Env) {
	p.env = env
	p.inner.Start(wrapEnv{Env: env, r: p})
}

// OnAppSend implements protocol.Protocol: the engine transmits the
// envelope itself right after this returns; the transport only has to
// track a copy for retransmission.
func (p *Protocol) OnAppSend(e *protocol.Envelope) {
	p.inner.OnAppSend(e)
	if e.ID == 0 {
		panic("reliable: application envelope without id")
	}
	p.track(e)
}

// OnDeliver implements protocol.Protocol: ack, dedupe, pass through.
func (p *Protocol) OnDeliver(e *protocol.Envelope) {
	if e.Kind == protocol.KindCtl && e.CtlTag == AckTag {
		// ACKs are the most numerous frames on the wire, so the zero-copy
		// decode path hands them out as *Ack views; accept both forms.
		switch a := e.Payload.(type) {
		case Ack:
			delete(p.pending, a.ID)
		case *Ack:
			delete(p.pending, a.ID)
		default:
			panic(fmt.Sprintf("reliable: ACK envelope with %T payload", e.Payload))
		}
		return
	}
	// Acknowledge every delivery, including duplicates — the earlier ACK
	// may itself have been lost.
	p.ack = protocol.Envelope{
		Dst: e.Src, Kind: protocol.KindCtl, CtlTag: AckTag,
		Bytes: ackBytes, Payload: Ack{ID: e.ID},
	}
	p.env.Send(&p.ack)
	if p.seen[e.ID] {
		p.env.Count("reliable.dup_dropped", 1)
		return
	}
	p.seen[e.ID] = true
	p.inner.OnDeliver(e)
}

// OnTimer implements protocol.Protocol: demultiplex transport timers from
// inner-protocol timers.
func (p *Protocol) OnTimer(kind, gen int) {
	if kind != timerKind {
		p.inner.OnTimer(kind, gen)
		return
	}
	p.retransmit(int64(gen))
}

// Finish implements protocol.Protocol.
func (p *Protocol) Finish() { p.inner.Finish() }

// Rollback implements protocol.Rewinder when the inner protocol does:
// transport state is volatile, so pending retransmissions are discarded
// (their timers died with the engine epoch; pre-failure envelopes are
// dropped at the epoch boundary) and the dedup set resets. A re-sent
// logged message the receiver's line already holds is dropped by the
// host's recovery filter (host.Resume), not here.
func (p *Protocol) Rollback(seq int) {
	rew, ok := p.inner.(protocol.Rewinder)
	if !ok {
		panic(fmt.Sprintf("reliable: inner protocol %q does not support rollback", p.inner.Name()))
	}
	p.pending = map[int64]pendingMsg{}
	p.seen = map[int64]bool{}
	rew.Rollback(seq)
}

// track registers a copy of an envelope for retransmission until
// acknowledged.
func (p *Protocol) track(e *protocol.Envelope) {
	p.pending[e.ID] = pendingMsg{env: *e, rto: p.opt.RTO}
	p.env.SetTimer(p.opt.RTO, timerKind, int(e.ID))
}

func (p *Protocol) retransmit(id int64) {
	pm, ok := p.pending[id]
	if !ok {
		return // acknowledged
	}
	pm.retries++
	pm.rto = min(2*pm.rto, p.opt.MaxRTO)
	p.pending[id] = pm
	p.env.Count("reliable.retransmits", 1)
	p.ack = pm.env
	p.env.Send(&p.ack)
	p.env.SetTimer(pm.rto, timerKind, int(id))
}

// Retries reports the retransmission count of an in-flight envelope
// (tests).
func (p *Protocol) Retries(id int64) int {
	if pm, ok := p.pending[id]; ok {
		return pm.retries
	}
	return 0
}

// PendingCount reports how many envelopes await acknowledgement (tests).
func (p *Protocol) PendingCount() int { return len(p.pending) }

// Inner exposes the wrapped protocol (tests).
func (p *Protocol) Inner() protocol.Protocol { return p.inner }

// wrapEnv intercepts the inner protocol's sends.
type wrapEnv struct {
	protocol.Env
	r *Protocol
}

// Send implements protocol.Env for the inner protocol: transmit through
// the engine, then track for retransmission.
func (w wrapEnv) Send(e *protocol.Envelope) {
	w.Env.Send(e) // assigns ID, traces, transmits
	if e.ID == 0 {
		panic(fmt.Sprintf("reliable: engine did not assign an id to %v", e))
	}
	w.r.track(e)
}

// Broadcast implements protocol.Env: per-destination copies, each tracked
// individually.
func (w wrapEnv) Broadcast(e *protocol.Envelope) {
	for dst := 0; dst < w.Env.N(); dst++ {
		if dst == w.Env.ID() {
			continue
		}
		cp := *e
		cp.ID = 0
		cp.Dst = dst
		w.Send(&cp)
	}
}
