// Package reliable provides a positive-acknowledgement retransmission
// middleware that wraps any checkpointing protocol so it runs correctly
// over lossy channels.
//
// The paper's system model assumes reliable (if arbitrarily slow and
// non-FIFO) channels; real deployments provide that with a transport
// layer exactly like this one. The wrapper keeps, per peer, the two
// one-way links between this process and that peer (DESIGN.md §6):
//
//   - Send side: every envelope the inner protocol (or the application)
//     sends to the peer takes the link's next sequence number and joins
//     the link's seq-ordered retransmission queue; it is retransmitted
//     with exponential backoff until an acknowledgement covers it.
//   - Receive side: a floor (every seq at or below it arrived) plus the
//     set of arrivals above it, so the inner protocol sees each envelope
//     exactly once, in possibly-reordered order — precisely the paper's
//     channel model — and the state stays as small as the reordering.
//   - Acknowledgements ride on reverse traffic: every envelope to the
//     peer carries the floor of the link from it and a mask of the
//     arrivals just above (protocol.Link). Only when arrivals have waited
//     a delayed-ACK interval (a quarter of the RTO) with no envelope going
//     back does a standalone, payload-less ACK envelope go out.
//
// A retransmission sends a copy of the envelope as first transmitted (same
// ID, same piggyback, same link seq) under the current acknowledgement:
// the piggybacked state is the state at first transmission, which is what
// the paper's correctness argument assumes of a channel that delivers late.
//
// Link seqs and floors belong to one epoch: the wrapper's state resets at
// the rollback that starts a new one, and the host's epoch fence keeps an
// envelope of another epoch from reaching it (an older one is dropped, a
// newer one waits for the rollback), so a seq or floor is only ever
// compared with one of its own epoch. The wrapper composes with live
// recovery on either driver when the inner protocol supports rollback: the
// host's re-sends of the line's logged messages go through OnAppSend like
// any application send, so they are retransmitted until acknowledged too.
package reliable

import (
	"fmt"
	"math/bits"
	"slices"

	"ocsml/internal/des"
	"ocsml/internal/protocol"
)

// Options tunes the transport.
type Options struct {
	// RTO is the initial retransmission timeout. A quarter of it is the
	// delayed-ACK interval.
	RTO des.Duration
	// MaxRTO caps the exponential backoff.
	MaxRTO des.Duration
}

// DefaultOptions suits the simulated LAN (sub-2ms delivery).
func DefaultOptions() Options {
	return Options{RTO: 20 * des.Millisecond, MaxRTO: 500 * des.Millisecond}
}

const (
	// retransmitTimer and ackTimer are far above any inner protocol's
	// timer kinds.
	retransmitTimer = 1 << 20
	ackTimer        = retransmitTimer + 1
	// AckTag is the control tag of a standalone acknowledgement: an
	// envelope with no payload whose link block is all it carries.
	AckTag   = "ACK"
	ackBytes = 12
	// maxAbove bounds how far above its floor a link records an arrival.
	// One further out is dropped unacknowledged; its retransmission lands
	// once the floor has caught up.
	maxAbove = 1 << 16
)

type pendingMsg struct {
	env   protocol.Envelope // a copy: the sender reuses its envelope
	rto   des.Duration      // the timeout its retransmit timer runs for
	acked bool              // covered by an acknowledgement's mask, not yet by its floor
}

// link is this process's transport state towards one peer: the send side
// of the link to it and the receive side of the link from it.
type link struct {
	// sent is the last seq assigned on the link to the peer; q[head:]
	// holds seqs sent-len(q[head:])+1 .. sent, unacknowledged or acked
	// above the peer's floor.
	sent int64
	q    []pendingMsg
	head int

	// floor: every seq <= floor from the peer arrived; above: the seqs
	// above floor+1 that did too, ascending.
	floor int64
	above []int64
	// owed: arrivals since the last envelope to the peer, the first of
	// them at owedSince; ackArmed: a delayed-ACK timer is set.
	owed      bool
	owedSince des.Time
	ackArmed  bool
}

// Protocol wraps an inner protocol with reliable delivery.
type Protocol struct {
	inner protocol.Protocol
	opt   Options
	env   protocol.Env // the engine's env

	links []link // by peer id
	// out is the envelope of every ACK and retransmission, reused: Env.Send
	// keeps nothing of it once it returns.
	out protocol.Envelope
}

// Wrap builds the middleware around an inner protocol instance.
func Wrap(inner protocol.Protocol, opt Options) *Protocol {
	if opt.RTO <= 0 {
		opt = DefaultOptions()
	}
	if opt.MaxRTO < opt.RTO {
		opt.MaxRTO = opt.RTO * 16
	}
	return &Protocol{inner: inner, opt: opt}
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
	p.links = make([]link, env.N())
	p.inner.Start(wrapEnv{Env: env, r: p})
}

// OnAppSend implements protocol.Protocol: the engine transmits the
// envelope itself right after this returns; the transport stamps its link
// block and tracks a copy for retransmission.
func (p *Protocol) OnAppSend(e *protocol.Envelope) {
	p.inner.OnAppSend(e)
	if e.ID == 0 {
		panic("reliable: application envelope without id")
	}
	p.stamp(e)
	p.track(e)
}

// OnDeliver implements protocol.Protocol: take the acknowledgement the
// envelope carries, dedupe, pass through.
func (p *Protocol) OnDeliver(e *protocol.Envelope) {
	p.acked(e.Src, e.Link.Ack, e.Link.Mask)
	if e.Kind == protocol.KindCtl && e.CtlTag == AckTag {
		return
	}
	if e.Link.Seq == 0 {
		// Not sent by a reliable layer: nothing to acknowledge or dedupe.
		p.inner.OnDeliver(e)
		return
	}
	l := &p.links[e.Src]
	fresh, kept := l.arrive(e.Link.Seq)
	if !kept {
		return
	}
	// Acknowledge every arrival, duplicates included: a duplicate means
	// the acknowledgements covering it were lost or late.
	p.owe(e.Src, l)
	if !fresh {
		p.env.Count("reliable.dup_dropped", 1)
		return
	}
	p.inner.OnDeliver(e)
}

// OnTimer implements protocol.Protocol: demultiplex transport timers from
// inner-protocol timers.
func (p *Protocol) OnTimer(kind, gen int) {
	switch kind {
	case retransmitTimer:
		n := p.env.N()
		p.retransmit(gen%n, int64(gen/n))
	case ackTimer:
		p.ackDue(gen)
	default:
		p.inner.OnTimer(kind, gen)
	}
}

// Finish implements protocol.Protocol.
func (p *Protocol) Finish() { p.inner.Finish() }

// Rollback implements protocol.Rewinder when the inner protocol does:
// transport state is volatile and belongs to the epoch the rollback ends,
// so every link starts over at seq 1 with nothing pending or received
// (the old epoch's timers died with it; its envelopes are dropped at the
// host's epoch fence). A re-sent logged message the receiver's line
// already holds is dropped by the host's recovery filter (host.Restart),
// not here.
func (p *Protocol) Rollback(seq int) {
	rew, ok := p.inner.(protocol.Rewinder)
	if !ok {
		panic(fmt.Sprintf("reliable: inner protocol %q does not support rollback", p.inner.Name()))
	}
	for i := range p.links {
		l := &p.links[i]
		clear(l.q)
		*l = link{q: l.q[:0], above: l.above[:0]}
	}
	rew.Rollback(seq)
}

// stamp gives e the next seq of its link and the current acknowledgement
// of the reverse link.
func (p *Protocol) stamp(e *protocol.Envelope) {
	l := &p.links[e.Dst]
	l.sent++
	e.Link.Seq = l.sent
	p.ackOn(e, l)
}

// ackOn puts the reverse link's acknowledgement on e, which is about to
// go to the peer: nothing received from it is owed any more.
func (p *Protocol) ackOn(e *protocol.Envelope, l *link) {
	e.Link.Ack, e.Link.Mask = l.floor, 0
	for _, seq := range l.above {
		i := seq - l.floor - 2
		if i >= 64 {
			break
		}
		e.Link.Mask |= 1 << i
	}
	l.owed = false
}

// track registers a copy of a stamped envelope for retransmission until
// acknowledged. The queue reuses its storage: a full queue first slides
// its live entries down over the acknowledged ones.
func (p *Protocol) track(e *protocol.Envelope) {
	l := &p.links[e.Dst]
	if len(l.q) == cap(l.q) && l.head > 0 {
		k := copy(l.q, l.q[l.head:])
		clear(l.q[k:])
		l.q, l.head = l.q[:k], 0
	}
	l.q = append(l.q, pendingMsg{env: *e, rto: p.opt.RTO})
	p.env.SetTimer(p.opt.RTO, retransmitTimer, int(e.Link.Seq)*p.env.N()+e.Dst)
}

// first is the seq of the queue's head entry (sent+1 when it is empty).
func (l *link) first() int64 { return l.sent - int64(len(l.q)-l.head) + 1 }

// pending returns the queue entry of seq on the link to the peer, or nil
// when an acknowledgement already covered it.
func (l *link) pending(seq int64) *pendingMsg {
	if seq < l.first() || seq > l.sent {
		return nil
	}
	pm := &l.q[l.head+int(seq-l.first())]
	if pm.acked {
		return nil
	}
	return pm
}

// acked applies an acknowledgement from peer: every seq <= floor, and
// each seq floor+2+i with bit i set in mask, arrived. An acknowledgement
// beyond what the link ever sent is ignored.
func (p *Protocol) acked(peer int, floor int64, mask uint64) {
	l := &p.links[peer]
	if floor > l.sent {
		return
	}
	for m := mask; m != 0; m &= m - 1 {
		if pm := l.pending(floor + 2 + int64(bits.TrailingZeros64(m))); pm != nil {
			pm.acked = true
			pm.env = protocol.Envelope{} // release the payload now
		}
	}
	for l.head < len(l.q) && (l.first() <= floor || l.q[l.head].acked) {
		l.q[l.head] = pendingMsg{}
		l.head++
	}
	if l.head == len(l.q) {
		l.q, l.head = l.q[:0], 0
	}
}

func (p *Protocol) retransmit(peer int, seq int64) {
	l := &p.links[peer]
	pm := l.pending(seq)
	if pm == nil {
		return // acknowledged
	}
	pm.rto = min(2*pm.rto, p.opt.MaxRTO)
	p.env.Count("reliable.retransmits", 1)
	p.out = pm.env
	p.ackOn(&p.out, l)
	p.env.Send(&p.out)
	p.env.SetTimer(pm.rto, retransmitTimer, int(seq)*p.env.N()+peer)
}

// owe records that the link from peer holds an arrival no envelope to
// peer has acknowledged yet, and makes sure a delayed-ACK timer runs.
func (p *Protocol) owe(peer int, l *link) {
	if !l.owed {
		l.owed, l.owedSince = true, p.env.Now()
	}
	if !l.ackArmed {
		l.ackArmed = true
		p.env.SetTimer(p.ackDelay(), ackTimer, peer)
	}
}

// ackDue runs the delayed-ACK timer of the link from peer: when arrivals
// are still owed a delayed-ACK interval after the first of them, no
// envelope went back in that time and a standalone ACK goes out; when they
// are owed for less (an envelope went back, then more arrived), the timer
// waits out the rest.
func (p *Protocol) ackDue(peer int) {
	l := &p.links[peer]
	l.ackArmed = false
	if !l.owed {
		return
	}
	if wait := des.Duration(l.owedSince) + p.ackDelay() - des.Duration(p.env.Now()); wait > 0 {
		l.ackArmed = true
		p.env.SetTimer(wait, ackTimer, peer)
		return
	}
	p.out = protocol.Envelope{Dst: peer, Kind: protocol.KindCtl, CtlTag: AckTag, Bytes: ackBytes}
	p.ackOn(&p.out, l)
	p.env.Send(&p.out)
}

// ackDelay is the delayed-ACK interval: long enough for reverse traffic
// to carry most acknowledgements, short enough that one reaches the
// sender well inside its RTO.
func (p *Protocol) ackDelay() des.Duration { return p.opt.RTO / 4 }

// arrive records the arrival of seq on the link: fresh when it had not
// arrived before, kept unless it lies beyond the window above the floor.
func (l *link) arrive(seq int64) (fresh, kept bool) {
	if seq-l.floor > maxAbove {
		return false, false
	}
	i, found := slices.BinarySearch(l.above, seq)
	if seq <= l.floor || found {
		return false, true
	}
	if seq > l.floor+1 {
		l.above = slices.Insert(l.above, i, seq)
		return true, true
	}
	l.floor = seq
	k := 0
	for k < len(l.above) && l.above[k] == l.floor+1 {
		l.floor++
		k++
	}
	l.above = l.above[:copy(l.above, l.above[k:])]
	return true, true
}

// PendingCount reports how many envelopes await acknowledgement (tests).
func (p *Protocol) PendingCount() int {
	n := 0
	for i := range p.links {
		for _, pm := range p.links[i].q[p.links[i].head:] {
			if !pm.acked {
				n++
			}
		}
	}
	return n
}

// StateSize reports what the links retain: queued envelopes (acknowledged
// ones not yet popped included) plus arrivals above the floor (tests: it
// must not grow with the number of deliveries).
func (p *Protocol) StateSize() int {
	n := 0
	for i := range p.links {
		l := &p.links[i]
		n += len(l.q) - l.head + len(l.above)
	}
	return n
}

// Inner exposes the wrapped protocol (tests).
func (p *Protocol) Inner() protocol.Protocol { return p.inner }

// wrapEnv intercepts the inner protocol's sends.
type wrapEnv struct {
	protocol.Env
	r *Protocol
}

// Send implements protocol.Env for the inner protocol: stamp, transmit
// through the engine, then track for retransmission.
func (w wrapEnv) Send(e *protocol.Envelope) {
	w.r.stamp(e)
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
