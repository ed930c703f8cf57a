package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"ocsml/internal/protocol"
	"ocsml/internal/wire"
)

// spanKind names a stage boundary the traced run records.
type spanKind uint8

const (
	spAppSend spanKind = iota
	spOnAppSend
	spEncode
	spTransit
	spOnDeliver
	spOnDeliverCtl
	spAppOnMessage
	spOnTimer
	spTentToFinal
	spFinalToDurable
	spReopen
	spHandshake
	spRestart
	spFirstDelivery
)

var spanNames = [...]string{
	spAppSend: "app.send", spOnAppSend: "core.on_app_send", spEncode: "wire.encode",
	spTransit: "mesh.transit", spOnDeliver: "core.on_deliver", spOnDeliverCtl: "core.on_deliver_ctl",
	spAppOnMessage: "app.on_message", spOnTimer: "core.on_timer",
	spTentToFinal: "tentative", spFinalToDurable: "finalized",
	spReopen: "reopen", spHandshake: "handshake", spRestart: "truncate+reload", spFirstDelivery: "first delivery",
}

// span is one timed interval. Spans of one message share the envelope id
// as Trace; checkpoint spans use the sequence number, recovery spans the
// cycle. Parent indexes the slice the span lives in (-1: a root).
type span struct {
	Kind       spanKind
	Trace      int64
	Start, End int64 // ns since the cluster's time base
	Parent     int32
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns, per span, its duration minus the part its direct
// children cover. Children run on the parent's goroutine, one after the
// other, so their durations add; a child is clipped to its parent.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		start, end := max(s.Start, p.Start), min(s.End, p.End)
		if end > start {
			self[s.Parent] -= end - start
		}
	}
	return self
}

type idAt struct {
	id int64
	at int64
}

// maxCaptured bounds the envelopes one process keeps for the codec
// replay; the first ones of the traced window are as good as any.
const maxCaptured = 50000

// probe is the traced run's recorder on one process. Everything in it is
// touched only from that node's loop goroutine (the protocol decorator,
// the application and the node's own sends all run there) until the
// cluster has stopped.
type probe struct {
	base  time.Time
	spans []span
	stack []int32

	// curID/encStart hand the envelope in flight from OnAppSend to the
	// frame hook that fires next on the same goroutine.
	curID, encStart int64
	// delivering is the id of the envelope OnDeliver is processing.
	delivering int64

	sendUs   []sample // AppCtx.Send entered → frame hook, µs
	hooked   []idAt   // app frame left the node (post-encode, pre-queue)
	arrived  []idAt   // app envelope entered OnDeliver
	captured []protocol.Envelope
}

func (p *probe) now() int64 { return int64(time.Since(p.base)) }

// top is the innermost open span, or -1.
func (p *probe) top() int32 {
	if n := len(p.stack); n > 0 {
		return p.stack[n-1]
	}
	return -1
}

// begin opens a span under the innermost open one.
func (p *probe) begin(k spanKind, trace, now int64) int32 {
	i := int32(len(p.spans))
	p.spans = append(p.spans, span{Kind: k, Trace: trace, Start: now, Parent: p.top()})
	p.stack = append(p.stack, i)
	return i
}

// end closes the innermost open span, which must be i.
func (p *probe) end(i int32, now int64) {
	p.spans[i].End = now
	p.stack = p.stack[:len(p.stack)-1]
}

// timed decorates a protocol with spans around every callback. Inner lets
// Node.TriggerCheckpoint and the status snapshot unwrap it, exactly as
// they unwrap the reliable middleware.
type timed struct {
	inner protocol.Protocol
	p     *probe
}

var _ protocol.Protocol = (*timed)(nil)

func (t *timed) Inner() protocol.Protocol { return t.inner }
func (t *timed) Name() string             { return t.inner.Name() }
func (t *timed) Start(env protocol.Env)   { t.inner.Start(env) }
func (t *timed) Finish()                  { t.inner.Finish() }

func (t *timed) OnAppSend(e *protocol.Envelope) {
	p := t.p
	i := p.begin(spOnAppSend, e.ID, p.now())
	t.inner.OnAppSend(e)
	now := p.now()
	p.end(i, now)
	if parent := p.spans[i].Parent; parent >= 0 {
		p.spans[parent].Trace = e.ID // the enclosing app.send learns its id
	}
	p.curID, p.encStart = e.ID, now
}

func (t *timed) OnDeliver(e *protocol.Envelope) {
	p := t.p
	now := p.now()
	kind := spOnDeliverCtl
	if e.IsApp() {
		kind = spOnDeliver
		p.arrived = append(p.arrived, idAt{e.ID, now})
	}
	if len(p.captured) < maxCaptured {
		p.captured = append(p.captured, *e)
	}
	p.delivering = e.ID
	i := p.begin(kind, e.ID, now)
	t.inner.OnDeliver(e)
	p.end(i, p.now())
}

func (t *timed) OnTimer(kind, gen int) {
	p := t.p
	i := p.begin(spOnTimer, 0, p.now())
	t.inner.OnTimer(kind, gen)
	p.end(i, p.now())
}

// sendHook is the transport.SendHook of a traced cluster: it runs on the
// sending node's loop right after the frame is encoded and before it is
// queued for the peer, which closes wire.encode and opens mesh.transit
// for the application envelope OnAppSend just saw. Acks, control frames
// and retransmissions pass through untimed.
func (c *cluster) sendHook(src, dst int, f *wire.Frame, deliver func(*wire.Frame)) {
	p := c.probes[src]
	if p.curID != 0 {
		now, parent := p.now(), p.top()
		p.spans = append(p.spans, span{Kind: spEncode, Trace: p.curID, Start: p.encStart, End: now, Parent: parent})
		if parent >= 0 {
			p.sendUs = append(p.sendUs, sample{now, float64(now-p.spans[parent].Start) / 1e3})
		}
		p.hooked = append(p.hooked, idAt{p.curID, now})
		p.curID = 0
	}
	deliver(f)
}

// transitSpans joins every probe's hook and arrival stamps by envelope id
// into mesh.transit spans (first arrival wins: a retransmitted duplicate
// is the reliable layer's business, not the path's).
func transitSpans(probes []*probe) []span {
	left := map[int64]int64{}
	for _, p := range probes {
		for _, h := range p.hooked {
			left[h.id] = h.at
		}
	}
	var out []span
	for _, p := range probes {
		for _, a := range p.arrived {
			if t, ok := left[a.id]; ok {
				out = append(out, span{Kind: spTransit, Trace: a.id, Start: t, End: a.at, Parent: -1})
				delete(left, a.id)
			}
		}
	}
	return out
}

// writeSpans writes span groups as JSONL, one object per span; id and
// parent are line numbers (0-based) so a reader can rebuild the tree.
func writeSpans(path string, groups ...[]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		ID      int    `json:"id"`
		Name    string `json:"name"`
		Trace   int64  `json:"trace"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
		Parent  int    `json:"parent"`
	}
	off := 0
	for _, g := range groups {
		for i, s := range g {
			parent := -1
			if s.Parent >= 0 {
				parent = off + int(s.Parent)
			}
			if err := enc.Encode(line{off + i, spanNames[s.Kind], s.Trace, s.Start, s.End, parent}); err != nil {
				f.Close()
				return err
			}
		}
		off += len(g)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
