package main

import (
	"math/rand"
	"sync/atomic"

	"ocsml/internal/des"
	"ocsml/internal/protocol"
)

// payloadBytes is the application payload size every workload declares.
// The wire codec carries the declared size, not the bytes themselves, so
// this moves the selective log's byte accounting, not the socket.
const payloadBytes = 256

// ringSampleEvery thins the latency samples of the closed loop, which
// delivers some four hundred thousand messages a second: every eighth is
// still a million samples a run. Deliveries are counted, not sampled.
const ringSampleEvery = 8

// app is the benchmark's application on one process. It times every
// message it receives against the time the message was DUE to be sent,
// which the sender stamps in AppMsg.Tag: a stall anywhere — generator,
// sender's loop, queue, socket, receiver — lengthens the measured latency
// instead of silently thinning the load.
//
// Open-loop sends are fired on schedule by the harness goroutine (see
// pacer) through Node.Post; closed-loop tokens are forwarded on receipt.
// Either way every method below runs on the node's loop goroutine, which
// owns all fields but the two counters.
type app struct {
	id, n int
	ctx   protocol.AppCtx
	rng   *rand.Rand

	// tokens, when non-zero, makes this a ring process: it injects that
	// many tokens at begin and forwards each one it receives to P_id+1.
	tokens int

	running bool
	probe   *probe // nil unless the run is traced

	sent, recv atomic.Int64 // read by the harness goroutine
	lat        []sample     // due → OnMessage latency, µs
	late       []sample     // how late the generator fired each send, µs
}

var _ protocol.App = (*app)(nil)

func newApp(id, n int, w *workload, seed int64) *app {
	return &app{
		id: id, n: n, tokens: w.tokensPerProc,
		rng: rand.New(rand.NewSource(seed*1000003 + int64(id))),
	}
}

// Start implements protocol.App. Traffic begins only when the harness
// calls begin, after set-up has been timed.
func (a *app) Start(ctx protocol.AppCtx) { a.ctx = ctx }

// begin opens the application for traffic and injects the ring's tokens.
func (a *app) begin() {
	a.running = true
	for i := 0; i < a.tokens; i++ {
		a.send((a.id+1)%a.n, a.ctx.Now())
	}
}

// stop ends generation and forwarding.
func (a *app) stop() { a.running = false }

// fire sends the open-loop message that was due at due to a seeded
// uniform-random peer.
func (a *app) fire(due des.Time) {
	if !a.running {
		return
	}
	now := a.ctx.Now()
	a.late = append(a.late, sample{int64(now), float64(now-due) / 1e3})
	dst := a.rng.Intn(a.n - 1)
	if dst >= a.id {
		dst++
	}
	a.send(dst, due)
}

func (a *app) send(dst int, due des.Time) {
	a.sent.Add(1)
	m := protocol.AppMsg{Bytes: payloadBytes, Tag: uint64(due)}
	if p := a.probe; p != nil {
		i := p.begin(spAppSend, 0, p.now())
		a.ctx.Send(dst, m)
		p.end(i, p.now())
		return
	}
	a.ctx.Send(dst, m)
}

// OnMessage implements protocol.App.
func (a *app) OnMessage(ctx protocol.AppCtx, src int, m protocol.AppMsg) {
	now := ctx.Now()
	if n := a.recv.Add(1); a.tokens == 0 || n%ringSampleEvery == 0 {
		a.lat = append(a.lat, sample{int64(now), float64(int64(now)-int64(m.Tag)) / 1e3})
	}
	p := a.probe
	var i int32
	if p != nil {
		i = p.begin(spAppOnMessage, p.delivering, int64(now))
	}
	if a.tokens > 0 && a.running {
		a.send((a.id+1)%a.n, now)
	}
	if p != nil {
		p.end(i, p.now())
	}
}
