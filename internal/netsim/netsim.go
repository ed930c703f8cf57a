// Package netsim models the message-passing network. Per the paper's
// system model (§2.1): transmission delays are finite but arbitrary, and
// channels need NOT be FIFO — each message independently draws a delay, so
// later messages can overtake earlier ones. A FIFO mode is provided for
// baselines that require it (Chandy–Lamport's marker algorithm).
package netsim

import (
	"fmt"
	"math/rand"

	"ocsml/internal/des"
	"ocsml/internal/metrics"
	"ocsml/internal/protocol"
)

// LatencyModel draws a transmission delay for one message.
type LatencyModel interface {
	Delay(src, dst int, bytes int64, rng *rand.Rand) des.Duration
}

// Uniform draws delays uniformly from [Min, Max], plus Bytes/Bandwidth
// transmission time when Bandwidth > 0.
type Uniform struct {
	Min, Max  des.Duration
	Bandwidth int64 // bytes per virtual second; 0 disables
}

// Delay implements LatencyModel.
func (u Uniform) Delay(src, dst int, bytes int64, rng *rand.Rand) des.Duration {
	d := u.Min
	if u.Max > u.Min {
		d += des.Duration(rng.Int63n(int64(u.Max - u.Min + 1)))
	}
	if u.Bandwidth > 0 {
		d += des.Duration(float64(bytes) / float64(u.Bandwidth) * float64(des.Second))
	}
	return d
}

// Fixed is a constant-delay model (useful for exactly scripted scenarios).
type Fixed struct{ D des.Duration }

// Delay implements LatencyModel.
func (f Fixed) Delay(int, int, int64, *rand.Rand) des.Duration { return f.D }

// Matrix is a heterogeneous per-pair latency model: Base[src][dst] plus
// uniform jitter in [0, Jitter], plus Bytes/Bandwidth when Bandwidth > 0.
// Use Clusters to build the common "two datacenters" shape.
type Matrix struct {
	Base      [][]des.Duration
	Jitter    des.Duration
	Bandwidth int64
}

// Delay implements LatencyModel.
func (m Matrix) Delay(src, dst int, bytes int64, rng *rand.Rand) des.Duration {
	d := m.Base[src][dst]
	if m.Jitter > 0 {
		d += des.Duration(rng.Int63n(int64(m.Jitter) + 1))
	}
	if m.Bandwidth > 0 {
		d += des.Duration(float64(bytes) / float64(m.Bandwidth) * float64(des.Second))
	}
	return d
}

// Clusters builds a Matrix for processes partitioned into groups:
// group[i] names process i's site; same-site pairs use local latency,
// cross-site pairs remote.
func Clusters(group []int, local, remote des.Duration, jitter des.Duration) Matrix {
	n := len(group)
	base := make([][]des.Duration, n)
	for i := range base {
		base[i] = make([]des.Duration, n)
		for j := range base[i] {
			if group[i] == group[j] {
				base[i][j] = local
			} else {
				base[i][j] = remote
			}
		}
	}
	return Matrix{Base: base, Jitter: jitter}
}

// DefaultLatency models a 2007-era LAN: 0.2–2 ms with 100 Mb/s links.
func DefaultLatency() LatencyModel {
	return Uniform{Min: 200 * des.Microsecond, Max: 2 * des.Millisecond, Bandwidth: 12_500_000}
}

// Network delivers envelopes between processes.
type Network struct {
	sim     *des.Simulator
	n       int
	fifo    bool
	lat     LatencyModel
	deliver func(e *protocol.Envelope)
	nextID  int64
	drop    float64
	// lastArrival[src*n+dst] enforces FIFO per channel when enabled.
	lastArrival []des.Time
	down        []bool // failed processes neither send nor receive

	// Metrics.
	MsgCount  metrics.Counter // all envelopes
	CtlCount  metrics.Counter // control envelopes
	ByteCount metrics.Counter
	Dropped   metrics.Counter // transmissions lost to DropRate
	Latency   metrics.Summary // seconds
	InFlight  metrics.Gauge
}

// Config parameterizes a Network.
type Config struct {
	N       int
	FIFO    bool
	Latency LatencyModel
	// DropRate is the probability each transmission is silently lost
	// (0..1). The paper assumes reliable channels; runs with loss need
	// the reliable-transport middleware (internal/reliable).
	DropRate float64
}

// New creates a network for cfg.N processes. deliver is invoked at arrival
// time with each envelope.
func New(sim *des.Simulator, cfg Config, deliver func(e *protocol.Envelope)) *Network {
	if cfg.N < 1 {
		panic(fmt.Sprintf("netsim: invalid N=%d", cfg.N))
	}
	lat := cfg.Latency
	if lat == nil {
		lat = DefaultLatency()
	}
	if cfg.DropRate < 0 || cfg.DropRate >= 1 {
		panic(fmt.Sprintf("netsim: drop rate %v outside [0,1)", cfg.DropRate))
	}
	return &Network{
		sim:         sim,
		n:           cfg.N,
		fifo:        cfg.FIFO,
		lat:         lat,
		drop:        cfg.DropRate,
		deliver:     deliver,
		lastArrival: make([]des.Time, cfg.N*cfg.N),
		down:        make([]bool, cfg.N),
	}
}

// N returns the process count.
func (nw *Network) N() int { return nw.n }

// FIFO reports whether channels preserve per-channel order.
func (nw *Network) FIFO() bool { return nw.fifo }

// AllocID reserves a fresh unique envelope id. The engine pre-assigns ids
// to application messages so protocols can log them before transmission.
func (nw *Network) AllocID() int64 {
	nw.nextID++
	return nw.nextID
}

// SetDown marks a process as failed (true) or recovered (false): a down
// process's outgoing sends are dropped at the source and its incoming
// deliveries are dropped at arrival time.
func (nw *Network) SetDown(proc int, down bool) { nw.down[proc] = down }

// Send transmits the envelope. It assigns SentAt, and an ID when e has
// none (a recovery re-send keeps its original one), and schedules delivery of a copy after a model-drawn delay. Self-sends panic:
// processes are sequential and talk to themselves directly.
func (nw *Network) Send(e *protocol.Envelope) {
	if e.Src == e.Dst {
		panic(fmt.Sprintf("netsim: self-send by P%d", e.Src))
	}
	if e.Dst < 0 || e.Dst >= nw.n || e.Src < 0 || e.Src >= nw.n {
		panic(fmt.Sprintf("netsim: endpoints %d->%d outside [0,%d)", e.Src, e.Dst, nw.n))
	}
	if nw.down[e.Src] {
		return
	}
	if e.ID == 0 {
		e.ID = nw.AllocID()
	}
	e.SentAt = nw.sim.Now()

	nw.MsgCount.Inc()
	if e.Kind == protocol.KindCtl {
		nw.CtlCount.Inc()
	}
	nw.ByteCount.Add(e.Bytes)

	if nw.drop > 0 && nw.sim.Rand().Float64() < nw.drop {
		nw.Dropped.Inc()
		return
	}

	delay := nw.lat.Delay(e.Src, e.Dst, e.Bytes, nw.sim.Rand())
	if delay < 0 {
		panic("netsim: latency model produced negative delay")
	}
	at := nw.sim.Now() + delay
	if nw.fifo {
		ch := e.Src*nw.n + e.Dst
		if at <= nw.lastArrival[ch] {
			at = nw.lastArrival[ch] + 1 // strictly after the previous arrival
		}
		nw.lastArrival[ch] = at
	}
	nw.InFlight.Add(1)
	env := *e // the sender may reuse e once Send returns
	nw.sim.At(at, func() {
		nw.InFlight.Add(-1)
		nw.Latency.Observe((nw.sim.Now() - env.SentAt).Seconds())
		if nw.down[env.Dst] {
			return
		}
		nw.deliver(&env)
	})
}
