// Package workload provides deterministic synthetic applications that
// drive the checkpointing protocols: the communication patterns a
// distributed scientific computation would exhibit (uniform random
// exchange, ring pipelines, client–server, mesh neighbor exchange, and
// bursty phases).
//
// Each process performs a fixed quota of work steps. A step costs a drawn
// "think time" of local computation and emits one application message.
// Received messages also count as work. Because the engine folds every
// send/receive into a per-process state hash, any two runs that process
// the same messages in the same order reach identical states — the
// piecewise-determinism assumption used by the recovery machinery.
package workload

import (
	"fmt"
	"strings"

	"ocsml/internal/des"
	"ocsml/internal/protocol"
)

// Pattern selects the communication structure.
type Pattern int

const (
	// UniformRandom sends each message to a uniformly random peer.
	UniformRandom Pattern = iota
	// Ring sends to (i+1) mod N.
	Ring
	// ClientServer makes P0 a server: others send requests to it and it
	// replies.
	ClientServer
	// Mesh arranges processes in a near-square grid; each talks to its
	// grid neighbors round-robin.
	Mesh
	// Bursty alternates active bursts with long idle gaps.
	Bursty
	// BSPStencil is the bulk-synchronous stencil: compute, halo-exchange
	// with grid neighbors, barrier (see BSP).
	BSPStencil
)

// patternNames is the one table of pattern names: String prints it and
// ParsePattern reads it, for every CLI flag and the public API.
var patternNames = [...]string{
	UniformRandom: "uniform", Ring: "ring", ClientServer: "client-server",
	Mesh: "mesh", Bursty: "bursty", BSPStencil: "stencil",
}

func (p Pattern) String() string {
	if p >= 0 && int(p) < len(patternNames) {
		return patternNames[p]
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// ParsePattern returns the pattern whose String is name.
func ParsePattern(name string) (Pattern, error) {
	for p, s := range patternNames {
		if s == name {
			return Pattern(p), nil
		}
	}
	return 0, fmt.Errorf("workload: unknown pattern %q (want one of %s)", name, strings.Join(patternNames[:], ", "))
}

// Config parameterizes the synthetic application.
type Config struct {
	Pattern Pattern
	// Steps is the work quota per process (requests for client–server
	// clients). Process 0 has quota 0 under ClientServer.
	Steps int64
	// Think is the mean local computation time per step; actual draws
	// are uniform in [Think/2, 3*Think/2).
	Think des.Duration
	// MsgBytes is the application payload size per message.
	MsgBytes int64
	// BurstLen is the number of steps per burst (Bursty only).
	BurstLen int64
	// BurstIdle is the idle gap between bursts (Bursty only).
	BurstIdle des.Duration
	// ServerReplies makes the ClientServer server answer each request.
	ServerReplies bool
}

// DefaultConfig is a moderate uniform-random workload.
func DefaultConfig() Config {
	return Config{
		Pattern:  UniformRandom,
		Steps:    200,
		Think:    10 * des.Millisecond,
		MsgBytes: 4 << 10,
	}
}

// Factory returns a per-process application constructor for the engine.
func Factory(cfg Config) func(i, n int) protocol.App {
	if cfg.Pattern == BSPStencil {
		return BSPFactory(cfg)
	}
	return func(i, n int) protocol.App {
		return &synthetic{cfg: cfg, id: i, n: n}
	}
}

type synthetic struct {
	cfg  Config
	id   int
	n    int
	step int64
	done bool

	neighbors []int // Mesh
	nbIdx     int
}

// Start implements protocol.App.
func (a *synthetic) Start(ctx protocol.AppCtx) {
	if a.n < 2 {
		panic("workload: need at least 2 processes")
	}
	if a.cfg.Pattern == Mesh {
		a.neighbors = meshNeighbors(a.id, a.n)
	}
	if a.quota() == 0 {
		a.done = true
		ctx.Done()
		return
	}
	ctx.After(a.think(ctx), func() { a.doStep(ctx) })
}

func (a *synthetic) quota() int64 {
	if a.cfg.Pattern == ClientServer && a.id == 0 {
		return 0
	}
	return a.cfg.Steps
}

func (a *synthetic) think(ctx protocol.AppCtx) des.Duration {
	t := a.cfg.Think
	if t <= 0 {
		return des.Microsecond
	}
	half := int64(t) / 2
	return des.Duration(half + ctx.Rand().Int63n(int64(t)))
}

func (a *synthetic) doStep(ctx protocol.AppCtx) {
	a.step++
	ctx.DoWork(1)
	dst := a.dest(ctx)
	if dst >= 0 {
		ctx.Send(dst, protocol.AppMsg{Bytes: a.cfg.MsgBytes})
	}
	if a.step >= a.quota() {
		a.done = true
		ctx.Done()
		return
	}
	delay := a.think(ctx)
	if a.cfg.Pattern == Bursty && a.cfg.BurstLen > 0 && a.step%a.cfg.BurstLen == 0 {
		delay += a.cfg.BurstIdle
	}
	ctx.After(delay, func() { a.doStep(ctx) })
}

func (a *synthetic) dest(ctx protocol.AppCtx) int {
	switch a.cfg.Pattern {
	case Ring:
		return (a.id + 1) % a.n
	case ClientServer:
		if a.id == 0 {
			return -1
		}
		return 0
	case Mesh:
		if len(a.neighbors) == 0 {
			return -1
		}
		d := a.neighbors[a.nbIdx%len(a.neighbors)]
		a.nbIdx++
		return d
	default: // UniformRandom, Bursty
		d := ctx.Rand().Intn(a.n - 1)
		if d >= a.id {
			d++
		}
		return d
	}
}

// OnMessage implements protocol.App.
func (a *synthetic) OnMessage(ctx protocol.AppCtx, src int, m protocol.AppMsg) {
	ctx.DoWork(1)
	if a.cfg.Pattern == ClientServer && a.id == 0 && a.cfg.ServerReplies {
		ctx.Send(src, protocol.AppMsg{Bytes: a.cfg.MsgBytes / 2})
	}
}

// Progress implements protocol.RewindableApp.
func (a *synthetic) Progress() int64 { return a.step }

// Restore implements protocol.RewindableApp: rewind to the given step
// count and resume (or finish, if the quota was already met before the
// recovery line).
func (a *synthetic) Restore(ctx protocol.AppCtx, progress int64) {
	a.step = progress
	if a.step >= a.quota() {
		a.done = true
		ctx.Done()
		return
	}
	a.done = false
	ctx.After(a.think(ctx), func() { a.doStep(ctx) })
}

// meshNeighbors returns the grid neighbors of process id in a rows×cols
// arrangement with rows*cols >= n, cols = ceil(sqrt(n)).
func meshNeighbors(id, n int) []int {
	cols := 1
	for cols*cols < n {
		cols++
	}
	r, c := id/cols, id%cols
	var out []int
	add := func(rr, cc int) {
		if rr < 0 || cc < 0 || cc >= cols {
			return
		}
		nid := rr*cols + cc
		if nid >= 0 && nid < n && nid != id {
			out = append(out, nid)
		}
	}
	add(r-1, c)
	add(r+1, c)
	add(r, c-1)
	add(r, c+1)
	if len(out) == 0 && n > 1 {
		// Isolated corner in a ragged last row: fall back to a ring link.
		out = append(out, (id+1)%n)
	}
	return out
}

// Silent is an application that never sends or does anything — used to
// test protocol convergence with zero application traffic (paper §3.5.1:
// without control messages the basic algorithm cannot converge).
type Silent struct{}

// Start implements protocol.App.
func (Silent) Start(ctx protocol.AppCtx) { ctx.Done() }

// OnMessage implements protocol.App.
func (Silent) OnMessage(protocol.AppCtx, int, protocol.AppMsg) {}

// SilentFactory builds Silent apps.
func SilentFactory() func(i, n int) protocol.App {
	return func(int, int) protocol.App { return Silent{} }
}

// Scripted is an application driven by an explicit list of timed sends,
// used by the paper-figure scenario tests where exact message orders
// matter.
type Scripted struct {
	// Sends lists (time, dst, bytes) triples for this process.
	Sends []ScriptedSend
}

// ScriptedSend is one planned transmission.
type ScriptedSend struct {
	At    des.Time
	Dst   int
	Bytes int64
}

// Start implements protocol.App.
func (s *Scripted) Start(ctx protocol.AppCtx) {
	for _, snd := range s.Sends {
		snd := snd
		d := snd.At - ctx.Now()
		if d < 0 {
			d = 0
		}
		ctx.After(d, func() {
			ctx.DoWork(1)
			ctx.Send(snd.Dst, protocol.AppMsg{Bytes: snd.Bytes})
		})
	}
	// Completion: after the last send. A scripted process with no sends
	// is done immediately.
	var last des.Time
	for _, snd := range s.Sends {
		if snd.At > last {
			last = snd.At
		}
	}
	d := last - ctx.Now()
	if d < 0 {
		d = 0
	}
	ctx.After(d, ctx.Done)
}

// OnMessage implements protocol.App.
func (s *Scripted) OnMessage(ctx protocol.AppCtx, src int, m protocol.AppMsg) {
	ctx.DoWork(1)
}

// ScriptedFactory builds per-process scripted apps from a map of process
// id to its send plan.
func ScriptedFactory(plans map[int][]ScriptedSend) func(i, n int) protocol.App {
	return func(i, n int) protocol.App {
		return &Scripted{Sends: plans[i]}
	}
}
