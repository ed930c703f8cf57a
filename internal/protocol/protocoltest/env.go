// Package protocoltest provides a synchronous in-memory protocol.Env for
// white-box protocol unit tests: sends are recorded, stable writes
// complete immediately, and timers fire when the embedded simulator runs.
package protocoltest

import (
	"math/rand"

	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
	"ocsml/internal/metrics"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
)

// FakeEnv implements protocol.Env for direct state-machine tests.
type FakeEnv struct {
	Sim      *des.Simulator
	Id, Np   int
	Sent     []*protocol.Envelope
	Store    *checkpoint.ProcStore
	Counters map[string]int64
	Reg      *metrics.Registry
	Queue    int // reported StorageQueueLen
	Events   []trace.Event
	// Proto receives timer callbacks when the simulator runs.
	Proto protocol.Protocol
	// Delivered counts DeliverApp calls.
	Delivered int
}

// New builds a fake env for process id of n.
func New(id, n int) *FakeEnv {
	return &FakeEnv{
		Sim: des.New(1), Id: id, Np: n,
		Store:    checkpoint.NewStore(n).Proc(id),
		Counters: map[string]int64{},
		Reg:      metrics.NewRegistry(),
	}
}

// ID implements protocol.Env.
func (f *FakeEnv) ID() int { return f.Id }

// N implements protocol.Env.
func (f *FakeEnv) N() int { return f.Np }

// Now implements protocol.Env.
func (f *FakeEnv) Now() des.Time { return f.Sim.Now() }

// Rand implements protocol.Env.
func (f *FakeEnv) Rand() *rand.Rand { return f.Sim.Rand() }

// Send implements protocol.Env. It records a copy: the caller may reuse e.
func (f *FakeEnv) Send(e *protocol.Envelope) {
	e.Src = f.Id
	if e.ID == 0 {
		e.ID = int64(len(f.Sent) + 1)
	}
	cp := *e
	f.Sent = append(f.Sent, &cp)
}

// Broadcast implements protocol.Env.
func (f *FakeEnv) Broadcast(e *protocol.Envelope) {
	for dst := 0; dst < f.Np; dst++ {
		if dst == f.Id {
			continue
		}
		cp := *e
		cp.Dst = dst
		f.Send(&cp)
	}
}

// SetTimer implements protocol.Env.
func (f *FakeEnv) SetTimer(d des.Duration, kind, gen int) *des.Timer {
	return f.Sim.After(d, func() { f.Proto.OnTimer(kind, gen) })
}

// WriteStable implements protocol.Env: completes synchronously, one
// nanosecond after it starts (a zero completion time would collide with
// the "not yet stable" sentinel in checkpoint records).
func (f *FakeEnv) WriteStable(tag string, bytes int64, done func(start, end des.Time)) {
	if done != nil {
		done(f.Now(), f.Now()+1)
	}
}

// WriteStableBlocking implements protocol.Env.
func (f *FakeEnv) WriteStableBlocking(tag string, bytes int64, done func(start, end des.Time)) {
	f.WriteStable(tag, bytes, done)
}

// StorageQueueLen implements protocol.Env.
func (f *FakeEnv) StorageQueueLen() int { return f.Queue }

// StallApp implements protocol.Env.
func (f *FakeEnv) StallApp() {}

// ResumeApp implements protocol.Env.
func (f *FakeEnv) ResumeApp() {}

// StallAppFor implements protocol.Env.
func (f *FakeEnv) StallAppFor(d des.Duration) {}

// Snapshot implements protocol.Env.
func (f *FakeEnv) Snapshot() protocol.Snapshot { return protocol.Snapshot{Bytes: 64} }

// Peek implements protocol.Env.
func (f *FakeEnv) Peek() protocol.Snapshot { return protocol.Snapshot{Bytes: 64} }

// DeliverApp implements protocol.Env: runs the hooks immediately.
func (f *FakeEnv) DeliverApp(e *protocol.Envelope, hooks protocol.AppHooks) {
	f.Delivered++
	if hooks != nil {
		hooks.BeforeApp(e)
		hooks.AfterApp(e)
	}
}

// Checkpoints implements protocol.Env.
func (f *FakeEnv) Checkpoints() *checkpoint.ProcStore { return f.Store }

// Note implements protocol.Env.
func (f *FakeEnv) Note(kind trace.Kind, seq int) {
	f.Events = append(f.Events, trace.Event{T: f.Now(), Kind: kind, Proc: f.Id, Seq: seq})
}

// Count implements protocol.Env.
func (f *FakeEnv) Count(name string, d int64) { f.Counters[name] += d }

// Metrics implements protocol.Env.
func (f *FakeEnv) Metrics() *metrics.Registry { return f.Reg }

// Draining implements protocol.Env.
func (f *FakeEnv) Draining() bool { return false }

var _ protocol.Env = (*FakeEnv)(nil)
