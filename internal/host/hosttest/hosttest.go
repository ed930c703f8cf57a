// Package hosttest runs one real host.Host on a simulated clock for
// white-box protocol tests, so a protocol under test acts on the same Env
// the runtimes give it: transmissions are recorded, stable writes complete
// at once, timers fire when the test runs Sim, and the application is
// idle.
package hosttest

import (
	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
	"ocsml/internal/host"
	"ocsml/internal/metrics"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
)

// Driver is the host.Driver of one process on a bare simulator.
type Driver struct {
	Sim  *des.Simulator
	Host *host.Host
	Rec  *trace.Recorder
	// Sent holds a copy of every envelope the host transmitted, in order.
	Sent []*protocol.Envelope
	// Delivered counts the application messages the host processed.
	Delivered int

	reg    *metrics.Registry
	nextID int64
}

var _ host.Driver = (*Driver)(nil)

// New hosts proto as process id of n and starts it.
func New(id, n int, proto protocol.Protocol) *Driver {
	d := &Driver{Sim: des.New(1), Rec: trace.NewRecorder(), reg: metrics.NewRegistry()}
	d.Host = host.New(host.Process{
		ID: id, N: n, Proto: proto, App: idleApp{},
		Rand: d.Sim.Rand(), Rec: d.Rec,
		Ckpts: checkpoint.NewStore(n).Proc(id), Metrics: d.reg,
	}, d)
	d.Host.StartProtocol()
	d.Host.StartApp()
	return d
}

// Store is the process's checkpoint store.
func (d *Driver) Store() *checkpoint.ProcStore { return d.Host.Checkpoints() }

// Counter reads a free-form statistic (protocol.Env.Count).
func (d *Driver) Counter(name string) int64 { return d.reg.EventCounts()[name] }

// Now implements host.Driver.
func (d *Driver) Now() des.Time { return d.Sim.Now() }

// NextID implements host.Driver.
func (d *Driver) NextID() int64 { d.nextID++; return d.nextID }

// Transmit implements host.Driver: it records a copy, as the host reuses e.
func (d *Driver) Transmit(e *protocol.Envelope) { cp := *e; d.Sent = append(d.Sent, &cp) }

// After implements host.Driver: one simulator event.
func (d *Driver) After(dt des.Duration, t host.Tick) { d.Sim.After(dt, func() { d.Host.Fire(t) }) }

// WriteStable implements host.Driver: the write completes before it
// returns, one nanosecond after it starts (a zero completion time would
// collide with the "not yet stable" sentinel in checkpoint records).
func (d *Driver) WriteStable(_ string, _ int64, done func(start, end des.Time)) {
	if done != nil {
		done(d.Now(), d.Now()+1)
	}
}

// StorageQueueLen implements host.Driver: writes never queue.
func (d *Driver) StorageQueueLen() int { return 0 }

// Image implements host.Driver: a 64-byte image that costs no copy time.
func (d *Driver) Image() (int64, des.Duration) { return 64, 0 }

// AppSent implements host.Driver.
func (d *Driver) AppSent(*protocol.Envelope) {}

// Admit implements host.Driver: every processed delivery is counted.
func (d *Driver) Admit(*protocol.Envelope) { d.Delivered++ }

// Stalled implements host.Driver.
func (d *Driver) Stalled(bool) {}

// Draining implements host.Driver.
func (d *Driver) Draining() bool { return false }

// AppDone implements host.Driver.
func (d *Driver) AppDone() {}

// DurableSeqs implements host.Driver: nothing is durable.
func (d *Driver) DurableSeqs() []int { return nil }

// Truncate implements host.Driver: it lands at once.
func (d *Driver) Truncate(_, _ int, done func(err error)) { done(nil) }

// RolledBack implements host.Driver.
func (d *Driver) RolledBack(int, int) {}

// idleApp sends nothing, ignores what it receives, and restarts anywhere.
type idleApp struct{}

func (idleApp) Start(protocol.AppCtx)                           {}
func (idleApp) OnMessage(protocol.AppCtx, int, protocol.AppMsg) {}
func (idleApp) Progress() int64                                 { return 0 }
func (idleApp) Restore(protocol.AppCtx, int64)                  {}
