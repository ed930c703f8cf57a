package engine

import (
	"ocsml/internal/des"
	"ocsml/internal/host"
	"ocsml/internal/protocol"
	"ocsml/internal/storage"
)

// Node is one simulated process: the shared process host (protocol.Env
// and protocol.AppCtx, see internal/host) driven by the discrete-event
// simulator. The Node itself is the host's Driver — virtual clock,
// simulated network and storage server — plus what only the simulation
// measures or models: stall time and send-to-process latency.
//
// The engine is a single-threaded discrete-event simulation: every
// callback fires inside Sim.Run, on the goroutine executing
// Cluster.Run. The package starts no goroutine, so that is the host's
// ownership contract kept on the engine's side.
type Node struct {
	h     *host.Host
	c     *Cluster
	proto protocol.Protocol

	stallStart   des.Time
	stalledTotal des.Duration
}

var _ host.Driver = (*Node)(nil)

// Now implements host.Driver: virtual time.
func (n *Node) Now() des.Time { return n.c.Sim.Now() }

// NextID implements host.Driver.
func (n *Node) NextID() int64 { return n.c.Net.AllocID() }

// Transmit implements host.Driver.
func (n *Node) Transmit(e *protocol.Envelope) { n.c.Net.Send(e) }

// After implements host.Driver: one event on the simulator's queue, whose
// callbacks all fire inside Sim.Run on the goroutine of Cluster.Run.
func (n *Node) After(d des.Duration, t host.Tick) { n.c.Sim.After(d, func() { n.h.Fire(t) }) }

// WriteStable implements host.Driver.
func (n *Node) WriteStable(tag string, bytes int64, done func(start, end des.Time)) {
	id := n.h.ID()
	n.c.storeFor(id).Enqueue(id, tag, bytes, func(w storage.Write) {
		if done != nil {
			done(w.Start, w.End)
		}
	})
}

// StorageQueueLen implements host.Driver.
func (n *Node) StorageQueueLen() int { return n.c.storeFor(n.h.ID()).QueueLen() }

// Image implements host.Driver: the modelled state size and copy cost.
func (n *Node) Image() (int64, des.Duration) { return n.c.cfg.StateBytes, n.c.cfg.CopyCost }

// AppSent implements host.Driver.
func (n *Node) AppSent(e *protocol.Envelope) {
	n.c.appMsgs.Inc()
	if pig := e.Bytes - e.App.Bytes; pig > 0 {
		n.c.piggyBytes.Add(pig)
	}
}

// Admit implements host.Driver: the send-to-process latency sample.
func (n *Node) Admit(e *protocol.Envelope) {
	n.c.appLatency.Observe((n.Now() - e.SentAt).Seconds())
}

// Stalled implements host.Driver: per-process stall-time accounting.
func (n *Node) Stalled(on bool) {
	if on {
		n.stallStart = n.Now()
	} else {
		n.stalledTotal += n.Now() - n.stallStart
	}
}

// Draining implements host.Driver.
func (n *Node) Draining() bool { return n.c.draining }

// AppDone implements host.Driver.
func (n *Node) AppDone() { n.c.appDone(n.h.ID()) }

// DurableSeqs implements host.Driver: the checkpoints whose stable write
// has completed.
func (n *Node) DurableSeqs() []int {
	var seqs []int
	for _, rec := range n.h.Checkpoints().All() {
		if rec.Seq > 0 && rec.StableAt > 0 {
			seqs = append(seqs, rec.Seq)
		}
	}
	return seqs
}

// Truncate implements host.Driver: the rollback's record is one write
// through the storage model, queued behind what the process wrote before.
func (n *Node) Truncate(_, _ int, done func(err error)) {
	n.WriteStable("rollback", 0, func(_, _ des.Time) { done(nil) })
}

// RolledBack implements host.Driver: the process owes its quota again.
func (n *Node) RolledBack(int, int) { n.c.done[n.h.ID()] = false }
