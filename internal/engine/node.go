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
// measures or models: stall time, send-to-process latency, and the
// receiver-side dedup that stands in for channel reconstruction after a
// rollback.
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

	// Recovery dedup (only used when a failure is injected): processed
	// maps envelope id → processing time; lineCFE is the recovery-line
	// cut time after a restore; restoreAt is when this node was last
	// restored (0 = never).
	processed map[int64]des.Time
	lineCFE   des.Time
	restoreAt des.Time
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

// Admit implements host.Driver: recovery dedup, then the latency sample.
func (n *Node) Admit(e *protocol.Envelope) bool {
	if n.processed != nil {
		// Drop the message if it is already reflected in the restored
		// state (processed at or before the recovery line) or was already
		// re-processed since the restore. Messages processed between the
		// line and the failure were rolled back, so re-processing them
		// once is correct.
		if t, ok := n.processed[e.ID]; ok && n.restoreAt > 0 &&
			(t <= n.lineCFE || t >= n.restoreAt) {
			n.c.count("recovery.dup_dropped", 1)
			return false
		}
		n.processed[e.ID] = n.Now()
	}
	n.c.appLatency.Observe((n.Now() - e.SentAt).Seconds())
	return true
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
func (n *Node) AppDone() { n.c.appDone() }
