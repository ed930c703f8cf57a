package engine

import (
	"fmt"

	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
	"ocsml/internal/trace"
)

// FailurePlan injects a crash into a run: process Proc fails at time At
// (losing all volatile state — unfinalized tentative checkpoints,
// in-memory logs, in-flight messages to and from it). After DetectDelay
// the cluster performs a coordinated rollback to the most recent global
// checkpoint that is complete on stable storage, reconstructs the channel
// contents from the selective message logs (host.Resume), and resumes the
// computation.
//
// This is the paper's recovery model for its class of algorithms:
// "recovery ... is simple since processes need only to roll back to the
// last committed global checkpoint" (§1), combined with log-based channel
// replay from C_{i,k} = CT_{i,k} ∪ logSet_{i,k}.
type FailurePlan struct {
	At          des.Time
	Proc        int
	DetectDelay des.Duration
}

// InjectFailure schedules a crash before Run. The hosted protocol must
// implement protocol.Rewinder and the application protocol.RewindableApp;
// the host panics at recovery time otherwise. Multiple failures may be
// injected as long as their crash/recovery windows do not overlap
// (each At must lie after the previous failure's recovery).
func (c *Cluster) InjectFailure(plan FailurePlan) {
	if plan.Proc < 0 || plan.Proc >= c.cfg.N {
		panic(fmt.Sprintf("engine: failure of invalid process %d", plan.Proc))
	}
	if plan.DetectDelay <= 0 {
		plan.DetectDelay = 100 * des.Millisecond
	}
	if prev := c.failure; prev != nil && plan.At <= prev.At+prev.DetectDelay {
		panic(fmt.Sprintf("engine: failure at %v overlaps previous recovery window (ends %v)",
			plan.At, prev.At+prev.DetectDelay))
	}
	c.failure = &plan
	c.Sim.At(plan.At, func() { c.failProcess(plan.Proc) })
	c.Sim.At(plan.At+plan.DetectDelay, c.recoverAll)
}

// failProcess crashes one process: its volatile state is gone, the
// network stops delivering to and from it. It fires from the simulator
// event scheduled by InjectFailure, inside Cluster.Run.
func (c *Cluster) failProcess(proc int) {
	c.nodes[proc].h.Crash()
	c.Net.SetDown(proc, true)
	c.Rec.Record(trace.Event{T: c.Sim.Now(), Kind: trace.KFail, Proc: proc, Peer: -1, Seq: -1})
	c.count("recovery.failures", 1)
}

// recoverAll performs the coordinated rollback and resumption. Like
// failProcess it fires from the simulator event scheduled by
// InjectFailure, inside Cluster.Run.
func (c *Cluster) recoverAll() {
	if c.draining {
		// The workload already completed; there is nothing to resume.
		// The crashed process stays down through the drain.
		c.count("recovery.skipped_after_completion", 1)
		return
	}
	seq := c.Ckpts.MaxStableSeq() // the line: on stable storage everywhere, now
	c.count("recovery.line_seq", int64(seq))

	// New epoch: every pre-failure timer, stall, deferred action and
	// in-flight envelope is void.
	c.epoch++
	c.doneN = 0

	// The host's rollback step discards the checkpoints above the line,
	// restores the state at the cut point (CT state plus the logged message
	// replay) and rewinds the protocol. Every process is at the line before
	// any resumes: Resume re-sends the line's logged sends and restarts the
	// application, and each send must find its receiver in the new epoch.
	line := make([]checkpoint.Record, c.cfg.N)
	for p, n := range c.nodes {
		rec, _, ok := n.h.Rollback(seq, c.epoch)
		if !ok {
			panic(fmt.Sprintf("engine: recovery line %d missing on P%d", seq, p))
		}
		c.Net.SetDown(p, false)
		line[p] = rec
	}
	for p, n := range c.nodes {
		n.h.Resume(&line[p])
	}
	c.count("recovery.recoveries", 1)
}
