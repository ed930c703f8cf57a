package engine

import (
	"fmt"

	"ocsml/internal/des"
	"ocsml/internal/trace"
)

// FailurePlan injects a crash into a run: process Proc fails at time At,
// losing all volatile state — unfinalized tentative checkpoints, in-memory
// logs, in-flight messages to and from it. restartDelay later it restarts
// and recovers exactly as a restarted process of the TCP runtime does: its
// host coordinates the RB_* handshake over the simulated network (DESIGN.md
// §9), every survivor rolls back when its RB_CMT arrives and acknowledges
// once the truncation is on stable storage, and on the last RB_ACK the
// victim joins them at the agreed line. Each process's host.Restart
// rebuilds the channel state from the selective message logs.
//
// This is the paper's recovery model for its class of algorithms:
// "recovery ... is simple since processes need only to roll back to the
// last committed global checkpoint" (§1), combined with log-based channel
// replay from C_{i,k} = CT_{i,k} ∪ logSet_{i,k}.
type FailurePlan struct {
	At   des.Time
	Proc int
}

// restartDelay is how long a crashed process stays down before its
// restart.
const restartDelay = 100 * des.Millisecond

// InjectFailure schedules a crash before Run. The hosted protocol must
// implement protocol.Rewinder and the application protocol.RewindableApp;
// the host panics at recovery time otherwise. Multiple failures may be
// injected as long as each crashes after the previous one's recovery has
// finished: a crash before its restart panics here, a crash during its
// handshake panics when it fires.
func (c *Cluster) InjectFailure(plan FailurePlan) {
	if plan.Proc < 0 || plan.Proc >= c.cfg.N {
		panic(fmt.Sprintf("engine: failure of invalid process %d", plan.Proc))
	}
	if prev := c.failure; prev != nil && plan.At <= prev.At+restartDelay {
		panic(fmt.Sprintf("engine: failure at %v overlaps previous recovery window (restart at %v)",
			plan.At, prev.At+restartDelay))
	}
	c.failure = &plan
	c.Sim.At(plan.At, func() { c.failProcess(plan.Proc) })
}

// failProcess crashes one process: its volatile state is gone, the
// network stops delivering to and from it, and its restart is scheduled.
// It fires from the simulator event scheduled by InjectFailure, inside
// Cluster.Run.
func (c *Cluster) failProcess(proc int) {
	for v, n := range c.nodes {
		if n.h.Down() && !c.draining { // restarted: its round is running
			panic(fmt.Sprintf("engine: P%d crashed during P%d's recovery handshake: overlapping failures are not simulated (ROADMAP item 6(b))",
				proc, v))
		}
	}
	c.nodes[proc].h.Crash()
	c.Net.SetDown(proc, true)
	c.done[proc] = false
	c.Rec.Record(trace.Event{T: c.Sim.Now(), Kind: trace.KFail, Proc: proc, Peer: -1, Seq: -1})
	c.count("recovery.failures", 1)
	c.Sim.After(restartDelay, func() { c.restart(proc) })
}

// restart brings the victim's link up and starts its recovery round
// (host.Host.Recover), the virtual time as round id; on the decision the
// victim goes to the line at once.
func (c *Cluster) restart(victim int) {
	if c.draining {
		// The workload already completed; there is nothing to resume.
		// The crashed process stays down through the drain.
		c.count("recovery.skipped_after_completion", 1)
		return
	}
	c.Net.SetDown(victim, false)
	started := c.Sim.Now()
	v := c.nodes[victim].h
	v.Recover(int64(started), func(line, epoch int, err error) {
		if err != nil {
			panic(err)
		}
		if _, ok := v.Restart(line, epoch); !ok {
			panic(fmt.Sprintf("engine: recovery line %d missing on P%d", line, victim))
		}
		c.count("recovery.line_seq", int64(line))
		c.count("recovery.recoveries", 1)
		c.count("recovery.recover_us", int64(c.Sim.Now()-started+restartDelay)/int64(des.Microsecond))
	})
}
