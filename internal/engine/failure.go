package engine

import (
	"fmt"

	"ocsml/internal/des"
	"ocsml/internal/handshake"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
)

// FailurePlan injects a crash into a run: process Proc fails at time At,
// losing all volatile state — unfinalized tentative checkpoints, in-memory
// logs, in-flight messages to and from it. restartDelay later it restarts
// and recovers exactly as a restarted process of the TCP runtime does: it
// coordinates the RB_* handshake over the simulated network (DESIGN.md
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

// The recovery's clock, the TCP runtime's (transport.rbRetry and
// rbTimeout): the victim restarts restartDelay after its crash, resends
// each unanswered frame every rbRetry, and gives up after rbTimeout.
const (
	restartDelay = 100 * des.Millisecond
	rbRetry      = 150 * des.Millisecond
	rbTimeout    = 20 * des.Second
)

// recovery is the handshake one restarted victim coordinates.
type recovery struct {
	victim  int
	started des.Time
	co      *handshake.Coordinator
}

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
	if r := c.rb; r != nil {
		panic(fmt.Sprintf("engine: P%d crashed during P%d's recovery handshake: overlapping failures are not simulated (ROADMAP item 6(b))",
			proc, r.victim))
	}
	c.nodes[proc].h.Crash()
	c.Net.SetDown(proc, true)
	c.done[proc] = false
	c.Rec.Record(trace.Event{T: c.Sim.Now(), Kind: trace.KFail, Proc: proc, Peer: -1, Seq: -1})
	c.count("recovery.failures", 1)
	c.Sim.After(restartDelay, func() { c.restart(proc) })
}

// restart brings the victim's link up and starts its round: its vote is
// its stable seqs, its round id the virtual time.
func (c *Cluster) restart(victim int) {
	if c.draining {
		// The workload already completed; there is nothing to resume.
		// The crashed process stays down through the drain.
		c.count("recovery.skipped_after_completion", 1)
		return
	}
	c.Net.SetDown(victim, false)
	n := c.nodes[victim]
	r := &recovery{victim: victim, started: c.Sim.Now(),
		co: handshake.NewCoordinator(victim, c.cfg.N, int64(c.Sim.Now()), n.DurableSeqs(), n.h.Epoch())}
	c.rb = r
	n.h.SendFrames(r.co.Tick())
	c.Sim.After(rbRetry, func() { c.rbTick(r) })
}

// rbTick resends what the survivors have not answered.
func (c *Cluster) rbTick(r *recovery) {
	if c.rb != r {
		return // done
	}
	unanswered := r.co.Tick()
	if c.Sim.Now()-r.started >= rbTimeout {
		peers := make([]int, len(unanswered))
		for i, f := range unanswered {
			peers[i] = f.Peer
		}
		panic(fmt.Sprintf("engine: recovery of P%d: survivors %v left %s unanswered for %v",
			r.victim, peers, unanswered[0].Tag, rbTimeout))
	}
	c.nodes[r.victim].h.SendFrames(unanswered)
	c.Sim.After(rbRetry, func() { c.rbTick(r) })
}

// coordinate feeds an RB_LINE or RB_ACK addressed to the victim to its
// Coordinator; on the last RB_ACK every survivor is at the line, and the
// victim goes there through the same host routine.
func (c *Cluster) coordinate(r *recovery, e *protocol.Envelope) {
	v := c.nodes[r.victim].h
	v.SendFrames(r.co.Receive(handshake.Frame{Peer: e.Src, Tag: e.CtlTag, Msg: e.Payload.(protocol.RbMsg)}))
	if !r.co.Done() {
		return
	}
	c.rb = nil
	line, epoch := r.co.Decision()
	if _, ok := v.Restart(line, epoch); !ok {
		panic(fmt.Sprintf("engine: recovery line %d missing on P%d", line, r.victim))
	}
	c.count("recovery.line_seq", int64(line))
	c.count("recovery.recoveries", 1)
	c.count("recovery.recover_us", int64(c.Sim.Now()-r.started+restartDelay)/int64(des.Microsecond))
}
