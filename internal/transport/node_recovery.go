package transport

import (
	"ocsml/internal/handshake"
	"ocsml/internal/protocol"
)

// handleRecovery feeds one RB_* frame, on the node's loop goroutine, to
// the handshake's Participant, which holds the whole survivor policy
// (DESIGN.md §9). Recovery frames bypass the protocol stack entirely — no
// reliable-layer dedup or acks, no epoch fencing (the coordinator predates
// the epoch it is about to establish). What stays here is the I/O: send
// what it answers, run the truncation it asks for on the storage
// goroutine and report the outcome back on the loop.
func (n *Node) handleRecovery(e *protocol.Envelope) {
	rb, ok := e.Payload.(protocol.RbMsg)
	if !ok {
		n.count("recovery.bad_frames", 1)
		return
	}
	if e.CtlTag != protocol.TagRbBegin && e.CtlTag != protocol.TagRbCommit {
		// RB_LINE/RB_ACK are coordinator-bound; a running node sees them
		// only as leftovers of a round it did not coordinate.
		n.count("recovery.stray_frames", 1)
		return
	}
	f := handshake.Frame{Peer: e.Src, Tag: e.CtlTag, Msg: rb}
	out, truncate := n.rb.Receive(f)
	n.sendRb(out)
	if truncate {
		n.postStorage(func() {
			ok := n.truncateDisk(rb.Line)
			n.post(func() { n.sendRb(n.rb.Truncated(f, ok)) })
		})
	}
}

func (n *Node) sendRb(frames []handshake.Frame) {
	for _, f := range frames {
		n.h.Send(&protocol.Envelope{Dst: f.Peer, Kind: protocol.KindCtl, CtlTag: f.Tag, Payload: f.Msg})
	}
}

// rbProcess is the node as its Participant reaches it.
type rbProcess struct{ n *Node }

func (p rbProcess) Epoch() int               { return p.n.h.Epoch() }
func (p rbProcess) DurableSeqs() []int       { return p.n.durableSeqs() }
func (p rbProcess) Rollback(line, epoch int) { p.n.rollbackTo(line, epoch) }

// durableSeqs is this process's vote in the recovery-line intersection:
// the on-disk manifest when the node has one, otherwise the in-memory
// finalized checkpoints (a diskless cluster can still agree on a line).
func (n *Node) durableSeqs() []int {
	if n.cfg.FS != nil {
		return n.cfg.FS.Manifest().Seqs
	}
	var seqs []int
	for _, rec := range n.cfg.Ckpts.Proc(n.cfg.ID).All() {
		if rec.Seq > 0 && rec.FinalizedAt != 0 {
			seqs = append(seqs, rec.Seq)
		}
	}
	return seqs
}

// rollbackTo executes a committed rollback in memory: the host's rollback
// step (fetch the line's record, discard the checkpoints above it, fence
// the epoch, replay the line's message log, rewind the protocol) and its
// resumption (re-send the line's logged sends, filter what the line holds,
// restart the application). A line this process never finalized is refused:
// the commit stays unacknowledged, so the coordinator's timeout surfaces
// the inconsistency instead of the cluster silently diverging. The
// Participant calls it, through rbProcess, from handleRecovery only.
func (n *Node) rollbackTo(line, epoch int) {
	rec, replayed, ok := n.h.Rollback(line, epoch)
	if !ok {
		n.count("recovery.line_missing", 1)
		return
	}
	n.mReplayed.Add(int64(replayed))
	n.h.Resume(&rec)
	n.recLine = line
	n.count("recovery.rollbacks", 1)
	n.mRollbacks.Inc()
	if n.cfg.OnRollback != nil {
		n.cfg.OnRollback(n.cfg.ID, line)
	}
}

// truncateDisk makes a rollback durable (vacuously without a store). It
// runs on the storage goroutine, after any persist already in its queue, so
// a rolled-back checkpoint cannot be written back post-truncate.
func (n *Node) truncateDisk(line int) bool {
	if fs := n.cfg.FS; fs != nil {
		if err := fs.TruncateAfter(line); err != nil {
			n.count("fsstore.errors", 1)
			return false
		}
		n.persisted = line
		n.completeDurable()
		n.held = nil // what is left waited on the records just discarded
	}
	return true
}
