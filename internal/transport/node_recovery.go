package transport

import "ocsml/internal/protocol"

// handleRecovery processes one RB_* frame on the node's loop goroutine.
// Recovery frames bypass the protocol stack entirely — no reliable-layer
// dedup or acks, no epoch fencing (the coordinator predates the epoch it
// is about to establish) — so every handler here must be idempotent
// against the coordinator's rebroadcast.
func (n *Node) handleRecovery(e *protocol.Envelope) {
	rb, ok := e.Payload.(protocol.RbMsg)
	if !ok {
		n.count("recovery.bad_frames", 1)
		return
	}
	switch e.CtlTag {
	case protocol.TagRbBegin:
		n.sendRb(e.Src, protocol.TagRbLine, protocol.RbMsg{
			Round: rb.Round, Epoch: n.h.Epoch(), Seqs: n.durableSeqs(),
		})
	case protocol.TagRbCommit:
		if rb.Epoch > n.h.Epoch() {
			n.rollbackTo(rb.Line, rb.Epoch)
		}
		if rb.Epoch != n.h.Epoch() {
			return // refused, or superseded by a newer epoch (its coordinator is gone)
		}
		// The commit just executed, or a rebroadcast of it. The ACK promises
		// the on-disk truncation, which lands after the in-memory rollback
		// that raised the epoch: a duplicate is re-ACKed (a lost ACK must
		// not stall the coordinator) only once it has landed, is ignored
		// while it is queued, and queues it again after a failure.
		ack := func() {
			n.sendRb(e.Src, protocol.TagRbAck, protocol.RbMsg{Round: rb.Round, Line: rb.Line, Epoch: rb.Epoch})
		}
		switch rb.Epoch {
		case n.rbDurable:
			ack()
		case n.rbQueued: // its ACK follows the truncation
		default:
			n.rbQueued = rb.Epoch
			n.postStorage(func() {
				ok := n.truncateDisk(rb.Line)
				n.post(func() {
					if ok {
						n.rbDurable = rb.Epoch
						ack()
					} else if n.rbQueued == rb.Epoch {
						n.rbQueued = 0
					}
				})
			})
		}
	default:
		// RB_LINE/RB_ACK are coordinator-bound; a running node sees them
		// only as leftovers of a round it did not coordinate.
		n.count("recovery.stray_frames", 1)
	}
}

func (n *Node) sendRb(dst int, tag string, rb protocol.RbMsg) {
	n.h.Send(&protocol.Envelope{Dst: dst, Kind: protocol.KindCtl, CtlTag: tag, Payload: rb})
}

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
// the epoch, replay the line's message log, rewind the protocol) and the
// application restart. A line this process never finalized is refused:
// the commit stays unacknowledged, so the coordinator's timeout surfaces
// the inconsistency instead of the cluster silently diverging.
func (n *Node) rollbackTo(line, epoch int) {
	rec, replayed, ok := n.h.Rollback(line, epoch)
	if !ok {
		n.count("recovery.line_missing", 1)
		return
	}
	n.mReplayed.Add(int64(replayed))
	n.h.RestartApp(rec.CFEProgress)
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
