package transport

import (
	"ocsml/internal/checkpoint"
	"ocsml/internal/protocol"
)

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
		if rb.Epoch <= n.h.Epoch() {
			// Rebroadcast of a commit we already executed (or a commit
			// superseded by a newer epoch): re-ACK so a lost ACK cannot
			// stall the coordinator, but do not roll back again.
			n.sendRb(e.Src, protocol.TagRbAck, protocol.RbMsg{Round: rb.Round, Line: rb.Line, Epoch: rb.Epoch})
			return
		}
		src, ack := e.Src, protocol.RbMsg{Round: rb.Round, Line: rb.Line, Epoch: rb.Epoch}
		n.rollbackTo(rb.Line, rb.Epoch, func() {
			n.post(func() { n.sendRb(src, protocol.TagRbAck, ack) })
		})
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

// rollbackTo executes a committed rollback on this node: truncate
// checkpoints above the line in memory and on disk, then the host's
// rollback step (fence the epoch, replay the line's durable message log,
// rewind the protocol) and the application restart. onDurable fires once
// the on-disk truncation has committed (immediately when the node has no
// store) — the signal that it is safe to acknowledge the coordinator.
func (n *Node) rollbackTo(line, epoch int, onDurable func()) {
	rec, ok := n.recordAt(line)
	if !ok {
		// A line this process never finalized cannot be restored; leave
		// the commit unacknowledged so the coordinator's timeout surfaces
		// the inconsistency instead of silently diverging.
		n.count("recovery.line_missing", 1)
		return
	}
	n.cfg.Ckpts.Proc(n.cfg.ID).TruncateAfter(line)
	if fs := n.cfg.FS; fs != nil {
		// Disk truncation runs on the storage goroutine, after any persist
		// already in its queue, so a rolled-back checkpoint cannot be
		// written back post-truncate.
		n.postStorage(func() {
			if err := fs.TruncateAfter(line); err != nil {
				n.count("fsstore.errors", 1)
				return // no ACK: the truncation must land before we commit
			}
			n.persisted = line
			n.completeDurable()
			n.held = nil // what is left waited on the records just discarded
			if onDurable != nil {
				onDurable()
			}
		})
	} else if onDurable != nil {
		onDurable()
	}
	n.mReplayed.Add(int64(n.h.Rollback(line, epoch, &rec)))
	n.h.RestartApp(rec.CFEProgress)
	n.recLine = line
	n.count("recovery.rollbacks", 1)
	n.mRollbacks.Inc()
	if n.cfg.OnRollback != nil {
		n.cfg.OnRollback(n.cfg.ID, line)
	}
}

// recordAt fetches the checkpoint record at the recovery line, preferring
// the in-memory store and falling back to disk. Line 0 is the initial
// state and needs no record.
func (n *Node) recordAt(line int) (checkpoint.Record, bool) {
	if rec, ok := n.cfg.Ckpts.Proc(n.cfg.ID).Get(line); ok {
		return rec, true
	}
	if n.cfg.FS != nil {
		if rec, err := n.cfg.FS.Load(line); err == nil {
			return rec, true
		}
	}
	if line == 0 {
		return checkpoint.Record{}, true
	}
	return checkpoint.Record{}, false
}
