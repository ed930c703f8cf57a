package protocol

import "strings"

// Recovery control tags: the wire-level recovery coordinator's handshake
// (see internal/transport and DESIGN.md). A crashed process's restarted
// incarnation binds the victim's address and drives the protocol:
//
//	RB_BGN   coordinator -> peers    "report your durable line"
//	RB_LINE  peer -> coordinator     durable manifest seqs + current epoch
//	RB_CMT   coordinator -> peers    agreed line + post-rollback epoch
//	RB_ACK   peer -> coordinator     rollback durably committed
//
// Recovery frames live below the checkpointing protocol stack: transports
// handle them directly, ahead of epoch fencing (a coordinator cannot yet
// know the cluster's post-rollback epoch) and outside any ack/retransmit
// middleware (the coordinator retries by rebroadcast; every handler is
// idempotent).
const (
	TagRbBegin  = "RB_BGN"
	TagRbLine   = "RB_LINE"
	TagRbCommit = "RB_CMT"
	TagRbAck    = "RB_ACK"
)

// TagDSN is the storage GC's durable report (internal/transport, DESIGN.md
// §14.3): a process tells every peer how far its store is durable, in a
// core.CtlMsg whose Csn is that seq. It is not a recovery tag, and like
// them it bypasses the checkpointing protocol stack.
const TagDSN = "DSN"

// IsRecoveryTag reports whether tag names a recovery control message.
func IsRecoveryTag(tag string) bool { return strings.HasPrefix(tag, "RB_") }

// RbMsg is the payload of every RB_* control message.
type RbMsg struct {
	// Round identifies one coordination attempt. Replies echo it; the
	// coordinator ignores frames from any other round, so leftovers of an
	// abandoned attempt cannot corrupt a later one.
	Round int64
	// Line is the agreed recovery line (RB_CMT and RB_ACK).
	Line int
	// Epoch is the sender's current epoch in an RB_LINE report, and the
	// post-rollback epoch the cluster must adopt in RB_CMT/RB_ACK.
	Epoch int
	// Seqs lists the sender's durably finalized sequence numbers
	// (RB_LINE) — its vote in the recovery-line intersection.
	Seqs []int
}

// Own implements Owner for the decoder's view; empty Seqs become nil.
func (m *RbMsg) Own() any {
	c := *m
	c.Seqs = append([]int(nil), m.Seqs...)
	return c
}
