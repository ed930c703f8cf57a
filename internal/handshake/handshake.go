// Package handshake is the whole policy of the RB_* recovery handshake
// (DESIGN.md §9) as two state machines that touch no socket, clock, disk,
// goroutine or counter: frames, ticks and truncation outcomes go in,
// frames to send and "truncate above this line" come out. Both live in
// host.Host, on both drivers: a survivor's Participant, and the
// Coordinator of a restarted process's round (Host.Recover). The I/O
// around them is the drivers', behind host.Driver.
package handshake

import (
	"slices"

	"ocsml/internal/protocol"
)

// Frame is one RB_* message: received from process Peer when it goes into
// a machine, to be sent to Peer when it comes out of one.
type Frame struct {
	Peer int
	Tag  string
	Msg  protocol.RbMsg
}

// Coordinator is the restarted incarnation's side. Both of its phases are
// one exchange: a frame to every survivor, again on each Tick to those
// that have not answered, until all have.
type Coordinator struct {
	self     int
	tag      string         // RB_BGN while collecting, RB_CMT from then on
	want     string         // the answer to it: RB_LINE, then RB_ACK
	msg      protocol.RbMsg // what tag carries; the decision once committing
	votes    [][]int        // by process: the manifests voted, its own included
	epoch    int            // highest epoch reported, its own included
	answered []bool         // by process, in the current phase; its own entry is set
}

// NewCoordinator starts a round for process self of n, whose durable
// manifest is seqs and which knows of no epoch above epoch. The round id
// scopes every reply to this attempt.
func NewCoordinator(self, n int, round int64, seqs []int, epoch int) *Coordinator {
	c := &Coordinator{self: self, votes: make([][]int, n), epoch: epoch}
	c.votes[self] = seqs
	c.exchange(protocol.TagRbBegin, protocol.TagRbLine, protocol.RbMsg{Round: round})
	return c
}

func (c *Coordinator) exchange(tag, want string, msg protocol.RbMsg) {
	c.tag, c.want, c.msg = tag, want, msg
	c.answered = make([]bool, len(c.votes))
	c.answered[c.self] = true
}

// Tick returns the current phase's frame for every survivor that has not
// answered it: the first broadcast when nobody has, nothing once Done.
func (c *Coordinator) Tick() []Frame {
	var out []Frame
	for j, ok := range c.answered {
		if !ok {
			out = append(out, Frame{Peer: j, Tag: c.tag, Msg: c.msg})
		}
	}
	return out
}

// Receive takes one frame off the wire and returns what to send for it:
// the RB_CMT broadcast when it is the last vote, otherwise nothing. A
// frame of another round or the other phase, a second answer and a source
// outside the cluster change nothing.
func (c *Coordinator) Receive(f Frame) []Frame {
	if f.Tag != c.want || f.Msg.Round != c.msg.Round ||
		f.Peer < 0 || f.Peer >= len(c.answered) || c.answered[f.Peer] {
		return nil
	}
	c.answered[f.Peer] = true
	if c.tag == protocol.TagRbCommit {
		return nil
	}
	c.votes[f.Peer] = f.Msg.Seqs
	c.epoch = max(c.epoch, f.Msg.Epoch)
	if slices.Contains(c.answered, false) {
		return nil
	}
	// A sequence number is a valid line only if every process has it
	// durable: the highest member of the true intersection, or the
	// initial state. The new epoch fences out every one reported.
	cmt := protocol.RbMsg{Round: c.msg.Round, Epoch: c.epoch + 1}
	if common := Intersect(c.votes); len(common) > 0 {
		cmt.Line = common[len(common)-1]
	}
	c.exchange(protocol.TagRbCommit, protocol.TagRbAck, cmt)
	return c.Tick()
}

// Done reports whether every survivor has acknowledged the commit: it has
// rolled back to the line and made that durable.
func (c *Coordinator) Done() bool {
	return c.tag == protocol.TagRbCommit && !slices.Contains(c.answered, false)
}

// Decision is the agreed line (0: the initial state) and the epoch the
// cluster adopts with it, meaningful once Done.
func (c *Coordinator) Decision() (line, epoch int) { return c.msg.Line, c.msg.Epoch }

// Process is what a Participant needs of the process it speaks for.
type Process interface {
	// Epoch is the process's current epoch.
	Epoch() int
	// DurableSeqs is its vote: the sequence numbers it holds durably.
	DurableSeqs() []int
	// Rollback rewinds the process to line in memory and raises its epoch
	// to epoch, or leaves both alone when it never finalized line.
	Rollback(line, epoch int)
}

// Participant is a survivor's side. Its RB_ACK promises that the
// rollback's truncation is durable, which happens after the in-memory
// rollback that raised the epoch, so it tracks per commit epoch whether
// that truncation is queued or has landed (0: none). Until it has landed
// the disk still holds what memory rolled back, so a vote in between
// stops at the line of that commit, the one in force.
type Participant struct {
	Proc           Process // the process it speaks for
	queued, landed int
	epoch, line    int // the commit in force (epoch 0: none since this incarnation started)
}

// Receive takes one frame off the wire and returns what to send for it.
// RB_BGN is always answered with the vote: the durable seqs, less those
// above the line of a rollback whose truncation has not landed — the
// process no longer holds them, and would refuse a line among them.
// RB_CMT rolls the process back iff its epoch is newer; a commit the
// process refused, or one a newer epoch has superseded (its coordinator is
// gone), gets no answer. Otherwise it is the commit in force or a
// rebroadcast of it: re-ACKed once its truncation has landed (a lost ACK
// must not stall the coordinator), ignored while that is queued, and with
// truncate set when there is none — the caller then truncates the disk
// above f.Msg.Line and reports through Truncated.
func (p *Participant) Receive(f Frame) (out []Frame, truncate bool) {
	switch f.Tag {
	case protocol.TagRbBegin:
		seqs := p.Proc.DurableSeqs()
		if p.epoch != p.landed {
			seqs = slices.DeleteFunc(slices.Clone(seqs), func(q int) bool { return q > p.line })
		}
		return []Frame{{Peer: f.Peer, Tag: protocol.TagRbLine, Msg: protocol.RbMsg{
			Round: f.Msg.Round, Epoch: p.Proc.Epoch(), Seqs: seqs,
		}}}, false
	case protocol.TagRbCommit:
		if f.Msg.Epoch > p.Proc.Epoch() {
			p.Proc.Rollback(f.Msg.Line, f.Msg.Epoch)
		}
		if f.Msg.Epoch != p.Proc.Epoch() {
			return nil, false
		}
		p.epoch, p.line = f.Msg.Epoch, f.Msg.Line
		switch f.Msg.Epoch {
		case p.landed:
			return ack(f), false
		case p.queued:
			return nil, false
		}
		p.queued = f.Msg.Epoch
		return nil, true
	}
	return nil, false
}

// Truncated reports the outcome of the truncation Receive asked for with
// commit f, and returns its RB_ACK when it landed. A failed one is
// forgotten, so the next rebroadcast queues it again.
func (p *Participant) Truncated(f Frame, ok bool) []Frame {
	if ok {
		p.landed = f.Msg.Epoch
		return ack(f)
	}
	if p.queued == f.Msg.Epoch {
		p.queued = 0
	}
	return nil
}

// ack echoes commit cmt's round, line and epoch to its coordinator.
func ack(cmt Frame) []Frame {
	return []Frame{{Peer: cmt.Peer, Tag: protocol.TagRbAck, Msg: cmt.Msg}}
}

// Intersect returns the sequence numbers present in every one of the
// groups, ascending. It is a true intersection: a sequence number counts
// only if every group has it, so gaps in one manifest (possible after a
// rebuild over a damaged log) cannot surface a line some process lacks.
// The Coordinator applies it to the RB_LINE reports, which need not be
// sorted or free of repeats; lists that ascend strictly, as manifests do,
// intersect in place with fsstore.IntersectSeqs.
func Intersect(groups [][]int) []int {
	if len(groups) == 0 {
		return nil
	}
	count := map[int]int{}
	for _, group := range groups {
		seen := map[int]bool{}
		for _, q := range group {
			if !seen[q] {
				seen[q] = true
				count[q]++
			}
		}
	}
	var seqs []int
	for q, c := range count {
		if c == len(groups) {
			seqs = append(seqs, q)
		}
	}
	slices.Sort(seqs)
	return seqs
}
