// Package protomodel is a finite, executable model of the paper's
// Figure-3 protocol (optimistic checkpointing with selective message
// logging) and a bounded explicit-state explorer over it.
//
// The model is the checker's twin of internal/core: per-process state
// is (csn, stat, tentSet) plus the selective log of the open tentative
// interval, the network is one FIFO channel per ordered process pair
// (the TCP transport the runtime assumes), and the actions are exactly
// the protocol's moves — initiate a checkpoint, send an application
// message carrying the (csn, stat, tentSet) piggyback, deliver the head
// of a channel through the Figure-3 receive rules, or crash the system
// back to its recovery line. Control messages (Figure 4) are a liveness
// device and carry no application state; the model checks the safety
// theorems over the pure Figure-3 algorithm (Options.Timeout = 0 in
// internal/core terms).
//
// The model and the implementation are kept in step by running both:
// the package's differential test performs every action on real
// core.Protocol instances too and requires, after each step, equal
// (csn, stat, tentSet), log length and finalized sequence number per
// process, equal piggybacks on every send, equal finalized logs and join
// messages, and a core panic exactly where the model reports
// PropInvariant — over every reachable (state, action) pair at N=2 and
// random walks at N=3..4 (DESIGN.md §16.1). A theorem checked here is therefore a statement
// about internal/core within those bounds, not about a look-alike.
//
// Four safety properties are checked during exploration and on the
// emitted traces:
//
//	P1 (cut consistency)  — delivering a message whose sender had
//	    finalized S_k must find the receiver finalized for S_k too;
//	    otherwise the receive is an orphan of cut S_k (Theorem 2).
//	P2 (replay exactness) — at finalization the selective log must
//	    list exactly the messages processed in the tentative interval,
//	    and every in-flight message sent while tentative must be in
//	    the send log (selective logging suffices for exactly-once
//	    replay).
//	P3 (Z-cycle freedom)  — the rollback-dependency graph of every
//	    emitted trace is acyclic (trace.ZCycles), so recovery lines
//	    never roll back past themselves.
//	P4 (line channel state) — a message its sender logged in round k
//	    and its receiver processed before finalizing k is in the
//	    receiver's logR_k or is the message it joined round k on
//	    (joined_k): the checkpoint holds that receive, so recovery, which
//	    re-sends the line's logged sends, knows to drop it. A rule that
//	    drops only logged receives would process the join message twice.
//
// Mutations inject the classic implementation mistakes (drop a log
// append, reorder finalize against the receive, skip the piggyback
// examination, forget the join) to prove the checker bites; each must
// yield a counterexample trace replayable by cmd/tracecheck.
package protomodel

import (
	"fmt"

	"ocsml/internal/des"
	"ocsml/internal/trace"
)

// Status mirrors core.Status for the model's two process states.
type Status int8

const (
	// Normal means no unfinalized tentative checkpoint exists.
	Normal Status = iota
	// Tentative means a tentative checkpoint awaits finalization.
	Tentative
)

func (s Status) String() string {
	if s == Normal {
		return "normal"
	}
	return "tentative"
}

// A Mutation injects one deliberate protocol bug (one-shot: it applies
// at the first opportunity only, so the run can still complete the cut
// and exhibit the violation in a finished trace).
type Mutation uint8

const (
	// MutNone is the faithful protocol.
	MutNone Mutation = iota
	// MutDropLog skips one logSet append for a message received while
	// tentative — selective logging no longer suffices for replay (P2).
	MutDropLog
	// MutReorderFinalize runs the triggered finalization AFTER the
	// receive instead of before it: the cut point moves past the
	// message, making it an orphan of S_k (P1).
	MutReorderFinalize
	// MutSkipConsume skips the pre-delivery piggyback examination once:
	// the receiver misses the finalize-before-receive rule and logs a
	// message the sender excluded from the cut (P1).
	MutSkipConsume
	// MutForgetJoin has case 4b join a round without recording the
	// message it joined on: the checkpoint's state holds that receive,
	// but nothing says so, and recovery would process it again (P4).
	MutForgetJoin
)

var mutationNames = map[Mutation]string{
	MutNone: "none", MutDropLog: "drop-log",
	MutReorderFinalize: "reorder-finalize", MutSkipConsume: "skip-consume",
	MutForgetJoin: "forget-join",
}

func (m Mutation) String() string {
	if n, ok := mutationNames[m]; ok {
		return n
	}
	return fmt.Sprintf("mutation(%d)", uint8(m))
}

// ParseMutation resolves a mutation by its flag name.
func ParseMutation(name string) (Mutation, bool) {
	for m, n := range mutationNames {
		if n == name {
			return m, true
		}
	}
	return MutNone, false
}

// Mutations lists the injectable bugs (excluding MutNone).
func Mutations() []Mutation {
	return []Mutation{MutDropLog, MutReorderFinalize, MutSkipConsume, MutForgetJoin}
}

// Config bounds one exploration.
type Config struct {
	N          int // processes (2..4 are tractable)
	MaxMsgs    int // total application sends across the run
	MaxInits   int // total spontaneous checkpoint initiations
	MaxCrashes int // total whole-system crash/rollback events
	Mutation   Mutation
	// MaxStates caps the visited-state set as a runaway backstop;
	// 0 means the package default (2^22).
	MaxStates int
}

// msg is one in-flight application message with its piggyback — M.csn,
// M.stat, M.tentSet in the paper's notation, snapshotted at send time.
type msg struct {
	id       int16
	src, dst int8
	pbCsn    int8
	pbStat   Status
	pbTent   uint16
}

// proc is one process's protocol state plus the replay bookkeeping of
// its open tentative interval.
type proc struct {
	csn  int8
	stat Status
	tent uint16 // bitmask of processes known tentative at csn
	fin  int8   // highest finalized sequence number

	processed []int16 // messages processed while tentative (since CT)
	logR      []int16 // selective log, received entries
	logS      []int16 // selective log, sent entries

	// joined is the message this process joined its open round on (case
	// 4b), 0 when it initiated the round or has none open. inflow lists
	// the messages it processed, since its last finalization, that their
	// senders logged in the round it is in or about to join (P4).
	joined int16
	inflow []int16
}

// state is one node of the explored transition system.
type state struct {
	cfg    *Config
	procs  []proc
	chans  [][]msg // FIFO channel per src*N+dst
	msgs   int16   // remaining send budget
	inits  int16   // remaining initiation budget
	crash  int16   // remaining crash budget
	nextID int16
	// mutUsed marks the one-shot mutation as spent.
	mutUsed bool
}

func newState(cfg *Config) *state {
	return &state{
		cfg:   cfg,
		procs: make([]proc, cfg.N),
		chans: make([][]msg, cfg.N*cfg.N),
		msgs:  int16(cfg.MaxMsgs),
		inits: int16(cfg.MaxInits),
		crash: int16(cfg.MaxCrashes),
		// Message ids start at 1: a record's JoinedBy 0 means "none".
		nextID: 1,
	}
}

func (s *state) full() uint16 { return 1<<uint(s.cfg.N) - 1 }

// clone deep-copies the state so apply can mutate in place.
func (s *state) clone() *state {
	c := &state{
		cfg: s.cfg, msgs: s.msgs, inits: s.inits, crash: s.crash,
		nextID: s.nextID, mutUsed: s.mutUsed,
		procs: make([]proc, len(s.procs)),
		chans: make([][]msg, len(s.chans)),
	}
	for i, p := range s.procs {
		p.processed = append([]int16(nil), p.processed...)
		p.logR = append([]int16(nil), p.logR...)
		p.logS = append([]int16(nil), p.logS...)
		p.inflow = append([]int16(nil), p.inflow...)
		c.procs[i] = p
	}
	for i, ch := range s.chans {
		c.chans[i] = append([]msg(nil), ch...)
	}
	return c
}

// key renders the state canonically for the visited set.
func (s *state) key() string {
	b := make([]byte, 0, 64)
	put := func(vs ...int16) {
		for _, v := range vs {
			b = append(b, byte(v), byte(v>>8))
		}
	}
	put(s.msgs, s.inits, s.crash, s.nextID)
	if s.mutUsed {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	for i := range s.procs {
		p := &s.procs[i]
		put(int16(p.csn), int16(p.stat), int16(p.tent), int16(p.fin))
		put(int16(len(p.processed)), int16(len(p.logR)), int16(len(p.logS)), p.joined, int16(len(p.inflow)))
		put(p.processed...)
		put(p.logR...)
		put(p.logS...)
		put(p.inflow...)
	}
	for _, ch := range s.chans {
		put(int16(len(ch)))
		for _, m := range ch {
			put(m.id, int16(m.src), int16(m.dst), int16(m.pbCsn), int16(m.pbStat), int16(m.pbTent))
		}
	}
	return string(b)
}

// ---- properties ----

// Prop identifies which checked property a violation breaks.
type Prop uint8

const (
	// PropOrphan is P1: a finalized cut S_k admits an orphan message.
	PropOrphan Prop = iota
	// PropReplay is P2: the selective log does not suffice for replay.
	PropReplay
	// PropInvariant is an internal protocol invariant the
	// implementation enforces with a panic (impossible piggyback).
	PropInvariant
	// PropChannel is P4: a checkpoint does not hold a logged send its
	// state reflects.
	PropChannel
)

func (p Prop) String() string {
	switch p {
	case PropOrphan:
		return "orphan"
	case PropReplay:
		return "replay"
	case PropChannel:
		return "channel"
	default:
		return "invariant"
	}
}

// A Violation is one property breach found during exploration.
type Violation struct {
	Prop Prop
	Seq  int // checkpoint cut S_k the property is violated for
	Proc int // process at which the breach was detected
	Msg  int // offending message id, -1 when not message-specific
	Desc string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s violation at P%d, cut S_%d: %s", v.Prop, v.Proc, v.Seq, v.Desc)
}

// ---- actions ----

// Op is an action kind.
type Op uint8

const (
	// OpInit has process P spontaneously initiate a checkpoint.
	OpInit Op = iota
	// OpSend has process P send an application message to Q.
	OpSend
	// OpDeliver has process P deliver the head of the Q->P channel.
	OpDeliver
	// OpCrash rolls the whole system back to its recovery line.
	OpCrash
)

// An Action is one transition of the explored system.
type Action struct {
	Op   Op
	P, Q int
}

func (a Action) String() string {
	switch a.Op {
	case OpInit:
		return fmt.Sprintf("init(P%d)", a.P)
	case OpSend:
		return fmt.Sprintf("send(P%d->P%d)", a.P, a.Q)
	case OpDeliver:
		return fmt.Sprintf("deliver(P%d<-P%d)", a.P, a.Q)
	default:
		return "crash"
	}
}

// enabled lists the actions applicable in s, in deterministic order.
// allowCrash=false restricts to crash-free continuations (used when
// completing a cut for a counterexample trace).
func (s *state) enabled(allowCrash bool) []Action {
	var out []Action
	n := s.cfg.N
	if s.inits > 0 {
		for p := 0; p < n; p++ {
			if s.procs[p].stat == Normal {
				out = append(out, Action{OpInit, p, 0})
			}
		}
	}
	if s.msgs > 0 {
		for p := 0; p < n; p++ {
			for q := 0; q < n; q++ {
				if p != q {
					out = append(out, Action{OpSend, p, q})
				}
			}
		}
	}
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			if p != q && len(s.chans[q*n+p]) > 0 {
				out = append(out, Action{OpDeliver, p, q})
			}
		}
	}
	if allowCrash && s.crash > 0 {
		out = append(out, Action{OpCrash, 0, 0})
	}
	return out
}

// ---- semantics (the Figure-3 receive rules, mirroring internal/core) ----

// emitter optionally records trace events while replaying a path.
type emitter struct {
	gseq   int64
	events []trace.Event
}

func (em *emitter) emit(k trace.Kind, procID, peer int, msgID int64, seq int) {
	if em == nil {
		return
	}
	em.gseq++
	em.events = append(em.events, trace.Event{
		GSeq: em.gseq, T: des.Time(em.gseq), Kind: k,
		Proc: procID, Peer: peer, MsgID: msgID, Seq: seq,
	})
}

// apply executes one action in place, returning any violations the step
// exposes.
func (s *state) apply(a Action, em *emitter) []Violation {
	switch a.Op {
	case OpInit:
		s.inits--
		s.takeTentative(a.P, em)
		return nil
	case OpSend:
		s.send(a.P, a.Q, em)
		return nil
	case OpDeliver:
		return s.deliver(a.P, a.Q, em)
	default:
		s.doCrash(em)
		return nil
	}
}

// takeTentative is the paper's takeTentativeCheckpoint(i).
func (s *state) takeTentative(p int, em *emitter) {
	pr := &s.procs[p]
	if pr.stat != Normal {
		panic("protomodel: takeTentative while tentative")
	}
	pr.csn++
	pr.stat = Tentative
	pr.tent = 1 << uint(p)
	pr.processed, pr.logR, pr.logS = nil, nil, nil
	pr.joined = 0
	em.emit(trace.KTentative, p, -1, 0, int(pr.csn))
}

// finalize flushes the tentative checkpoint: the P2 obligations are
// checked at this moment, exactly when the implementation writes
// logSet to stable storage.
func (s *state) finalize(p int, em *emitter) []Violation {
	pr := &s.procs[p]
	if pr.stat != Tentative {
		panic("protomodel: finalize while normal")
	}
	var vs []Violation
	if !equalIDs(pr.logR, pr.processed) {
		vs = append(vs, Violation{
			Prop: PropReplay, Seq: int(pr.csn), Proc: p, Msg: firstMissing(pr.processed, pr.logR),
			Desc: fmt.Sprintf("finalizing S_%d with log %v but processed %v: replay from the selective log cannot reproduce the interval", pr.csn, pr.logR, pr.processed),
		})
	}
	for dst := 0; dst < s.cfg.N; dst++ {
		for _, m := range s.chans[p*s.cfg.N+dst] {
			if m.pbStat == Tentative && m.pbCsn == pr.csn && !containsID(pr.logS, m.id) {
				vs = append(vs, Violation{
					Prop: PropReplay, Seq: int(pr.csn), Proc: p, Msg: int(m.id),
					Desc: fmt.Sprintf("finalizing S_%d with in-flight tentative message %d absent from the send log", pr.csn, m.id),
				})
			}
		}
	}
	for _, id := range pr.inflow {
		if id != pr.joined && !containsID(pr.logR, id) {
			vs = append(vs, Violation{
				Prop: PropChannel, Seq: int(pr.csn), Proc: p, Msg: int(id),
				Desc: fmt.Sprintf("finalizing S_%d, whose state holds msg %d logged in round %d by its sender, with neither a log entry nor the join for it: recovery would process it again", pr.csn, id, pr.csn),
			})
		}
	}
	pr.stat = Normal
	pr.tent = 0
	pr.fin = pr.csn
	pr.processed, pr.logR, pr.logS = nil, nil, nil
	pr.joined, pr.inflow = 0, nil
	em.emit(trace.KFinalize, p, -1, 0, int(pr.csn))
	return vs
}

// send attaches the piggyback snapshot and, while tentative, logs the
// send (core.OnAppSend).
func (s *state) send(p, q int, em *emitter) {
	pr := &s.procs[p]
	id := s.nextID
	s.nextID++
	s.msgs--
	s.chans[p*s.cfg.N+q] = append(s.chans[p*s.cfg.N+q], msg{
		id: id, src: int8(p), dst: int8(q),
		pbCsn: pr.csn, pbStat: pr.stat, pbTent: pr.tent,
	})
	em.emit(trace.KSend, p, q, int64(id), -1)
	if pr.stat == Tentative {
		pr.logS = append(pr.logS, id)
		em.emit(trace.KLogSend, p, q, int64(id), int(pr.csn))
	}
}

// deliver pops the head of the Q->P channel and applies the Figure-3
// receive rules (core.OnDeliver + AfterApp). The P1 orphan check
// runs after the pre-delivery rule, at the moment the receive event is
// committed: the sender's piggyback proves how many cuts the sender had
// finalized at send time, and the receive is an orphan of cut S_k when
// the receiver has not finalized k yet.
func (s *state) deliver(p, q int, em *emitter) []Violation {
	n := s.cfg.N
	ch := s.chans[q*n+p]
	m := ch[0]
	s.chans[q*n+p] = ch[1:]
	pr := &s.procs[p]
	var vs []Violation

	if m.pbCsn > pr.csn+1 || (m.pbStat == Normal && pr.stat == Tentative && m.pbCsn > pr.csn) {
		// The implementation panics on these (Fig. 3 cases 2d/4c/3c:
		// impossible under a correct protocol).
		vs = append(vs, Violation{
			Prop: PropInvariant, Seq: int(m.pbCsn), Proc: p, Msg: int(m.id),
			Desc: fmt.Sprintf("impossible piggyback (csn=%d stat=%s) at P%d (csn=%d stat=%s)", m.pbCsn, m.pbStat, p, pr.csn, pr.stat),
		})
	}

	// Pre-delivery rule (cases 3b and 2c): finalization triggered by
	// the piggyback happens BEFORE the receive event; the message is
	// excluded from the log and the cut point precedes it.
	reorder := false
	if pr.stat == Tentative {
		trigger := (m.pbStat == Normal && m.pbCsn == pr.csn) ||
			(m.pbStat == Tentative && m.pbCsn == pr.csn+1)
		if trigger {
			switch {
			case s.cfg.Mutation == MutSkipConsume && !s.mutUsed:
				s.mutUsed = true // bug: piggyback never examined
			case s.cfg.Mutation == MutReorderFinalize && !s.mutUsed:
				s.mutUsed = true
				reorder = true // bug: finalize moved after the receive
			default:
				vs = append(vs, s.finalize(p, em)...)
			}
		}
	}

	// P1: orphan detection at the commit point of the receive.
	senderFin := m.pbCsn
	if m.pbStat == Tentative {
		senderFin--
	}
	recvFin := pr.csn
	if pr.stat == Tentative {
		recvFin--
	}
	if senderFin > recvFin {
		vs = append(vs, Violation{
			Prop: PropOrphan, Seq: int(senderFin), Proc: p, Msg: int(m.id),
			Desc: fmt.Sprintf("P%d receives msg %d inside cut S_%d, but P%d sent it after finalizing S_%d: orphan", p, m.id, senderFin, q, senderFin),
		})
	}

	// Process the message; while tentative it joins the interval's
	// processed set and (absent the drop-log bug) the selective log.
	em.emit(trace.KRecv, p, q, int64(m.id), -1)
	round := pr.csn
	if pr.stat == Normal {
		round++
	}
	if m.pbStat == Tentative && m.pbCsn == round {
		pr.inflow = append(pr.inflow, m.id)
	}
	if pr.stat == Tentative {
		pr.processed = append(pr.processed, m.id)
		if s.cfg.Mutation == MutDropLog && !s.mutUsed {
			s.mutUsed = true // bug: log append dropped
		} else {
			pr.logR = append(pr.logR, m.id)
			em.emit(trace.KLogRecv, p, q, int64(m.id), int(pr.csn))
		}
	}

	if reorder {
		vs = append(vs, s.finalize(p, em)...)
	}

	// AfterApp (cases 2b and 4b).
	switch pr.stat {
	case Tentative:
		if m.pbStat == Tentative && m.pbCsn == pr.csn {
			pr.tent |= m.pbTent
			if pr.tent == s.full() {
				vs = append(vs, s.finalize(p, em)...)
			}
		}
	case Normal:
		if m.pbStat == Tentative && m.pbCsn == pr.csn+1 {
			s.takeTentative(p, em)
			if s.cfg.Mutation == MutForgetJoin && !s.mutUsed {
				s.mutUsed = true // bug: the join goes unrecorded
			} else {
				pr.joined = m.id
				em.emit(trace.KJoin, p, q, int64(m.id), int(pr.csn))
			}
			pr.tent |= m.pbTent
			if pr.tent == s.full() {
				vs = append(vs, s.finalize(p, em)...)
			}
		}
	}
	return vs
}

// doCrash rolls every process back to the recovery line S_L, L = the
// smallest finalized sequence number (each process restores its own
// finalized S_L checkpoint; Theorem 2 makes the line consistent). In-
// flight messages are lost with the crash; logged ones are replayed
// from stable storage, which the model folds into the restored state.
func (s *state) doCrash(em *emitter) {
	s.crash--
	line := s.procs[0].fin
	for _, pr := range s.procs[1:] {
		if pr.fin < line {
			line = pr.fin
		}
	}
	for i := range s.procs {
		em.emit(trace.KFail, i, -1, 0, -1)
	}
	for i := range s.procs {
		pr := &s.procs[i]
		pr.csn = line
		pr.stat = Normal
		pr.tent = 0
		pr.fin = line
		pr.processed, pr.logR, pr.logS = nil, nil, nil
		pr.joined, pr.inflow = 0, nil
		em.emit(trace.KRestore, i, -1, 0, int(line))
	}
	for i := range s.chans {
		s.chans[i] = nil
	}
}

// minFin is the lowest finalized sequence across processes.
func (s *state) minFin() int {
	line := s.procs[0].fin
	for _, pr := range s.procs[1:] {
		if pr.fin < line {
			line = pr.fin
		}
	}
	return int(line)
}

func equalIDs(a, b []int16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsID(ids []int16, id int16) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// firstMissing returns the first id in want absent from got (-1 if
// none — e.g. an ordering mismatch).
func firstMissing(want, got []int16) int {
	for _, id := range want {
		if !containsID(got, id) {
			return int(id)
		}
	}
	return -1
}
