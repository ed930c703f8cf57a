package trace

import (
	"iter"
	"slices"
)

// This file is the one checker of the paper's Theorem 2: every S_k is a
// consistent cut, one no message enters (received inside, sent outside).
// The one cut rule: C_{i,k}, P_i's checkpoint of S_k, is P_i's last event
// with Seq k of the cut kind, KForced counting as KCheckpoint (a CIC
// protocol's forced checkpoints are checkpoints); S_0 is the initial state.

func isCut(cutKind, k Kind) bool { return k == cutKind || (cutKind == KCheckpoint && k == KForced) }

// CutKind is the cut kind of a history: KFinalize, the paper's
// finalization events, when it holds any, otherwise KCheckpoint, the
// baselines' monolithic checkpoints.
func CutKind(events []Event) Kind { return cutKind(slices.Values(events)) }

// CutKind is the cut kind of the recorded history.
func (r *Recorder) CutKind() Kind { return cutKind(r.history().all) }

func cutKind(events iter.Seq[Event]) Kind {
	for e := range events {
		if e.Kind == KFinalize {
			return KFinalize
		}
	}
	return KCheckpoint
}

// CutSeqs returns, ascending, every k > 0 some process has a checkpoint of.
func CutSeqs(events []Event, kind Kind) []int {
	var seqs []int
	for _, e := range events {
		if isCut(kind, e.Kind) && e.Seq > 0 {
			seqs = append(seqs, e.Seq)
		}
	}
	slices.Sort(seqs)
	return slices.Compact(seqs)
}

// Cut is a global cut: for each process i, events with GSeq <= At[i]
// belong to the cut (the "past"). A zero entry means the cut for that
// process lies before all of its events.
type Cut struct {
	At []int64
}

// NewCut returns a cut before all events for n processes.
func NewCut(n int) Cut { return Cut{At: make([]int64, n)} }

func (c Cut) holds(proc int, g int64) bool {
	return proc >= 0 && proc < len(c.At) && g != 0 && g <= c.At[proc]
}

// MsgCrossing describes a message that crosses a cut.
type MsgCrossing struct {
	MsgID    int64
	Src, Dst int
	SendG    int64 // GSeq of the send event (0 if unknown)
	RecvG    int64 // GSeq of the receive event (0 if not received)
}

// Report is the result of checking a cut for consistency.
type Report struct {
	// Orphans are messages received inside the cut but sent outside —
	// their existence makes the cut inconsistent.
	Orphans []MsgCrossing
	// InFlight are messages sent inside the cut but not received inside
	// (the "channel state"); these are legal but must be replayed or
	// logged for a complete recovery.
	InFlight []MsgCrossing
}

// Consistent reports whether the cut has no orphan messages.
func (rep *Report) Consistent() bool { return len(rep.Orphans) == 0 }

// Global is the verdict on S_Seq. Cut and Report are empty unless
// Complete: every process has its checkpoint of S_Seq.
type Global struct {
	Seq      int
	Complete bool
	Cut      Cut
	Report
}

// CheckGlobals checks S_k of processes 0..n-1 for every k in seqs, under
// the cut rule for kind, in three walks of the history however many seqs
// there are: one builds every cut, one pairs each message's send and
// receive, one classifies each message against every complete cut. It
// returns one Global per seq, in seqs' order.
func (r *Recorder) CheckGlobals(n int, kind Kind, seqs []int) []Global {
	return checkGlobals(r.history().all, n, kind, seqs)
}

// CheckGlobalEvents is CheckGlobals over an explicit event slice.
func CheckGlobalEvents(events []Event, n int, kind Kind, seqs []int) []Global {
	return checkGlobals(slices.Values(events), n, kind, seqs)
}

// CheckCut verifies the cut against all application messages in the trace.
// Control messages are excluded: they are not part of the computation's
// state (the paper's consistency definition ranges over application
// messages).
func (r *Recorder) CheckCut(cut Cut) Report { return checkCut(r.history().all, cut) }

// CheckEvents is CheckCut over an explicit event slice (used by tests and
// by offline trace files).
func CheckEvents(events []Event, cut Cut) Report { return checkCut(slices.Values(events), cut) }

// checkCut is checkCuts on one explicit cut, after a walk that counts the
// sends.
func checkCut(events iter.Seq[Event], cut Cut) Report {
	sends := 0
	for e := range events {
		if e.Kind == KSend {
			sends++
		}
	}
	return checkCuts(events, []Cut{cut}, sends)[0]
}

// LineCut returns the cut through each process i's checkpoint line[i] (0:
// its initial state) under the cut rule, false when events lack one.
func LineCut(events []Event, kind Kind, line []int) (Cut, bool) {
	cuts, _ := lineCuts(slices.Values(events), kind, [][]int{line})
	return cuts[0], cuts[0].At != nil
}

func checkGlobals(events iter.Seq[Event], n int, kind Kind, seqs []int) []Global {
	lines := make([][]int, len(seqs))
	for j, seq := range seqs {
		lines[j] = slices.Repeat([]int{seq}, n)
	}
	cuts, sends := lineCuts(events, kind, lines)
	reps := checkCuts(events, cuts, sends)
	gs := make([]Global, len(seqs))
	for j, seq := range seqs {
		gs[j] = Global{Seq: seq, Complete: cuts[j].At != nil, Cut: cuts[j], Report: reps[j]}
	}
	return gs
}

// lineCuts builds the cut of every line in one walk of the events, which
// also counts the sends; a line missing a checkpoint gets a cut with nil
// At, which holds no event.
func lineCuts(events iter.Seq[Event], kind Kind, lines [][]int) (cuts []Cut, sends int) {
	at := map[[2]int]int64{} // {proc, seq} some line wants → GSeq of its checkpoint
	for _, line := range lines {
		for p, seq := range line {
			if seq != 0 {
				at[[2]int{p, seq}] = 0
			}
		}
	}
	for e := range events {
		if e.Kind == KSend {
			sends++
		} else if _, ok := at[[2]int{e.Proc, e.Seq}]; ok && isCut(kind, e.Kind) {
			at[[2]int{e.Proc, e.Seq}] = e.GSeq
		}
	}
	cuts = make([]Cut, len(lines))
	for j, line := range lines {
		cuts[j] = NewCut(len(line))
		for p, seq := range line {
			if cuts[j].At[p] = at[[2]int{p, seq}]; seq != 0 && cuts[j].At[p] == 0 {
				cuts[j].At = nil
				break
			}
		}
	}
	return cuts, sends
}

// checkCuts is the checker behind every entry point: it pairs each
// message's send and receive, in a map sized by the caller's count of
// sends, then reports each message crossing a cut, at its first event.
func checkCuts(events iter.Seq[Event], cuts []Cut, sends int) []Report {
	type endpoints struct {
		src, dst     int
		sendG, recvG int64
	}
	msgs := make(map[int64]endpoints, sends)
	for e := range events {
		switch e.Kind {
		case KSend:
			m := msgs[e.MsgID]
			m.src, m.sendG = e.Proc, e.GSeq
			if m.recvG == 0 {
				m.dst = e.Peer
			}
			msgs[e.MsgID] = m
		case KRecv:
			m, ok := msgs[e.MsgID]
			if !ok {
				m.src = e.Peer
			}
			m.dst, m.recvG = e.Proc, e.GSeq
			msgs[e.MsgID] = m
		}
	}
	reps := make([]Report, len(cuts))
	// Deterministic iteration: walk events, not the map. A message leaves
	// the map when it is reported, so its other event finds nothing.
	for e := range events {
		m, ok := msgs[e.MsgID]
		if !ok || (e.Kind != KSend && e.Kind != KRecv) {
			continue
		}
		delete(msgs, e.MsgID)
		cross := MsgCrossing{MsgID: e.MsgID, Src: m.src, Dst: m.dst, SendG: m.sendG, RecvG: m.recvG}
		for j, cut := range cuts {
			sendIn, recvIn := cut.holds(m.src, m.sendG), cut.holds(m.dst, m.recvG)
			if recvIn && !sendIn {
				reps[j].Orphans = append(reps[j].Orphans, cross)
			} else if sendIn && !recvIn {
				reps[j].InFlight = append(reps[j].InFlight, cross)
			}
		}
	}
	return reps
}
