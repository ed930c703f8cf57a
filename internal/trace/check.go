package trace

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"ocsml/internal/checkpoint"
)

// This file holds the two offline trace analyses behind the paper's
// remaining safety claims, shared by cmd/tracecheck and the protomodel
// explorer:
//
//   - replay sufficiency: every message processed inside a tentative
//     interval appears in the selective log (KLogRecv/KLogSend events),
//     so replaying the log reproduces the interval exactly once, and
//     every logged send its receiver processed before finalizing the same
//     round is held by the receiver's checkpoint (logged, or joined on),
//     so recovery, which re-sends the line's logged sends, drops it;
//   - Z-cycle freedom: no path in the rollback-dependency graph over
//     checkpoint intervals (Netzer–Xu / Wang) leads back to an earlier
//     interval of the same process, so no finalized checkpoint is useless.
//
// and, for runs with a live recovery on either driver, the channel state
// that recovery rebuilt (CheckLoggedSends).

// A ReplayGap is one message that the selective log fails to cover.
type ReplayGap struct {
	Proc  int   // process whose log is incomplete
	Seq   int   // checkpoint sequence of the tentative interval
	MsgID int64 // processed (or sent) message missing from the log
	Sent  bool  // true: missing send-log entry; false: missing receive-log entry
	// Unheld marks a message its sender logged in round Seq that Proc
	// processed before finalizing Seq, and whose receive checkpoint Seq
	// holds neither in its log nor as the message it joined the round on.
	Unheld bool
}

func (g ReplayGap) String() string {
	if g.Unheld {
		return fmt.Sprintf("P%d processed msg %d, logged by its sender in round %d, before finalizing S_%d, but neither logged nor joined on it",
			g.Proc, g.MsgID, g.Seq, g.Seq)
	}
	dir := "received"
	if g.Sent {
		dir = "sent"
	}
	return fmt.Sprintf("P%d %s msg %d inside tentative interval %d but never logged it",
		g.Proc, dir, g.MsgID, g.Seq)
}

// CheckReplay verifies selective-logging sufficiency over a trace: for
// every process, every application message sent or received between a
// KTentative(seq) event and the matching KFinalize(seq) event must have
// a matching KLogSend/KLogRecv event in the same interval. Messages
// processed outside tentative intervals need no logging (the paper logs
// only while tentative), and a rolled-back interval (KRestore before
// the finalize) is exempt — its log died with the crash. The same walk
// reports, as Unheld gaps, the logged sends of round seq (KLogSend) that
// a receiver processed since its previous finalization or restore and
// before its KFinalize(seq) without a KLogRecv or KJoin for them in its
// interval seq.
func CheckReplay(events []Event) []ReplayGap {
	// Per process, walk events in order tracking the open tentative
	// interval and the pending (unlogged) messages inside it.
	type open struct {
		seq     int
		pending []ReplayGap // becomes real gaps if the interval finalizes
		logged  map[int64]uint8
	}
	const (
		loggedSend = 1 << iota
		loggedRecv
		joined
	)
	var gaps []ReplayGap
	cur := map[int]*open{}
	sentIn := map[int64]int{}  // message → the round its sender logged it in
	since := map[int][]int64{} // process → messages processed since its last finalize or restore
	for _, e := range events {
		switch e.Kind {
		case KTentative:
			cur[e.Proc] = &open{seq: e.Seq, logged: map[int64]uint8{}}
		case KLogSend:
			sentIn[e.MsgID] = e.Seq
			if o := cur[e.Proc]; o != nil {
				o.logged[e.MsgID] |= loggedSend
			}
		case KLogRecv:
			if o := cur[e.Proc]; o != nil {
				o.logged[e.MsgID] |= loggedRecv
			}
		case KJoin:
			if o := cur[e.Proc]; o != nil {
				o.logged[e.MsgID] |= joined
			}
		case KSend:
			if o := cur[e.Proc]; o != nil {
				o.pending = append(o.pending, ReplayGap{Proc: e.Proc, Seq: o.seq, MsgID: e.MsgID, Sent: true})
			}
		case KRecv:
			since[e.Proc] = append(since[e.Proc], e.MsgID)
			if o := cur[e.Proc]; o != nil {
				o.pending = append(o.pending, ReplayGap{Proc: e.Proc, Seq: o.seq, MsgID: e.MsgID, Sent: false})
			}
		case KFinalize:
			processed := since[e.Proc]
			delete(since, e.Proc)
			o := cur[e.Proc]
			if o == nil || o.seq != e.Seq {
				continue
			}
			for _, id := range processed {
				if seq, ok := sentIn[id]; ok && seq == e.Seq && o.logged[id]&(loggedRecv|joined) == 0 {
					gaps = append(gaps, ReplayGap{Proc: e.Proc, Seq: e.Seq, MsgID: id, Unheld: true})
				}
			}
			for _, p := range o.pending {
				want := uint8(loggedRecv)
				if p.Sent {
					want = loggedSend
				}
				if o.logged[p.MsgID]&want == 0 {
					gaps = append(gaps, p)
				}
			}
			delete(cur, e.Proc)
		case KRestore:
			delete(cur, e.Proc) // rolled back: the interval never finalized
			delete(since, e.Proc)
		}
	}
	return gaps
}

// An Interval identifies one checkpoint interval of a process: Index 0
// runs from process start to its first cut event, index x from cut x to
// cut x+1.
type Interval struct {
	Proc  int
	Index int
}

func (iv Interval) String() string { return fmt.Sprintf("I(P%d,%d)", iv.Proc, iv.Index) }

// ZCycles looks for a Z-cycle (Netzer–Xu) in the rollback-dependency
// graph of events, in GSeq order: one node per checkpoint interval, a
// program-order edge from each interval of a process to its next, and an
// edge from the sender's interval to the receiver's for every application
// message. A Z-cycle is a path from an interval back to an earlier interval
// of the same process: the checkpoint between them is useless, since
// rolling back to it forces a rollback past it. One exists exactly when a
// strongly connected component holds two intervals of one process; any
// other cycle, such as two messages crossing between one pair of
// intervals, makes no checkpoint useless. The paper's Theorem 2 implies
// OCSML traces have none; an orphan message closes one. Returns the first
// Z-cycle found, through two intervals of one process, or nil.
func ZCycles(events []Event, cutKind Kind) []Interval {
	edges := map[Interval]map[Interval]bool{}
	addEdge := func(a, b Interval) {
		if a != b {
			if edges[a] == nil {
				edges[a] = map[Interval]bool{}
			}
			edges[a][b] = true
		}
	}
	now := map[int]int{} // process → its interval: the cut events it has had so far
	sentIn := map[int64]Interval{}
	for _, e := range events {
		switch {
		case isCut(cutKind, e.Kind):
			addEdge(Interval{e.Proc, now[e.Proc]}, Interval{e.Proc, now[e.Proc] + 1})
			now[e.Proc]++
		case e.Kind == KSend:
			sentIn[e.MsgID] = Interval{e.Proc, now[e.Proc]}
		case e.Kind == KRecv:
			if from, ok := sentIn[e.MsgID]; ok {
				addEdge(from, Interval{e.Proc, now[e.Proc]})
			}
		}
	}
	succs := func(a Interval) []Interval { return sortIntervals(slices.Collect(maps.Keys(edges[a]))) }

	// Tarjan's components, found by a depth-first search in sorted order
	// that keeps its path. A back edge reports the cycle it closes along
	// the path when that runs through two intervals of one process; a
	// finished component that holds two intervals of one process, and so
	// two consecutive ones, and that no back edge reported is reported as
	// the cycle through those two. order is 0 before a visit and -1 once
	// a node's component is finished.
	order, low := map[Interval]int{}, map[Interval]int{}
	var stack, path []Interval
	var visit func(a Interval) []Interval
	visit = func(a Interval) []Interval {
		order[a], low[a] = len(order)+1, len(order)+1
		stack, path = append(stack, a), append(path, a)
		for _, b := range succs(a) {
			switch {
			case order[b] == 0:
				if cyc := visit(b); cyc != nil {
					return cyc
				}
				low[a] = min(low[a], low[b])
			case order[b] > 0:
				low[a] = min(low[a], order[b])
				if i := slices.Index(path, b); i >= 0 && oneProcTwice(path[i:]) {
					return append(slices.Clone(path[i:]), b)
				}
			}
		}
		path = path[:len(path)-1]
		if low[a] == order[a] {
			i := slices.Index(stack, a)
			comp := stack[i:]
			stack = stack[:i]
			for _, c := range comp {
				order[c] = -1
				if next := (Interval{c.Proc, c.Index + 1}); slices.Contains(comp, next) {
					return append([]Interval{c}, pathTo(next, c, succs, map[Interval]bool{})...)
				}
			}
		}
		return nil
	}
	for _, a := range sortIntervals(slices.Collect(maps.Keys(edges))) {
		if order[a] == 0 {
			if cyc := visit(a); cyc != nil {
				return cyc
			}
		}
	}
	return nil
}

// oneProcTwice reports whether ivs holds two intervals of one process.
func oneProcTwice(ivs []Interval) bool {
	seen := map[int]bool{}
	for _, iv := range ivs {
		if seen[iv.Proc] {
			return true
		}
		seen[iv.Proc] = true
	}
	return false
}

// pathTo returns a path from a to b in a depth-first search that skips
// the nodes in seen, or nil when it finds none.
func pathTo(a, b Interval, succs func(Interval) []Interval, seen map[Interval]bool) []Interval {
	if a == b {
		return []Interval{b}
	}
	seen[a] = true
	for _, c := range succs(a) {
		if seen[c] {
			continue
		}
		if p := pathTo(c, b, succs, seen); p != nil {
			return append([]Interval{a}, p...)
		}
	}
	return nil
}

func sortIntervals(ivs []Interval) []Interval {
	slices.SortFunc(ivs, func(a, b Interval) int {
		return cmp.Or(cmp.Compare(a.Proc, b.Proc), cmp.Compare(a.Index, b.Index))
	})
	return ivs
}

// CheckLoggedSends checks that recovery rebuilt the channel state of every
// line: lines[i] holds the records the processes resumed from at the i-th
// recovery, the one that followed the i-th crash (KFail) in events. Each
// Sent entry of them is processed (KRecv) by its receiver exactly once in
// the epoch that recovery opened — after the receiver's own restore to the
// line (KRestore: every process records one, the victim included) and
// before its next restore or crash — unless the receiver's record holds it
// already (logged as received, or the message the receiver joined its
// round on): then not at all. It returns how many logged sends were
// processed in a new epoch.
func CheckLoggedSends(events []Event, lines [][]checkpoint.Record) (delivered int, err error) {
	var crashes []int // the index in events of each KFail
	for i, e := range events {
		if e.Kind == KFail {
			crashes = append(crashes, i)
		}
	}
	if len(crashes) < len(lines) {
		return 0, fmt.Errorf("%d recoveries but %d crashes in the trace", len(lines), len(crashes))
	}
	for i, recs := range lines {
		// epoch[p] is 1 while process p is in the epoch the recovery
		// opened: from its restore to the line to its next restore or
		// crash.
		epoch := make([]int, len(recs))
		processed := map[int64]int{}
		for _, e := range events[crashes[i]+1:] {
			switch {
			case e.Kind == KRestore, e.Kind == KFail && epoch[e.Proc] > 0:
				epoch[e.Proc]++
			case e.Kind == KRecv && epoch[e.Proc] == 1:
				processed[e.MsgID]++
			}
		}
		for s := range recs {
			for _, m := range recs[s].Log {
				if m.Dir != checkpoint.Sent {
					continue
				}
				want := 1
				if holds(&recs[m.Dst], m.ID) {
					want = 0
				}
				if n := processed[m.ID]; n != want {
					return delivered, fmt.Errorf("recovery %d to line %d: P%d's logged send %d processed %d times by P%d in the new epoch, want %d",
						i+1, recs[s].Seq, s, m.ID, n, m.Dst, want)
				}
				delivered += want
			}
		}
	}
	return delivered, nil
}

// holds reports whether the state rec captured already reflects the
// receive of message id.
func holds(rec *checkpoint.Record, id int64) bool {
	if rec.JoinedBy == id {
		return true
	}
	for _, m := range rec.Log {
		if m.Dir == checkpoint.Received && m.ID == id {
			return true
		}
	}
	return false
}
