package trace

import "fmt"

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
//   - Z-cycle freedom: the rollback-dependency graph over checkpoint
//     intervals (Netzer–Xu / Wang) is acyclic, so no finalized
//     checkpoint is useless.

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

// ZCycles detects Z-cycles through the trace's checkpoints using the
// rollback-dependency graph: one node per checkpoint interval, a
// program-order edge between a process's consecutive intervals, and an
// edge from the sender's interval to the receiver's interval for every
// application message. A cycle means rolling back some checkpoint
// forces a rollback past itself — the checkpoint is useless (Netzer–Xu
// Z-cycle). The paper's Theorem 2 implies the graph is acyclic for
// OCSML traces; an orphan message introduces the back edge that closes
// a cycle. Returns the first cycle found as an interval sequence, nil
// when acyclic.
func ZCycles(events []Event, cutKind Kind) []Interval {
	// Interval index of event g for proc p = number of p's cut events
	// with smaller GSeq.
	cuts := map[int][]int64{}
	for _, e := range events {
		if e.Kind == cutKind || (cutKind == KCheckpoint && e.Kind == KForced) {
			cuts[e.Proc] = append(cuts[e.Proc], e.GSeq)
		}
	}
	index := func(proc int, g int64) int {
		n := 0
		for _, cg := range cuts[proc] {
			if cg < g {
				n++
			}
		}
		return n
	}

	edges := map[Interval]map[Interval]bool{}
	addEdge := func(a, b Interval) {
		if a == b {
			return
		}
		if edges[a] == nil {
			edges[a] = map[Interval]bool{}
		}
		edges[a][b] = true
	}
	for proc, cs := range cuts {
		for x := 0; x < len(cs); x++ {
			addEdge(Interval{proc, x}, Interval{proc, x + 1})
		}
	}
	// Message edges need both endpoints; pair sends with receives.
	sends := map[int64]Event{}
	for _, e := range events {
		switch e.Kind {
		case KSend:
			sends[e.MsgID] = e
		case KRecv:
			s, ok := sends[e.MsgID]
			if !ok {
				continue
			}
			addEdge(Interval{s.Proc, index(s.Proc, s.GSeq)},
				Interval{e.Proc, index(e.Proc, e.GSeq)})
		}
	}

	// DFS cycle detection with deterministic order (sorted nodes).
	var nodes []Interval
	for a := range edges {
		nodes = append(nodes, a)
	}
	sortIntervals(nodes)
	const (
		white = iota
		gray
		black
	)
	color := map[Interval]int{}
	var stack []Interval
	var cycle []Interval
	var visit func(a Interval) bool
	visit = func(a Interval) bool {
		color[a] = gray
		stack = append(stack, a)
		var succs []Interval
		for b := range edges[a] {
			succs = append(succs, b)
		}
		sortIntervals(succs)
		for _, b := range succs {
			switch color[b] {
			case gray:
				// Found: slice the stack from b's occurrence.
				for i, s := range stack {
					if s == b {
						cycle = append(append([]Interval(nil), stack[i:]...), b)
						return true
					}
				}
			case white:
				if visit(b) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[a] = black
		return false
	}
	for _, a := range nodes {
		if color[a] == white && visit(a) {
			return cycle
		}
	}
	return nil
}

func sortIntervals(ivs []Interval) {
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0; j-- {
			a, b := ivs[j-1], ivs[j]
			if a.Proc < b.Proc || (a.Proc == b.Proc && a.Index <= b.Index) {
				break
			}
			ivs[j-1], ivs[j] = b, a
		}
	}
}
