// Package recovery implements rollback-recovery analysis over finished
// simulation runs: recovery-line selection, message-log replay validation,
// in-flight (channel) message reconstruction, and the domino-effect
// computation for uncoordinated checkpointing.
//
// The analysis is performed offline on the run's artifacts (checkpoint
// store + event trace), mirroring what a recovery manager would do from
// stable storage after a crash:
//
//   - For the paper's protocol, recovery rolls every process back to the
//     most recent consistent global checkpoint S_k. Each process restores
//     CT_{i,k} and replays logSet_{i,k}; because the application is
//     piecewise deterministic, replay reproduces the state at CFE_{i,k}
//     exactly (validated via the state folds). Messages crossing the cut
//     are re-delivered from the logs.
//
//   - For uncoordinated checkpointing there is no ready-made line: the
//     classic rollback-dependency iteration walks checkpoints backwards
//     until the cut has no orphans — the domino effect. The analysis
//     reports how many checkpoints each process discards and how much
//     work is lost.
package recovery

import (
	"fmt"

	"ocsml/internal/checkpoint"
	"ocsml/internal/engine"
	"ocsml/internal/trace"
)

// Analysis is the result of a recovery computation.
type Analysis struct {
	// LineSeqs is the checkpoint sequence number each process rolls
	// back to.
	LineSeqs []int
	// Rollbacks is how many finalized checkpoints each process discards
	// relative to its most recent one (domino depth; 0 for coordinated
	// protocols).
	Rollbacks []int
	// Iterations is how many rounds the domino computation needed.
	Iterations int
	// LostWork is the total application work (units) that must be
	// re-executed: Σ_p (work at failure − work at the recovery line,
	// including logged replay).
	LostWork int64
	// TotalWork is the work completed by the original run, for
	// normalizing LostWork.
	TotalWork int64
	// InFlight counts application messages crossing the recovery line
	// (sent inside, not received inside).
	InFlight int
	// Recoverable counts in-flight messages reconstructible from the
	// stored logs (sender-logged or recorded channel state).
	Recoverable int
	// LostMessages counts in-flight messages covered by no log — these
	// require transport-level retransmission (see DESIGN.md on the
	// lost-message window).
	LostMessages int
}

// RollbackDepth returns the maximum rollback depth across processes.
func (a *Analysis) RollbackDepth() int {
	maxd := 0
	for _, d := range a.Rollbacks {
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

// LostWorkFraction is LostWork / TotalWork.
func (a *Analysis) LostWorkFraction() float64 {
	if a.TotalWork == 0 {
		return 0
	}
	return float64(a.LostWork) / float64(a.TotalWork)
}

// Coordinated analyzes recovery for a protocol whose equal-seq checkpoints
// form consistent global checkpoints (the paper's algorithm and the
// coordinated baselines). The failure is assumed to occur at the end of
// the run; the recovery line is the most recent stable global checkpoint.
func Coordinated(r *engine.Result) (*Analysis, error) {
	n := r.Cfg.N
	seq := r.Ckpts.MaxStableSeq()
	if seq < 0 {
		return nil, fmt.Errorf("recovery: no stable global checkpoint exists")
	}
	g, ok := r.Ckpts.Global(seq)
	if !ok {
		return nil, fmt.Errorf("recovery: global checkpoint %d incomplete", seq)
	}
	a := &Analysis{
		LineSeqs:  make([]int, n),
		Rollbacks: make([]int, n),
		TotalWork: r.TotalWork,
	}
	for p := 0; p < n; p++ {
		a.LineSeqs[p] = seq
		a.Rollbacks[p] = r.Ckpts.Proc(p).MaxSeq() - seq
		// Work recovered = checkpoint state + replayed received
		// messages (each logged receive re-does one work unit).
		recovered := g.Recs[p].Work
		for _, m := range g.Recs[p].Log {
			if m.Dir == checkpoint.Received {
				recovered++
			}
		}
		if w := r.Works[p] - recovered; w > 0 {
			a.LostWork += w
		}
	}
	if seq > 0 {
		line := r.Trace.CheckGlobals(n, r.Trace.CutKind(), []int{seq})[0]
		if !line.Complete || !line.Consistent() {
			return nil, fmt.Errorf("recovery: line %d has no consistent cut (complete %v, %d orphans)",
				seq, line.Complete, len(line.Orphans))
		}
		if err := classifyInFlight(r, a, line.Report); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Domino analyzes recovery for uncoordinated checkpointing: starting from
// every process's most recent checkpoint, it repeatedly rolls receivers of
// orphan messages back one checkpoint until the cut is consistent. kind is
// the trace event kind marking checkpoints (trace.KCheckpoint for the
// uncoordinated baseline).
func Domino(r *engine.Result, kind trace.Kind) (*Analysis, error) {
	n := r.Cfg.N
	events := r.Trace.Events()
	if len(events) == 0 {
		return nil, fmt.Errorf("recovery: empty trace (enable tracing)")
	}

	// Latest checkpoint seq per process.
	cur := make([]int, n)
	for p := 0; p < n; p++ {
		cur[p] = r.Ckpts.Proc(p).MaxSeq()
		if cur[p] < 0 {
			return nil, fmt.Errorf("recovery: P%d has no checkpoints", p)
		}
	}

	a := &Analysis{Rollbacks: make([]int, n), TotalWork: r.TotalWork}
	var rep trace.Report
	for {
		a.Iterations++
		cut, ok := trace.LineCut(events, kind, cur)
		if !ok {
			return nil, fmt.Errorf("recovery: line %v has a checkpoint with no cut event", cur)
		}
		if rep = trace.CheckEvents(events, cut); rep.Consistent() {
			break
		}
		rolled := false
		for _, o := range rep.Orphans {
			if o.Dst >= 0 && o.Dst < n && cur[o.Dst] > 0 {
				cur[o.Dst]--
				a.Rollbacks[o.Dst]++
				rolled = true
				break // re-evaluate after each single rollback (classic iteration)
			}
		}
		if !rolled {
			return nil, fmt.Errorf("recovery: domino iteration stuck (orphans=%d)", len(rep.Orphans))
		}
	}
	a.LineSeqs = cur
	for p := 0; p < n; p++ {
		rec, ok := r.Ckpts.Proc(p).Get(cur[p])
		if !ok {
			return nil, fmt.Errorf("recovery: missing record P%d seq %d", p, cur[p])
		}
		if w := r.Works[p] - rec.Work; w > 0 {
			a.LostWork += w
		}
	}
	if err := classifyInFlight(r, a, rep); err != nil {
		return nil, err
	}
	return a, nil
}

// classifyInFlight counts the messages rep finds crossing the recovery
// line a.LineSeqs and which of them the line's logs can reconstruct.
func classifyInFlight(r *engine.Result, a *Analysis, rep trace.Report) error {
	logged := map[int64]bool{}
	for p, seq := range a.LineSeqs {
		rec, ok := r.Ckpts.Proc(p).Get(seq)
		if !ok {
			return fmt.Errorf("recovery: missing record P%d seq %d", p, seq)
		}
		for _, m := range rec.Log {
			logged[m.ID] = true
		}
	}
	a.InFlight = len(rep.InFlight)
	for _, m := range rep.InFlight {
		if logged[m.MsgID] {
			a.Recoverable++
		} else {
			a.LostMessages++
		}
	}
	return nil
}

// ValidateReplay checks the piecewise-determinism contract on every
// finalized checkpoint of the run: restoring CT and replaying the message
// log must reproduce the state fold recorded at the cut point.
func ValidateReplay(r *engine.Result) error {
	for p := 0; p < r.Cfg.N; p++ {
		for _, rec := range r.Ckpts.Proc(p).All() {
			if rec.Seq == 0 {
				continue
			}
			if !rec.Replays() {
				return fmt.Errorf("replay mismatch at P%d seq %d (log %d entries)",
					p, rec.Seq, len(rec.Log))
			}
		}
	}
	return nil
}
