package harness

import (
	"fmt"
	"slices"

	"ocsml/internal/engine"
	"ocsml/internal/trace"
)

// Analysis summarises a rollback: the recovery a run executed
// (ExecutedRecovery), or the one a failure at the end of an uncoordinated
// run would need (Domino).
type Analysis struct {
	// LineSeqs is the checkpoint sequence number each process rolls
	// back to.
	LineSeqs []int
	// Rollbacks is how many finalized checkpoints above its line each
	// process discards (the domino depth).
	Rollbacks []int
	// Iterations is how many rounds choosing the line took: one RB_*
	// round for an executed recovery, the domino iterations otherwise.
	Iterations int
	// LostWork is the application work (units) that must be re-executed:
	// Σ_p (work at failure − work at the recovery line).
	LostWork int64
	// TotalWork is the work the run completed, for normalizing LostWork.
	TotalWork int64
	// InFlight counts application messages crossing the recovery line
	// (sent inside, not received inside).
	InFlight int
	// Recoverable counts in-flight messages the line's records logged,
	// which recovery re-sends.
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
		maxd = max(maxd, d)
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

// ExecutedRecovery summarises the one crash recovery a traced run with a
// FailurePlan executed: every process rolled back to recovery.line_seq in
// one RB_* round, and recovery.lost_work counts the work Host.Restart
// rewound. The depth and the messages crossing the line are read from the
// trace before the crash (KFail): every cut event of the line lies there,
// and every event the rollback undoes, or re-sends under its original ID,
// lies after those cut events (DESIGN §7).
func ExecutedRecovery(r *engine.Result) (*Analysis, error) {
	if got := r.Counter("recovery.recoveries"); got != 1 {
		return nil, fmt.Errorf("recovery: %d recoveries ran, want 1", got)
	}
	events := r.Trace.Events()
	crash := slices.IndexFunc(events, func(e trace.Event) bool { return e.Kind == trace.KFail })
	if crash < 0 {
		return nil, fmt.Errorf("recovery: no crash in the trace (enable tracing)")
	}
	events = events[:crash]
	n, line := r.Cfg.N, int(r.Counter("recovery.line_seq"))
	a := &Analysis{
		LineSeqs:   slices.Repeat([]int{line}, n),
		Rollbacks:  make([]int, n),
		Iterations: 1,
		LostWork:   r.Counter("recovery.lost_work"),
		TotalWork:  r.TotalWork,
	}
	kind := trace.CutKind(events)
	for _, e := range events {
		if e.Kind == kind && e.Seq > line {
			a.Rollbacks[e.Proc]++
		}
	}
	cut, ok := trace.LineCut(events, kind, a.LineSeqs)
	if !ok {
		return nil, fmt.Errorf("recovery: line %d has a checkpoint after the crash", line)
	}
	rep := trace.CheckEvents(events, cut)
	if !rep.Consistent() {
		return nil, fmt.Errorf("recovery: line %d has %d orphans", line, len(rep.Orphans))
	}
	if err := classifyInFlight(r, a, rep); err != nil {
		return nil, err
	}
	return a, nil
}

// Domino analyzes recovery for uncoordinated checkpointing, which has no
// live recovery: starting from every process's most recent checkpoint, it
// repeatedly rolls receivers of orphan messages back one checkpoint until
// the cut is consistent. kind is the trace event kind marking checkpoints
// (trace.KCheckpoint for the uncoordinated baseline).
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
