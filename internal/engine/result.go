package engine

import (
	"fmt"
	"sort"

	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
	"ocsml/internal/metrics"
	"ocsml/internal/netsim"
	"ocsml/internal/storage"
	"ocsml/internal/trace"
)

// Result is everything a finished simulation exposes for analysis.
type Result struct {
	Cfg       Config
	ProtoName string
	// Completed reports that every process finished its work quota
	// (false means the MaxTime horizon cut the run short).
	Completed bool
	// Makespan is when the last process finished its workload — the
	// headline overhead metric: protocols that block or congest storage
	// push it up.
	Makespan des.Time
	// End is the final virtual time including the drain period.
	End des.Time

	TotalWork      int64
	AppMsgs        int64
	CtlMsgs        int64
	WireBytes      int64
	PiggybackBytes int64

	// AppLatency is the application message send→process delay.
	AppLatency *metrics.Summary
	// StalledSeconds has one observation per process: total time its
	// application was stalled (blocking writes, snapshot copies,
	// protocol-imposed blocking).
	StalledSeconds *metrics.Summary

	// Counters are the protocol's free-form named statistics
	// ("ctl.CK_BGN", "forced", ...), plus engine-added entries — a
	// snapshot of the registry's events family.
	Counters map[string]int64
	// Metrics is the run's named-metric registry (the same catalog a
	// live cluster serves at /metrics).
	Metrics *metrics.Registry

	Ckpts *checkpoint.Store
	Trace *trace.Recorder
	// Storage is the shared server (or the first local one); Stores
	// lists every server (one per process under Config.LocalStorage).
	Storage *storage.Server
	Stores  []*storage.Server
	Net     *netsim.Network

	// Folds and Works capture each node's final application state, used
	// by recovery validation.
	Folds []uint64
	Works []int64
}

func (c *Cluster) result() *Result {
	r := &Result{
		Cfg:            c.cfg,
		ProtoName:      c.protoName,
		Completed:      c.draining,
		Makespan:       c.makespan,
		End:            c.Sim.Now(),
		AppMsgs:        c.appMsgs.Value(),
		CtlMsgs:        c.Net.CtlCount.Value(),
		WireBytes:      c.Net.ByteCount.Value(),
		PiggybackBytes: c.piggyBytes.Value(),
		AppLatency:     c.appLatency,
		StalledSeconds: c.stalledSeconds,
		Counters:       c.Metrics.EventCounts(),
		Metrics:        c.Metrics,
		Ckpts:          c.Ckpts,
		Trace:          c.Rec,
		Storage:        c.Store,
		Stores:         c.stores,
		Net:            c.Net,
	}
	for _, n := range c.nodes {
		r.TotalWork += n.h.Work()
		r.Folds = append(r.Folds, n.h.Fold())
		r.Works = append(r.Works, n.h.Work())
	}
	return r
}

// Counter returns a named counter (0 if absent).
func (r *Result) Counter(name string) int64 { return r.Counters[name] }

// CounterNames returns the sorted counter keys.
func (r *Result) CounterNames() []string {
	names := make([]string, 0, len(r.Counters))
	for k := range r.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// CheckGlobal verifies the consistency of global checkpoint S_seq against
// the trace. It returns an error when the cut cannot be constructed or is
// inconsistent.
func (r *Result) CheckGlobal(seq int) error { return r.checkGlobals([]int{seq}) }

// CheckAllGlobals verifies every complete global checkpoint in the run, in
// one walk of the trace. It returns the checked sequence numbers.
func (r *Result) CheckAllGlobals() ([]int, error) {
	seqs := r.Ckpts.CompleteSeqs()
	return seqs, r.checkGlobals(seqs)
}

// checkGlobals reports the first of seqs whose S_k the trace holds
// incomplete or inconsistent.
func (r *Result) checkGlobals(seqs []int) error {
	kind := r.Trace.CutKind()
	for _, g := range r.Trace.CheckGlobals(r.Cfg.N, kind, seqs) {
		if !g.Complete {
			return fmt.Errorf("no complete %v cut for seq %d", kind, g.Seq)
		}
		if !g.Consistent() {
			return fmt.Errorf("S_%d inconsistent: %d orphan message(s), first %+v",
				g.Seq, len(g.Orphans), g.Orphans[0])
		}
	}
	return nil
}

// GlobalCheckpoints returns how many complete global checkpoints the run
// produced (excluding the implicit initial one).
func (r *Result) GlobalCheckpoints() int {
	n := 0
	for _, s := range r.Ckpts.CompleteSeqs() {
		if s > 0 {
			n++
		}
	}
	return n
}

// MeanFinalizationLatency averages tentative→finalize latency over all
// finalized checkpoints with seq > 0, in seconds.
func (r *Result) MeanFinalizationLatency() float64 {
	var sum float64
	var n int
	for p := 0; p < r.Cfg.N; p++ {
		for _, rec := range r.Ckpts.Proc(p).All() {
			if rec.Seq == 0 {
				continue
			}
			sum += rec.FinalizationLatency().Seconds()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// StorageMeanWaitAll aggregates the mean queueing wait across all storage
// servers (equals Storage.MeanWait() in shared mode).
func (r *Result) StorageMeanWaitAll() float64 {
	var sum float64
	var n int
	for _, s := range r.Stores {
		sum += s.WaitTime.Sum()
		n += s.WaitTime.Count()
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// StoragePeakAll returns the maximum queue depth across all servers.
func (r *Result) StoragePeakAll() int64 {
	var peak int64
	for _, s := range r.Stores {
		if p := s.PeakQueue(); p > peak {
			peak = p
		}
	}
	return peak
}

// TotalLogBytes sums message-log bytes over all finalized checkpoints.
func (r *Result) TotalLogBytes() int64 {
	var total int64
	for p := 0; p < r.Cfg.N; p++ {
		for _, rec := range r.Ckpts.Proc(p).All() {
			total += rec.LogBytes()
		}
	}
	return total
}
