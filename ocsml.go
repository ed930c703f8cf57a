// Package ocsml is a simulation library for consistent global checkpoint
// collection in distributed systems. It implements the optimistic
// checkpointing and selective message logging algorithm of Jiang &
// Manivannan (IPPS 2007) together with the classical protocols it is
// evaluated against (Chandy–Lamport, Koo–Toueg, staggered, index-based
// CIC, and uncoordinated checkpointing), on a deterministic discrete-event
// substrate with an explicit shared stable-storage server.
//
// Quick start:
//
//	report, err := ocsml.Run(ocsml.Config{
//		Protocol: ocsml.ProtoOCSML,
//		N:        8,
//		Steps:    500,
//	})
//
// The Report carries the headline metrics (makespan, storage contention,
// control traffic, finalization latency) plus the verified consistency of
// every global checkpoint the run produced. See DESIGN.md for the paper
// mapping and cmd/experiments for the full evaluation suite.
package ocsml

import (
	"fmt"
	"time"

	"ocsml/internal/core"
	"ocsml/internal/des"
	"ocsml/internal/engine"
	"ocsml/internal/harness"
	"ocsml/internal/trace"
	"ocsml/internal/workload"
)

// Protocol names accepted by Config.Protocol.
const (
	// ProtoNone runs the workload without any checkpointing (overhead
	// baseline).
	ProtoNone = "none"
	// ProtoOCSML is the paper's algorithm with control messages and all
	// optimizations.
	ProtoOCSML = "ocsml"
	// ProtoOCSMLBasic is the pure Figure-3 algorithm (no control
	// messages; may not converge on quiet workloads).
	ProtoOCSMLBasic = "ocsml-basic"
	// ProtoChandyLamport is the coordinated marker snapshot baseline.
	ProtoChandyLamport = "chandy-lamport"
	// ProtoKooToueg is the blocking two-phase baseline.
	ProtoKooToueg = "koo-toueg"
	// ProtoStaggered is the Vaidya/Plank staggered-writes baseline.
	ProtoStaggered = "staggered"
	// ProtoBCS is the index-based communication-induced baseline.
	ProtoBCS = "bcs-cic"
	// ProtoUncoordinated is fully asynchronous checkpointing.
	ProtoUncoordinated = "uncoordinated"
)

// Protocols lists every protocol name.
func Protocols() []string {
	return []string{
		ProtoNone, ProtoOCSML, ProtoOCSMLBasic, ProtoChandyLamport,
		ProtoKooToueg, ProtoStaggered, ProtoBCS, ProtoUncoordinated,
	}
}

// Pattern selects the synthetic communication pattern.
type Pattern string

// Available workload patterns.
const (
	Uniform      Pattern = "uniform"
	Ring         Pattern = "ring"
	ClientServer Pattern = "client-server"
	Mesh         Pattern = "mesh"
	Bursty       Pattern = "bursty"
	// Stencil is a bulk-synchronous-parallel halo exchange: compute,
	// message all grid neighbors, barrier, repeat. Steps counts
	// supersteps.
	Stencil Pattern = "stencil"
)

func (p Pattern) internal() (workload.Pattern, error) {
	if p == "" {
		return workload.UniformRandom, nil
	}
	return workload.ParsePattern(string(p))
}

// OCSMLOptions tunes the paper's algorithm (all other protocols ignore
// it). Zero values select the defaults of the corresponding field in
// DefaultOptions of the core implementation.
type OCSMLOptions struct {
	// SuppressBGN enables §3.5.1 case-1 CK_BGN suppression.
	SuppressBGN bool
	// EscalateBGN replaces P0's broadcast-on-finalize with second-expiry
	// escalation (extension, see DESIGN.md).
	EscalateBGN bool
	// SkipREQ enables §3.5.1 case-2 CK_REQ hop skipping.
	SkipREQ bool
	// EarlyFlush writes tentative checkpoints opportunistically when the
	// storage server is idle.
	EarlyFlush bool
}

// Config configures one simulated run. Durations are virtual time.
type Config struct {
	// Protocol selects the checkpointing algorithm (Proto* constants).
	Protocol string
	// N is the number of processes (>= 2). Default 8.
	N int
	// Seed makes the run reproducible. Default 1.
	Seed int64
	// Steps is the per-process work quota. Default 300.
	Steps int64
	// Think is the mean local computation per step. Default 10ms.
	Think time.Duration
	// Pattern is the communication pattern. Default Uniform.
	Pattern Pattern
	// MsgBytes is the application payload size. Default 2 KiB.
	MsgBytes int64
	// StateBytes is the process image size checkpointed. Default 16 MiB.
	StateBytes int64
	// CheckpointInterval is the basic checkpoint period. Default 4s —
	// long enough that even the write-burst baselines stay below the
	// default storage server's capacity at moderate N (N·state/bandwidth
	// must stay below the interval or synchronous protocols starve).
	CheckpointInterval time.Duration
	// ConvergenceTimeout is OCSML's control-message timeout. Default
	// 500ms.
	ConvergenceTimeout time.Duration
	// Trace records the full event trace (needed for consistency
	// checking and recovery analysis; costs memory on big runs).
	// Default true.
	Trace *bool
	// OCSML overrides the optimization switches (nil = all enabled).
	OCSML *OCSMLOptions
	// Failure, when non-nil, crashes a process mid-run and performs a
	// live cluster-wide rollback to the last stable consistent global
	// checkpoint, reconstructing channel contents from the message logs
	// and resuming the computation. Requires ProtoOCSML.
	Failure *FailureSpec
}

// FailureSpec describes an injected crash.
type FailureSpec struct {
	// At is the virtual crash time.
	At time.Duration
	// Proc is the process that fails.
	Proc int
}

// RecoveryReport summarizes a rollback. For ProtoOCSML with
// Config.Failure it is the recovery the run executed: the handshake's
// line, what the restart discarded, re-sent and dropped, and the analysis
// of that line. For ProtoUncoordinated, which has no live recovery, it is
// the domino analysis of a failure at the end of the run, and the
// executed fields are zero. Other runs have none: for a coordinated
// protocol without a failure, the only estimate left would be a failure
// assumed at the end of the run (depth MaxSeq − MaxStableSeq), which no
// experiment reads, so it is not computed.
type RecoveryReport struct {
	// LineSeq is the global checkpoint the cluster rolled back to.
	LineSeq int
	// CheckpointsDiscarded counts finalized checkpoints above the line
	// that were rolled back.
	CheckpointsDiscarded int64
	// Reinjected counts the logged sends of the line's records that their
	// senders re-sent, under their original IDs, to rebuild the channel
	// state.
	Reinjected int64
	// DuplicatesDropped counts the arrivals a receiver dropped because its
	// own line record already holds them: logged as received, or the
	// message it joined the round on.
	DuplicatesDropped int64
	// StaleDropped counts pre-failure in-flight envelopes discarded at
	// the epoch boundary.
	StaleDropped int64

	// RollbackDepth is the maximum number of finalized checkpoints any
	// process discards.
	RollbackDepth int
	// Iterations is the number of rounds choosing the line took: 1 for
	// an executed recovery (one RB_* round), the domino iterations
	// otherwise.
	Iterations int
	// LostWorkFraction is re-executed work / total work.
	LostWorkFraction float64
	// InFlight and LostMessages count messages crossing the recovery
	// line and those no log covers.
	InFlight, LostMessages int
}

// Report is the outcome of a run.
type Report struct {
	Protocol  string
	N         int
	Completed bool
	// Makespan is the virtual time the workload took; compare against a
	// ProtoNone run for overhead.
	Makespan time.Duration
	// GlobalCheckpoints is the number of complete consistent global
	// checkpoints collected (excluding the initial state).
	GlobalCheckpoints int
	// ConsistentSeqs are the verified global checkpoint sequence
	// numbers (only populated when tracing).
	ConsistentSeqs []int

	AppMessages     int64
	ControlMessages int64
	PiggybackBytes  int64
	// PiggybackBytesPerMsg is the piggyback overhead per application
	// message: the simulator's modeled bytes here, or exact encoded
	// wire bytes for runs on the TCP runtime (internal/transport).
	PiggybackBytesPerMsg float64

	// Storage contention at the shared file server.
	StoragePeakQueue  int64
	StorageMeanWait   time.Duration
	StorageUtilized   float64
	StorageWriteCount int64

	// MeanFinalizationLatency is tentative→finalize (OCSML) or
	// record→completion (baselines), averaged.
	MeanFinalizationLatency time.Duration
	// MeanMessageLatency and P95MessageLatency measure application
	// message send→process delay (forced checkpoints and blocking
	// inflate them).
	MeanMessageLatency time.Duration
	P95MessageLatency  time.Duration
	// BlockedSeconds is total application stall time across processes.
	BlockedSeconds float64
	// LogBytes is the total optimistic message-log volume.
	LogBytes int64
	// Counters exposes protocol-specific statistics ("ctl.CK_BGN",
	// "forced", "early_flush", ...).
	Counters map[string]int64
	// Recovery is the rollback (see RecoveryReport); nil when tracing is
	// off, or the failure came after the workload completed.
	Recovery *RecoveryReport
}

func (c Config) runCfg() (harness.RunCfg, error) {
	pat, err := c.Pattern.internal()
	if err != nil {
		return harness.RunCfg{}, err
	}
	interval := c.CheckpointInterval
	if interval == 0 {
		interval = 4 * time.Second
	}
	rc := harness.RunCfg{
		Proto:      c.Protocol,
		N:          c.N,
		Seed:       c.Seed,
		Steps:      c.Steps,
		Think:      des.Duration(c.Think),
		Pattern:    pat,
		MsgBytes:   c.MsgBytes,
		StateBytes: c.StateBytes,
		Interval:   des.Duration(interval),
		Timeout:    des.Duration(c.ConvergenceTimeout),
		Trace:      c.Trace == nil || *c.Trace,
	}
	if c.OCSML != nil {
		opt := core.DefaultOptions()
		if rc.Interval > 0 {
			opt.Interval = rc.Interval
		}
		if rc.Timeout > 0 {
			opt.Timeout = rc.Timeout
		}
		opt.SuppressBGN = c.OCSML.SuppressBGN
		opt.EscalateBGN = c.OCSML.EscalateBGN
		opt.SkipREQ = c.OCSML.SkipREQ
		opt.EarlyFlush = c.OCSML.EarlyFlush
		rc.Opt = &opt
	}
	return rc, nil
}

// Run executes one simulation and returns its report. The consistency of
// every complete global checkpoint is verified when tracing is enabled;
// an inconsistent checkpoint is returned as an error (it would indicate a
// protocol bug).
func Run(cfg Config) (*Report, error) {
	known := false
	for _, p := range Protocols() {
		if cfg.Protocol == p || cfg.Protocol == "" {
			known = true
			break
		}
	}
	if !known {
		return nil, fmt.Errorf("ocsml: unknown protocol %q (known: %v)", cfg.Protocol, Protocols())
	}
	rc, err := cfg.runCfg()
	if err != nil {
		return nil, err
	}
	if cfg.Failure != nil {
		if cfg.Protocol != ProtoOCSML {
			return nil, fmt.Errorf("ocsml: live failure recovery requires %s (got %q)", ProtoOCSML, cfg.Protocol)
		}
		rc.Failure = &engine.FailurePlan{At: des.Time(cfg.Failure.At), Proc: cfg.Failure.Proc}
	}
	r := harness.Run(rc)
	rep := &Report{
		Protocol:          r.ProtoName,
		N:                 r.Cfg.N,
		Completed:         r.Completed,
		Makespan:          time.Duration(r.Makespan),
		GlobalCheckpoints: r.GlobalCheckpoints(),
		AppMessages:       r.AppMsgs,
		ControlMessages:   r.CtlMsgs,
		PiggybackBytes:    r.PiggybackBytes,
		StoragePeakQueue:  r.Storage.PeakQueue(),
		StorageMeanWait:   time.Duration(r.Storage.MeanWait() * float64(time.Second)),
		StorageUtilized:   r.Storage.Utilization(),
		StorageWriteCount: r.Storage.WriteCount.Value(),
		MeanFinalizationLatency: time.Duration(
			r.MeanFinalizationLatency() * float64(time.Second)),
		MeanMessageLatency: time.Duration(r.AppLatency.Mean() * float64(time.Second)),
		P95MessageLatency:  time.Duration(r.AppLatency.Percentile(95) * float64(time.Second)),
		BlockedSeconds:     r.StalledSeconds.Sum(),
		LogBytes:           r.TotalLogBytes(),
		Counters:           r.Counters,
	}
	if rep.AppMessages > 0 {
		rep.PiggybackBytesPerMsg = float64(rep.PiggybackBytes) / float64(rep.AppMessages)
	}
	if rc.Trace && cfg.Protocol != ProtoUncoordinated && cfg.Protocol != ProtoNone {
		seqs, err := r.CheckAllGlobals()
		if err != nil {
			return nil, fmt.Errorf("ocsml: consistency violation: %w", err)
		}
		rep.ConsistentSeqs = seqs
	}
	var a *harness.Analysis
	switch {
	case !rc.Trace:
	case cfg.Failure != nil && r.Counter("recovery.recoveries") > 0:
		if a, err = harness.ExecutedRecovery(r); err != nil {
			return nil, fmt.Errorf("ocsml: %w", err)
		}
	case cfg.Protocol == ProtoUncoordinated:
		a, _ = harness.Domino(r, trace.KCheckpoint)
	}
	if a != nil {
		rep.Recovery = &RecoveryReport{
			RollbackDepth:    a.RollbackDepth(),
			Iterations:       a.Iterations,
			LostWorkFraction: a.LostWorkFraction(),
			InFlight:         a.InFlight,
			LostMessages:     a.LostMessages,
		}
		if cfg.Failure != nil {
			rep.Recovery.LineSeq = a.LineSeqs[0]
			rep.Recovery.CheckpointsDiscarded = r.Counter("recovery.ckpts_discarded")
			rep.Recovery.Reinjected = r.Counter("recovery.reinjected")
			rep.Recovery.DuplicatesDropped = r.Counter("recovery.dup_dropped")
			rep.Recovery.StaleDropped = r.Counter("recovery.stale_dropped")
		}
	}
	return rep, nil
}

// Experiments lists the evaluation suite's experiment ids (E1–E11 and
// ablations A1–A4); see DESIGN.md for the index.
func Experiments() []string { return harness.IDs() }

// RunExperiment executes one experiment and returns its rendered table.
// quick trades sweep size for speed.
func RunExperiment(id string, quick bool) (string, error) {
	e, ok := harness.ByID(id)
	if !ok {
		return "", fmt.Errorf("ocsml: unknown experiment %q (known: %v)", id, harness.IDs())
	}
	return e.Execute(harness.Scale{Quick: quick}).Render(), nil
}
