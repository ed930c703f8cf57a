// Package harness defines and runs the evaluation suite: the experiments
// E1–E11 reconstruct the performance evaluation the paper describes in
// prose (its numeric section was omitted for space, see DESIGN.md), and
// the ablations A1–A4 quantify the paper's §3.5.1/§1 optimizations.
// cmd/experiments regenerates every table; bench_test.go exposes one
// benchmark per experiment.
package harness

import (
	"fmt"
	"sort"

	"ocsml/internal/baseline/bcs"
	"ocsml/internal/baseline/chandylamport"
	"ocsml/internal/baseline/kootoueg"
	"ocsml/internal/baseline/nop"
	"ocsml/internal/baseline/staggered"
	"ocsml/internal/baseline/uncoord"
	"ocsml/internal/core"
	"ocsml/internal/des"
	"ocsml/internal/engine"
	"ocsml/internal/reliable"
	"ocsml/internal/storage"
	"ocsml/internal/workload"
)

// Scale selects the size of the sweeps. Quick mode keeps every experiment
// under a second for benchmarks and CI; Full mode is what
// cmd/experiments uses to regenerate EXPERIMENTS.md.
type Scale struct {
	Quick bool
}

// Ns returns the cluster sizes swept by the N-dependent experiments.
func (s Scale) Ns() []int {
	if s.Quick {
		return []int{4, 8, 16}
	}
	return []int{4, 8, 16, 32, 64}
}

// Steps returns the per-process work quota.
func (s Scale) Steps() int64 {
	if s.Quick {
		return 800
	}
	return 3000
}

// Think returns the mean per-step computation time.
func (s Scale) Think() des.Duration {
	if s.Quick {
		return 20 * des.Millisecond
	}
	return 30 * des.Millisecond
}

// Interval returns the checkpoint period for the N sweeps, chosen so the
// largest swept cluster keeps the storage server below saturation even
// for the write-burst baselines (N · state/bandwidth < Interval).
func (s Scale) Interval() des.Duration {
	if s.Quick {
		return 4 * des.Second
	}
	return 30 * des.Second
}

// StateBytes returns the checkpointed process-image size.
func (s Scale) StateBytes() int64 {
	if s.Quick {
		return 4 << 20
	}
	return 16 << 20
}

// Span is the approximate virtual length of the workload
// (Steps × Think); experiments that sweep the message rate hold it
// constant by adjusting Steps.
func (s Scale) Span() des.Duration {
	return des.Duration(s.Steps()) * s.Think()
}

// RunCfg describes one simulation run in the sweeps.
type RunCfg struct {
	Proto      string // registry name
	N          int
	Seed       int64
	Steps      int64
	Think      des.Duration
	Pattern    workload.Pattern
	MsgBytes   int64
	StateBytes int64
	Interval   des.Duration // checkpoint period
	Timeout    des.Duration // OCSML convergence timeout
	Trace      bool
	Opt        *core.Options // full OCSML options override (ablations)
	// Failure, when non-nil, injects a crash and live recovery (the
	// protocol must support rollback — currently OCSML).
	Failure *engine.FailurePlan
	// DropRate makes the network lossy; set Reliable to wrap the
	// protocol in the retransmission transport.
	DropRate float64
	Reliable bool
	// Script, when non-nil, replays an explicit send plan (e.g. loaded
	// from a trace file) instead of the synthetic workload.
	Script map[int][]workload.ScriptedSend
	// LocalStorage gives every process its own disk instead of the
	// shared network file server.
	LocalStorage bool
}

func (rc RunCfg) defaults() RunCfg {
	if rc.N == 0 {
		rc.N = 8
	}
	if rc.Seed == 0 {
		rc.Seed = 1
	}
	if rc.Steps == 0 {
		rc.Steps = 300
	}
	if rc.Think == 0 {
		rc.Think = 10 * des.Millisecond
	}
	if rc.MsgBytes == 0 {
		rc.MsgBytes = 2 << 10
	}
	if rc.StateBytes == 0 {
		rc.StateBytes = 16 << 20
	}
	if rc.Interval == 0 {
		rc.Interval = des.Second
	}
	if rc.Timeout == 0 {
		rc.Timeout = 500 * des.Millisecond
	}
	return rc
}

// ProtoNames lists the registry, in presentation order.
func ProtoNames() []string {
	return []string{"none", "ocsml", "chandy-lamport", "koo-toueg", "staggered", "bcs-cic", "uncoordinated"}
}

// factory resolves a protocol name. It reports whether the protocol needs
// FIFO channels.
func factory(rc RunCfg) (engine.ProtoFactory, bool) {
	switch rc.Proto {
	case "none", "":
		return nop.Factory(), false
	case "ocsml":
		opt := core.DefaultOptions()
		if rc.Opt != nil {
			opt = *rc.Opt
		} else {
			opt.Interval = rc.Interval
			opt.Timeout = rc.Timeout
		}
		return core.Factory(opt), false
	case "ocsml-basic": // Figure-3 algorithm without control messages
		opt := core.DefaultOptions()
		opt.Interval = rc.Interval
		opt.Timeout = 0
		return core.Factory(opt), false
	case "chandy-lamport":
		return chandylamport.Factory(chandylamport.Options{Interval: rc.Interval, BlockingWrite: true}), true
	case "koo-toueg":
		return kootoueg.Factory(kootoueg.Options{Interval: rc.Interval}), false
	case "staggered":
		return staggered.Factory(staggered.Options{Interval: rc.Interval}), true
	case "bcs-cic":
		return bcs.Factory(bcs.Options{Interval: rc.Interval, BlockingForced: true}), false
	case "uncoordinated":
		return uncoord.Factory(uncoord.Options{Interval: rc.Interval}), false
	default:
		panic(fmt.Sprintf("harness: unknown protocol %q (known: %v + ocsml-basic)", rc.Proto, ProtoNames()))
	}
}

// Run executes one configured simulation.
func Run(rc RunCfg) *engine.Result {
	rc = rc.defaults()
	pf, fifo := factory(rc)
	if rc.Reliable {
		pf = reliable.Factory(pf, reliable.DefaultOptions())
	}
	cfg := engine.DefaultConfig()
	cfg.N = rc.N
	cfg.Seed = rc.Seed
	cfg.FIFO = fifo
	cfg.DropRate = rc.DropRate
	cfg.Storage = storage.DefaultConfig()
	cfg.LocalStorage = rc.LocalStorage
	cfg.StateBytes = rc.StateBytes
	cfg.CopyCost = 5 * des.Millisecond
	cfg.Drain = 4 * (rc.Interval + rc.Timeout)
	cfg.TraceEnabled = rc.Trace
	// Bound runaway runs: a protocol that starves the workload (e.g. a
	// blocking baseline with an infeasibly short checkpoint period)
	// is cut off and reported as Completed=false instead of grinding
	// toward a distant horizon.
	cfg.MaxTime = des.Time(rc.Steps)*rc.Think*20 + 500*rc.Interval
	af := workload.Factory(workload.Config{
		Pattern: rc.Pattern, Steps: rc.Steps, Think: rc.Think,
		MsgBytes: rc.MsgBytes, BurstLen: 25, BurstIdle: 10 * rc.Think,
		ServerReplies: true,
	})
	if rc.Script != nil {
		af = workload.ScriptedFactory(rc.Script)
	}
	c := engine.New(cfg, pf, af)
	if rc.Failure != nil {
		c.InjectFailure(*rc.Failure)
	}
	return c.Run()
}

// Experiment is one reproducible evaluation artifact.
type Experiment struct {
	ID    string
	Title string
	// Claim is the paper statement the experiment checks.
	Claim string
	Run   func(s Scale) *Table
}

// Execute runs the experiment and stamps the table with the experiment's
// identity.
func (e Experiment) Execute(s Scale) *Table {
	t := e.Run(s)
	t.ID, t.Title, t.Claim = e.ID, e.Title, e.Claim
	return t
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		E1(), E2(), E3(), E4(), E5(), E6(), E7(), E8(), E9(), E10(), E11(),
		A1(), A2(), A3(), A4(),
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists all experiment ids.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}
