// Command bench is the repository's end-to-end benchmark: an N=4 cluster
// of the real TCP runtime (internal/transport) in one process, talking
// over loopback sockets and checkpointing onto real fsstore directories
// with real fsyncs, measured from outside through the seams the runtime
// already exposes. See README.md for the metrics, the workloads and how
// the layers are expected to move them.
//
// Usage (bench/run.sh builds and runs it):
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result JSON
//	bench [-suite R] [-out FILE]                          every workload: R untraced runs and one traced
//	bench -compare A.json B.json                          gate B against A with BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"ocsml/internal/checkpoint"
	"ocsml/internal/fsstore"
	"ocsml/internal/protocol"
)

// tracedWarmup replaces the 3 s warm-up in traced runs, which bring up
// three clusters inside the same time budget.
const tracedWarmup = time.Second

// memoryLimit is the safety net under "GC off": the collector stays off
// until the heap nears this size. Only saturate-ring allocates enough to
// reach it; there its few collections find almost nothing live.
const memoryLimit = 512 << 20

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	workdir   string
	out       string
	spans     string
	suite     int
	compare   bool
	benchmark string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all, each in its own process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, tracing on")
	flag.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "data"), "where datadirs are created (must not be tmpfs)")
	flag.StringVar(&o.out, "out", "", "write the result file here")
	flag.StringVar(&o.spans, "spans", "", "traced run: write the spans here as JSONL")
	flag.IntVar(&o.suite, "suite", 1, "without -workload: untraced runs per workload, seeds seed..seed+suite-1")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare A.json B.json")
	flag.StringVar(&o.benchmark, "benchmark", "BENCHMARK.json", "the benchmark contract (bounds for -compare)")
	flag.Parse()

	var err error
	code := 0
	switch {
	case o.compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result files")
			break
		}
		code, err = compare(os.Stdout, o.benchmark, flag.Arg(0), flag.Arg(1))
	case o.workload == "":
		code, err = suite(o)
	default:
		code, err = single(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// result is one run's result file, and (metrics reduced to value and
// unit) the JSON object a run prints last.
type result struct {
	Env       environment `json:"env"`
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	Seconds   int         `json:"seconds"`
	Trace     int         `json:"trace"`
	Correct   bool        `json:"correct"`
	Attempted int64       `json:"attempted"`
	Failed    int64       `json:"failed"`
	Problems  []string    `json:"problems,omitempty"`
	Metrics   []metric    `json:"metrics"`
}

// lastLine renders the driver's contract: exactly correct, attempted,
// failed and metrics, each metric exactly value and unit.
func (r *result) lastLine() string {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]vu{}
	for _, m := range r.Metrics {
		ms[m.Name] = vu{m.Value, m.Unit}
	}
	raw, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, ms})
	return string(raw)
}

// single is one run of one workload in this process.
func single(o options) (int, error) {
	w := findWorkload(o.workload)
	if w == nil {
		return 0, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return 0, fmt.Errorf("-seconds must be at least 1")
	}
	dir, err := filepath.Abs(filepath.Join(o.workdir, fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	env, err := readEnvironment(dir)
	if err != nil {
		return 0, err
	}

	// The harness goroutine sleeps in the kernel between sends; without
	// the default 50 µs timer slack its wake-ups are not what is measured.
	runtime.LockOSThread()
	const prSetTimerslack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(memoryLimit)

	res := &result{Env: env, Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	dur := time.Duration(o.seconds) * time.Second
	fmt.Printf("workload %s  seed %d  window %v  trace %d\n  %s\n", w.name, o.seed, dur, o.trace, w.why)
	if o.trace == 0 {
		err = untraced(w, o, dir, dur, res)
	} else {
		err = traced(w, o, dir, dur, res)
	}
	if err != nil {
		return 0, err
	}
	res.Correct = len(res.Problems) == 0
	for _, p := range res.Problems {
		fmt.Println("  CHECK FAILED:", p)
	}
	fmt.Printf("  operations attempted %d, failed %d (failed_ops_ratio %.6f); outputs correct: %v\n",
		res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)), res.Correct)
	if o.out != "" {
		raw, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(o.out, raw, 0o644); err != nil {
			return 0, err
		}
	}
	fmt.Println(res.lastLine())
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// untraced is the --trace 0 run: set-up trials, one measured phase with
// every probe off, the output checks, the end-to-end metrics.
func untraced(w *workload, o options, dir string, dur time.Duration, res *result) error {
	trials, err := medianSetup(w, o.seed, dir)
	if err != nil {
		return err
	}
	var obs *observation
	run := filepath.Join(dir, "run")
	if w.crash {
		ph, err := runCrash(w, o.seed, run, warmup, dur, false)
		if err != nil {
			return err
		}
		obs = ph.obs
		res.Problems = ph.verify()
	} else {
		ph, err := runOwned(clusterConfig{w: w, seed: o.seed, datadir: run}, warmup, dur)
		if err != nil {
			return err
		}
		obs = ph.obs
		res.Problems = ph.verify()
	}
	res.Metrics = endToEnd(obs, trials)
	res.Attempted, res.Failed = obs.attempted, obs.failed
	printMetrics(os.Stdout, "end to end (tracing off)", res.Metrics)
	tails := ungated(obs)
	printMetrics(os.Stdout, "end to end, reported without a bound (a traced run lists them per layer)", tails)
	noteSupport(os.Stdout, tails)
	return nil
}

// traced is the --trace 1 run: an untraced reference phase, the traced
// phase and the nop baseline share the window; the layer replays follow.
func traced(w *workload, o options, dir string, dur time.Duration, res *result) error {
	in := &layerInput{w: w}
	var err error
	if in.fsyncUs, err = fsyncProbe(dir); err != nil {
		return err
	}
	part := func(share float64) time.Duration { return time.Duration(float64(dur) * share) }
	nopW := *w
	var spanGroups [][]span
	reopenFrom, reopenProc := "", 0
	if w.crash {
		ph, err := runCrash(w, o.seed, filepath.Join(dir, "crash"), tracedWarmup, part(0.7), true)
		if err != nil {
			return err
		}
		res.Problems = ph.verify()
		in.ref, in.tr, in.cycles = ph.obs, ph.obs, ph.cycles
		in.events = ph.tc.Counters()
		in.recs = allRecords(ph.tc.Ckpts)
		reopenFrom = ph.dir
		if k := len(ph.cycles); k > 0 {
			reopenProc = ph.cycles[k-1].victim
		}
		// The baseline carries the synthetic application's traffic shape.
		nopW.crash, nopW.ratePerProc = false, float64(time.Second)/float64(w.think)
		spanGroups = append(spanGroups, ph.spans())
	} else {
		ref, err := runOwned(clusterConfig{w: w, seed: o.seed, datadir: filepath.Join(dir, "ref")}, tracedWarmup, part(0.3))
		if err != nil {
			return err
		}
		tr, err := runOwned(clusterConfig{w: w, seed: o.seed, datadir: filepath.Join(dir, "traced"), traced: true}, tracedWarmup, part(0.4))
		if err != nil {
			return err
		}
		res.Problems = append(ref.verify(), tr.verify()...)
		in.ref, in.tr, in.probes = ref.obs, tr.obs, tr.c.probes
		in.events = ref.c.reg.EventCounts()
		in.recs = allRecords(ref.c.ckpts)
		reopenFrom = ref.c.cfg.datadir
		var captured [][]protocol.Envelope
		for _, p := range tr.c.probes {
			captured = append(captured, p.captured)
			spanGroups = append(spanGroups, p.spans)
		}
		in.wire = replayWire(captured)
		spanGroups = append(spanGroups, transitSpans(tr.c.probes), roundSpans(tr.obs))
		res.Attempted, res.Failed = tr.obs.attempted, tr.obs.failed
	}
	nop, err := runOwned(clusterConfig{w: &nopW, seed: o.seed, nop: true}, tracedWarmup, part(0.3))
	if err != nil {
		return err
	}
	res.Problems = append(res.Problems, nop.verify()...)
	in.nop = nop.obs
	res.Attempted += in.ref.attempted + nop.obs.attempted
	res.Failed += in.ref.failed + nop.obs.failed

	// A group commit costs three fsyncs (segment, manifest, directory), so
	// fsyncs per finalize tells how many records the live commits held.
	a, b := in.ref.snaps[0], in.ref.snaps[subWindows]
	depth := max(1, int(ratio(3*float64(b.finalizes-a.finalizes), float64(b.fsyncs-a.fsyncs))+0.5))
	if in.fin, err = replayFinalize(in.recs[reopenProc], depth, filepath.Join(dir, "replay-finalize")); err != nil {
		return err
	}
	if in.reopen, err = replayReopen(reopenFrom, reopenProc, filepath.Join(dir, "replay-reopen")); err != nil {
		return err
	}

	res.Metrics = perLayer(in, os.Stdout)
	printMetrics(os.Stdout, "per layer (reference, traced and baseline phases; replays)", res.Metrics)
	if o.spans != "" {
		if err := writeSpans(o.spans, spanGroups...); err != nil {
			return err
		}
	}
	return nil
}

func allRecords(ckpts *checkpoint.Store) [][]checkpoint.Record {
	var out [][]checkpoint.Record
	for i := 0; i < clusterN; i++ {
		out = append(out, ckpts.Proc(i).All())
	}
	return out
}

// roundSpans renders the durable rounds as checkpoint-path spans.
func roundSpans(obs *observation) []span {
	var out []span
	for _, r := range obs.rs {
		out = append(out,
			span{Kind: spTentToFinal, Trace: int64(r.seq), Start: r.taken, End: r.finalized, Parent: -1},
			span{Kind: spFinalToDurable, Trace: int64(r.seq), Start: r.finalized, End: r.stable, Parent: -1})
	}
	return out
}

// verify runs the output checks on a stopped benchmark-owned cluster.
func (ph *phase) verify() []string {
	c, obs := ph.c, ph.obs
	var problems []string
	if sent, recv := c.traffic(); sent != recv {
		problems = append(problems, fmt.Sprintf("%d messages sent, %d delivered after the drain", sent, recv))
	}
	problems = append(problems, wantZero(c.reg, "triggers given up on", int64(obs.refused))...)
	if c.cfg.datadir == "" {
		return problems
	}
	if n := c.unstable(); n != 0 {
		problems = append(problems, fmt.Sprintf("%d finalized checkpoints not durable after the drain", n))
	}
	problems = append(problems, checkStorage(c.ckpts, c.cfg.datadir, func(i int) *fsstore.Store { return c.fss[i] })...)
	if c.cfg.traced {
		_, bad := checkCuts(c.rec.Events(), c.ckpts)
		problems = append(problems, bad...)
	}
	return problems
}

// verify runs the output checks on a stopped crash-recover cluster.
func (ph *crashPhase) verify() []string {
	problems := wantZero(ph.tc.Metrics, "recovery.replay_mismatch", ph.tc.Counter("recovery.replay_mismatch"))
	for k, cy := range ph.cycles {
		if p := cy.problem(); p != "" {
			problems = append(problems, fmt.Sprintf("cycle %d: %s", k, p))
		}
	}
	if len(ph.cycles) == 0 {
		problems = append(problems, "no kill/recover cycle fitted in the window")
	}
	problems = append(problems, checkStorage(ph.tc.Ckpts, ph.dir, ph.tc.FS)...)
	_, bad := checkCuts(ph.events, ph.tc.Ckpts)
	return append(problems, bad...)
}

// spans renders the recovery cycles as recovery-path spans.
func (ph *crashPhase) spans() []span {
	var out []span
	for k, cy := range ph.cycles {
		if _, _, _, _, ok := cycleStages(cy); !ok {
			continue
		}
		for _, s := range []span{
			{Kind: spReopen, Start: cy.invoked, End: cy.begun},
			{Kind: spHandshake, Start: cy.begun, End: cy.acked},
			{Kind: spRestart, Start: cy.acked, End: cy.returned},
			{Kind: spFirstDelivery, Start: cy.returned, End: cy.first},
		} {
			s.Trace, s.Parent = int64(k), -1
			out = append(out, s)
		}
	}
	return out
}
