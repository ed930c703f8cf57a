package core_test

// Cross-cutting invariant tests: for many seeds, workloads and option
// permutations, every global checkpoint the protocol emits must be
// consistent (paper Theorem 2), every tentative checkpoint must finalize
// (Theorem 1, given control messages), and restoring CT plus replaying the
// message log must reproduce the state at the cut point exactly.

import (
	"fmt"
	"testing"

	"ocsml/internal/core"
	"ocsml/internal/des"
	"ocsml/internal/engine"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
	"ocsml/internal/workload"
)

type runSpec struct {
	n     int
	seed  int64
	opt   core.Options
	wl    workload.Config
	drain des.Duration
}

func runCore(t *testing.T, spec runSpec) (*engine.Result, []*core.Protocol) {
	t.Helper()
	cfg := engine.DefaultConfig()
	cfg.N = spec.n
	cfg.Seed = spec.seed
	cfg.StateBytes = 4 << 20
	cfg.CopyCost = des.Millisecond
	cfg.Drain = spec.drain
	if cfg.Drain == 0 {
		cfg.Drain = 30 * des.Second
	}
	protos := make([]*core.Protocol, spec.n)
	pf := func(i, n int) protocol.Protocol {
		protos[i] = core.New(spec.opt)
		return protos[i]
	}
	r := engine.New(cfg, pf, workload.Factory(spec.wl)).Run()
	if !r.Completed {
		t.Fatalf("run did not complete (spec %+v)", spec)
	}
	return r, protos
}

func checkInvariants(t *testing.T, r *engine.Result, protos []*core.Protocol) {
	t.Helper()
	// Theorem 2: every complete global checkpoint is consistent.
	seqs, err := r.CheckAllGlobals()
	if err != nil {
		t.Fatalf("consistency: %v", err)
	}
	if len(seqs) < 2 {
		t.Fatalf("too few global checkpoints: %v", seqs)
	}
	// Sequence numbers are gap-free per process.
	for p := 0; p < r.Cfg.N; p++ {
		recs := r.Ckpts.Proc(p).All()
		for i, rec := range recs {
			if rec.Seq != i {
				t.Fatalf("P%d seq gap: record %d has seq %d", p, i, rec.Seq)
			}
			if rec.Seq > 0 && rec.FinalizedAt < rec.TakenAt {
				t.Fatalf("P%d C_%d finalized before taken", p, rec.Seq)
			}
			// Replay exactness: CT state + log replay == state at CFE.
			if !rec.Replays() {
				t.Fatalf("P%d C_%d: replay fold mismatch (log len %d)", p, rec.Seq, len(rec.Log))
			}
		}
	}
	// Theorem 1 (with control messages): nothing left tentative after
	// the drain, and all processes finalized the same set.
	if protos[0] != nil && protos[0].Csn() >= 0 {
		maxSeq := r.Ckpts.Proc(0).MaxSeq()
		for p, pr := range protos {
			if pr.Status() != core.Normal {
				t.Fatalf("P%d still tentative at end (csn=%d)", p, pr.Csn())
			}
			if got := r.Ckpts.Proc(p).MaxSeq(); got != maxSeq {
				t.Fatalf("P%d max seq %d != P0's %d", p, got, maxSeq)
			}
		}
	}
	// The trace agrees: every KTentative has a matching KFinalize.
	tent := r.Trace.CountKind(trace.KTentative)
	fin := r.Trace.CountKind(trace.KFinalize)
	if tent != fin {
		t.Fatalf("tentative events %d != finalize events %d", tent, fin)
	}
}

func TestInvariantsAcrossSeedsAndPatterns(t *testing.T) {
	patterns := []workload.Pattern{
		workload.UniformRandom, workload.Ring, workload.ClientServer,
		workload.Mesh, workload.Bursty,
	}
	for _, pat := range patterns {
		for seed := int64(1); seed <= 4; seed++ {
			pat, seed := pat, seed
			t.Run(fmt.Sprintf("%v/seed%d", pat, seed), func(t *testing.T) {
				wl := workload.Config{
					Pattern: pat, Steps: 300, Think: 20 * des.Millisecond,
					MsgBytes: 2 << 10, BurstLen: 20, BurstIdle: 300 * des.Millisecond,
					ServerReplies: true,
				}
				opt := core.DefaultOptions()
				opt.Interval = 2 * des.Second
				opt.Timeout = 500 * des.Millisecond
				r, protos := runCore(t, runSpec{n: 6, seed: seed, opt: opt, wl: wl})
				checkInvariants(t, r, protos)
			})
		}
	}
}

func TestInvariantsAcrossOptionPermutations(t *testing.T) {
	base := core.Options{
		Interval:  2 * des.Second,
		Timeout:   500 * des.Millisecond,
		FlushPoll: 50 * des.Millisecond,
	}
	for mask := 0; mask < 16; mask++ {
		opt := base
		opt.SuppressBGN = mask&1 != 0
		opt.EscalateBGN = mask&2 != 0
		opt.SkipREQ = mask&4 != 0
		opt.EarlyFlush = mask&8 != 0
		if opt.EscalateBGN && !opt.SuppressBGN {
			continue // escalation only modifies suppression
		}
		mask := mask
		t.Run(fmt.Sprintf("mask%02d", mask), func(t *testing.T) {
			wl := workload.Config{
				Pattern: workload.UniformRandom, Steps: 200,
				Think: 25 * des.Millisecond, MsgBytes: 1 << 10,
			}
			r, protos := runCore(t, runSpec{n: 5, seed: int64(mask + 1), opt: opt, wl: wl})
			checkInvariants(t, r, protos)
		})
	}
}

func TestVeryLargeCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// 256 processes: exercises the multi-word ProcSet paths and the
	// control machinery at scale.
	wl := workload.Config{
		Pattern: workload.UniformRandom, Steps: 40,
		Think: 40 * des.Millisecond, MsgBytes: 512,
	}
	opt := core.DefaultOptions()
	opt.Interval = des.Second
	opt.Timeout = 400 * des.Millisecond
	r, protos := runCore(t, runSpec{n: 256, seed: 5, opt: opt, wl: wl, drain: 15 * des.Second})
	checkInvariants(t, r, protos)
}

func TestLargerClusters(t *testing.T) {
	for _, n := range []int{16, 48, 80} {
		n := n
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			wl := workload.Config{
				Pattern: workload.UniformRandom, Steps: 60,
				Think: 30 * des.Millisecond, MsgBytes: 1 << 10,
			}
			opt := core.DefaultOptions()
			opt.Interval = des.Second
			opt.Timeout = 300 * des.Millisecond
			r, protos := runCore(t, runSpec{n: n, seed: 9, opt: opt, wl: wl, drain: 10 * des.Second})
			checkInvariants(t, r, protos)
		})
	}
}

// TestConvergenceOnQuietWorkload is Theorem 1's hard case: almost no
// application traffic, so control messages must finalize every checkpoint.
func TestConvergenceOnQuietWorkload(t *testing.T) {
	for _, variant := range []struct {
		name string
		mod  func(*core.Options)
	}{
		{"paper-suppression", func(o *core.Options) { o.SuppressBGN = true }},
		{"no-suppression", func(o *core.Options) { o.SuppressBGN = false }},
		{"escalation", func(o *core.Options) { o.SuppressBGN = true; o.EscalateBGN = true }},
	} {
		variant := variant
		t.Run(variant.name, func(t *testing.T) {
			opt := core.Options{
				Interval: des.Second, Timeout: 200 * des.Millisecond,
				SkipREQ: true, EarlyFlush: true, FlushPoll: 50 * des.Millisecond,
			}
			variant.mod(&opt)
			wl := workload.Config{
				Pattern: workload.UniformRandom, Steps: 8,
				Think: 800 * des.Millisecond, MsgBytes: 512,
			}
			r, protos := runCore(t, runSpec{n: 6, seed: 3, opt: opt, wl: wl, drain: 5 * des.Second})
			checkInvariants(t, r, protos)
			if r.Counter("ctl.CK_REQ") == 0 {
				t.Fatal("quiet workload should have needed control rounds")
			}
		})
	}
}

// TestControlMessagesVanishUnderTraffic verifies the paper's headline
// claim for §3.5.1: "Control messages are not sent if each global
// checkpoint can be finalized within the timeout interval."
func TestControlMessagesVanishUnderTraffic(t *testing.T) {
	opt := core.Options{
		Interval: des.Second, Timeout: 2 * des.Second,
		SkipREQ: true, // SuppressBGN off: P0 then never broadcasts on finalize
	}
	wl := workload.Config{
		Pattern: workload.UniformRandom, Steps: 3000,
		Think: 2 * des.Millisecond, MsgBytes: 512,
	}
	r, protos := runCore(t, runSpec{n: 6, seed: 5, opt: opt, wl: wl})
	checkInvariants(t, r, protos)
	// While application traffic flows, no control message is ever sent.
	// (Once the workload completes and traffic stops, the final
	// checkpoint legitimately needs one control round — that is exactly
	// the convergence mechanism doing its job, so only pre-makespan
	// control traffic counts against the claim.)
	for _, e := range r.Trace.Events() {
		if e.Kind == trace.KCtlSend && e.T < r.Makespan {
			t.Fatalf("control message %q sent at %v, before workload completion %v",
				e.Tag, e.T, r.Makespan)
		}
	}
	if r.GlobalCheckpoints() < 3 {
		t.Fatalf("expected several global checkpoints, got %d", r.GlobalCheckpoints())
	}
}

// TestNoForcedCheckpointsEver: the paper's algorithm never takes a
// checkpoint before processing a received message, and never takes more
// than one checkpoint per initiation — at most one tentative checkpoint
// per process per sequence number.
func TestNoForcedCheckpointsEver(t *testing.T) {
	wl := workload.Config{
		Pattern: workload.UniformRandom, Steps: 500,
		Think: 5 * des.Millisecond, MsgBytes: 1 << 10,
	}
	opt := core.DefaultOptions()
	opt.Interval = des.Second
	opt.Timeout = 300 * des.Millisecond
	r, protos := runCore(t, runSpec{n: 6, seed: 8, opt: opt, wl: wl})
	checkInvariants(t, r, protos)
	if got := r.Trace.CountKind(trace.KForced); got != 0 {
		t.Fatalf("OCSML took %d forced checkpoints", got)
	}
	// Per process and sequence number there is exactly one tentative.
	seen := map[[2]int]int{}
	for _, e := range r.Trace.Events() {
		if e.Kind == trace.KTentative {
			seen[[2]int{e.Proc, e.Seq}]++
		}
	}
	for k, v := range seen {
		if v != 1 {
			t.Fatalf("P%d took %d tentative checkpoints with seq %d", k[0], v, k[1])
		}
	}
}

// TestEarlyFlushAvoidsContention: with EarlyFlush the tentative checkpoint
// writes spread out (queue ~1); the records carry FlushedAt < FinalizedAt
// evidence.
func TestEarlyFlush(t *testing.T) {
	wl := workload.Config{
		Pattern: workload.UniformRandom, Steps: 600,
		Think: 5 * des.Millisecond, MsgBytes: 1 << 10,
	}
	opt := core.DefaultOptions()
	opt.Interval = des.Second
	opt.Timeout = 300 * des.Millisecond
	// A fast poll guarantees the idle check fires inside the tentative
	// window even when dense traffic finalizes quickly.
	opt.FlushPoll = 5 * des.Millisecond
	r, protos := runCore(t, runSpec{n: 6, seed: 2, opt: opt, wl: wl})
	checkInvariants(t, r, protos)
	if r.Counter("early_flush") == 0 {
		t.Fatal("no early flushes happened")
	}
	early := 0
	for p := 0; p < 6; p++ {
		for _, rec := range r.Ckpts.Proc(p).All() {
			if rec.Seq > 0 && rec.FlushedAt > 0 && rec.FlushedAt < rec.FinalizedAt {
				early++
			}
		}
	}
	if early == 0 {
		t.Fatal("no record shows a pre-finalization CT flush")
	}
}

// TestStableMarks: after the drain, finalized checkpoints reach stable
// storage and MaxStableSeq tracks MaxCompleteSeq.
func TestStableMarks(t *testing.T) {
	wl := workload.Config{
		Pattern: workload.UniformRandom, Steps: 400,
		Think: 5 * des.Millisecond, MsgBytes: 1 << 10,
	}
	opt := core.DefaultOptions()
	opt.Interval = des.Second
	opt.Timeout = 300 * des.Millisecond
	r, protos := runCore(t, runSpec{n: 4, seed: 4, opt: opt, wl: wl})
	checkInvariants(t, r, protos)
	complete := r.Ckpts.MaxCompleteSeq()
	stable := r.Ckpts.MaxStableSeq()
	if stable < complete-1 {
		t.Fatalf("stable seq %d lags complete seq %d by more than one", stable, complete)
	}
	if stable < 1 {
		t.Fatalf("nothing became stable (stable=%d)", stable)
	}
}

// TestPiggybackAccounting: every application message carries csn+stat+
// tentSet; the engine's piggyback byte counter must equal msgs * (5 + ⌈N/8⌉).
func TestPiggybackAccounting(t *testing.T) {
	wl := workload.Config{
		Pattern: workload.UniformRandom, Steps: 100,
		Think: 10 * des.Millisecond, MsgBytes: 1 << 10,
	}
	opt := core.DefaultOptions()
	opt.Interval = des.Second
	r, _ := runCore(t, runSpec{n: 6, seed: 6, opt: opt, wl: wl})
	want := r.AppMsgs * (5 + 1) // N=6 → tentSet is 1 byte
	if r.PiggybackBytes != want {
		t.Fatalf("PiggybackBytes = %d, want %d", r.PiggybackBytes, want)
	}
}

func TestStatusAndOptionHelpers(t *testing.T) {
	if core.Normal.String() != "normal" || core.Tentative.String() != "tentative" {
		t.Fatal("Status.String wrong")
	}
	opt := core.DefaultOptions()
	if opt.Interval <= 0 || opt.Timeout <= 0 || !opt.SkipREQ {
		t.Fatalf("DefaultOptions suspicious: %+v", opt)
	}
	p := core.New(core.Options{})
	if p.Name() != "ocsml" {
		t.Fatal("Name wrong")
	}
}
