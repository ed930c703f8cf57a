package harness

import (
	"fmt"
	"math"

	"ocsml/internal/core"
	"ocsml/internal/des"
	"ocsml/internal/engine"
	"ocsml/internal/trace"
	"ocsml/internal/workload"
)

// overheadProtos are the protocols compared in the headline sweeps.
var overheadProtos = []string{"none", "ocsml", "chandy-lamport", "koo-toueg", "staggered", "bcs-cic"}

// sweepCfg is the common configuration of the N sweeps (E1, E2, E6).
func sweepCfg(s Scale, proto string, n int) RunCfg {
	return RunCfg{
		Proto: proto, N: n,
		Steps: s.Steps(), Think: s.Think(),
		Interval: s.Interval(), StateBytes: s.StateBytes(),
	}
}

// rateCfg is the common configuration of the message-rate sweeps (E3, E4,
// E5, E7): the workload span is held constant while the per-step think
// time varies, so every row sees the same number of checkpoint rounds.
func rateCfg(s Scale, proto string, think, interval des.Duration) RunCfg {
	span := 6 * interval
	steps := int64(span / think)
	if steps < 20 {
		steps = 20
	}
	return RunCfg{
		Proto: proto, N: 8,
		Steps: steps, Think: think,
		Interval: interval, StateBytes: 4 << 20,
	}
}

func rateInterval(s Scale) des.Duration {
	if s.Quick {
		return des.Second
	}
	return 4 * des.Second
}

// Seeds returns the independent repetitions used by statistics-bearing
// experiments.
func (s Scale) Seeds() []int64 {
	if s.Quick {
		return []int64{1, 2}
	}
	return []int64{1, 2, 3}
}

// meanSD returns the mean and population standard deviation.
func meanSD(xs []float64) (mean, sd float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)))
}

// E1 measures checkpointing overhead (makespan inflation over the
// no-checkpointing baseline) as the cluster grows, averaged over
// independent seeds.
func E1() Experiment {
	return Experiment{
		ID:    "E1",
		Title: "Checkpointing overhead (makespan inflation) vs N",
		Claim: "OCSML's overhead stays near zero and flat in N; blocking and bursty protocols degrade with N (paper §1).",
		Run: func(s Scale) *Table {
			t := &Table{Columns: []string{"N", "protocol", "makespan(s)", "sd(s)", "overhead"}}
			for _, n := range s.Ns() {
				var base float64
				for _, proto := range overheadProtos {
					var ms []float64
					completed := true
					for _, seed := range s.Seeds() {
						rc := sweepCfg(s, proto, n)
						rc.Seed = seed
						r := Run(rc)
						completed = completed && r.Completed
						ms = append(ms, r.Makespan.Seconds())
					}
					mean, sd := meanSD(ms)
					cell := F(mean)
					if !completed {
						cell = "DNF"
					}
					if proto == "none" {
						base = mean
					}
					over := "-"
					if base > 0 && completed {
						over = Pct(mean/base - 1)
					}
					t.AddRow(I(n), proto, cell, F(sd), over)
				}
			}
			t.Note("mean over %d seeds", len(s.Seeds()))
			return t
		},
	}
}

// E2 measures contention at the stable-storage server.
func E2() Experiment {
	return Experiment{
		ID:    "E2",
		Title: "Stable-storage contention vs N",
		Claim: "OCSML reduces/eliminates contention for network storage at the file server (paper abstract); synchronous protocols queue N writes at once.",
		Run: func(s Scale) *Table {
			t := &Table{Columns: []string{"N", "protocol", "peakQueue", "meanWait(s)", "p95Wait(s)", "utilization"}}
			for _, n := range s.Ns() {
				for _, proto := range []string{"ocsml", "chandy-lamport", "koo-toueg", "staggered", "bcs-cic"} {
					r := Run(sweepCfg(s, proto, n))
					t.AddRow(I(n), proto,
						I(r.Storage.PeakQueue()),
						F(r.Storage.MeanWait()),
						F(r.Storage.WaitTime.Percentile(95)),
						F(r.Storage.Utilization()))
				}
			}
			return t
		},
	}
}

// E3 counts control messages as application traffic density varies.
func E3() Experiment {
	return Experiment{
		ID:    "E3",
		Title: "OCSML control messages per global checkpoint vs message rate",
		Claim: "Control messages are not sent if each global checkpoint finalizes within the timeout (paper §3.5.1); they appear only on sparse traffic.",
		Run: func(s Scale) *Table {
			t := &Table{Columns: []string{"think(ms)", "msgs/s/proc", "globals", "ctl/global", "ctlPreCompletion"}}
			interval := rateInterval(s)
			for _, thinkMs := range []int64{2, 5, 10, 25, 60, 150, 400} {
				think := des.Duration(thinkMs) * des.Millisecond
				rc := rateCfg(s, "ocsml", think, interval)
				rc.Trace = true
				opt := core.DefaultOptions()
				opt.Interval = interval
				opt.Timeout = interval / 2
				opt.SuppressBGN = false // isolate pure demand-driven control traffic
				rc.Opt = &opt
				r := Run(rc)
				globals := r.GlobalCheckpoints()
				perGlobal := 0.0
				if globals > 0 {
					perGlobal = float64(r.CtlMsgs) / float64(globals)
				}
				pre := 0
				for _, e := range r.Trace.Events() {
					if e.Kind == trace.KCtlSend && e.T < r.Makespan {
						pre++
					}
				}
				rate := float64(r.AppMsgs) / float64(r.Cfg.N) / r.Makespan.Seconds()
				t.AddRow(I(thinkMs), F(rate), I(globals), F(perGlobal), I(pre))
			}
			return t
		},
	}
}

// E4 measures finalization latency (tentative → finalized).
func E4() Experiment {
	return Experiment{
		ID:    "E4",
		Title: "OCSML finalization latency vs message rate and timeout",
		Claim: "Dense traffic finalizes via piggybacks well before the timeout; sparse traffic converges at ~timeout + one control round.",
		Run: func(s Scale) *Table {
			t := &Table{Columns: []string{"think(ms)", "timeout(ms)", "meanFinalize(s)", "globals"}}
			interval := rateInterval(s)
			for _, thinkMs := range []int64{5, 25, 150} {
				for _, timeoutMs := range []int64{100, 250, 500} {
					rc := rateCfg(s, "ocsml", des.Duration(thinkMs)*des.Millisecond, interval)
					rc.Timeout = des.Duration(timeoutMs) * des.Millisecond
					r := Run(rc)
					t.AddRow(
						I(thinkMs), I(timeoutMs),
						F(r.MeanFinalizationLatency()), I(r.GlobalCheckpoints()))
				}
			}
			return t
		},
	}
}

// E5 measures the optimistic message-log volume.
func E5() Experiment {
	return Experiment{
		ID:    "E5",
		Title: "OCSML message-log volume vs message rate",
		Claim: "The selective log holds only messages inside the tentative window, so its size tracks rate × finalization latency.",
		Run: func(s Scale) *Table {
			t := &Table{Columns: []string{"think(ms)", "globals", "logKB/ckpt", "logMsgs/ckpt", "log/state"}}
			interval := rateInterval(s)
			for _, thinkMs := range []int64{2, 5, 10, 25, 60, 150} {
				rc := rateCfg(s, "ocsml", des.Duration(thinkMs)*des.Millisecond, interval)
				r := Run(rc)
				ckpts, msgs := 0, 0
				var bytes int64
				for p := 0; p < r.Cfg.N; p++ {
					for _, rec := range r.Ckpts.Proc(p).All() {
						if rec.Seq == 0 {
							continue
						}
						ckpts++
						msgs += len(rec.Log)
						bytes += rec.LogBytes()
					}
				}
				if ckpts == 0 {
					ckpts = 1
				}
				perCkpt := float64(bytes) / float64(ckpts)
				t.AddRow(I(thinkMs), I(r.GlobalCheckpoints()),
					F(perCkpt/1024), F(float64(msgs)/float64(ckpts)),
					Pct(perCkpt/float64(r.Cfg.StateBytes)))
			}
			return t
		},
	}
}

// E6 measures application blocking.
func E6() Experiment {
	return Experiment{
		ID:    "E6",
		Title: "Application blocking time vs N",
		Claim: "Processes never block for checkpointing under OCSML; synchronous protocols stall the computation (paper §1).",
		Run: func(s Scale) *Table {
			t := &Table{Columns: []string{"N", "protocol", "stalled(s)/proc", "stall/makespan"}}
			for _, n := range s.Ns() {
				for _, proto := range []string{"ocsml", "koo-toueg", "chandy-lamport", "bcs-cic"} {
					r := Run(sweepCfg(s, proto, n))
					per := r.StalledSeconds.Sum() / float64(n)
					frac := "-"
					if r.Completed && r.Makespan > 0 {
						frac = Pct(per / r.Makespan.Seconds())
					}
					t.AddRow(I(n), proto, F(per), frac)
				}
			}
			t.Note("OCSML's stall is only the in-memory copy cost (5ms per tentative checkpoint).")
			return t
		},
	}
}

// E7 measures forced checkpoints and the message response-time penalty.
func E7() Experiment {
	return Experiment{
		ID:    "E7",
		Title: "Forced checkpoints and message response time: CIC vs OCSML",
		Claim: "OCSML never checkpoints before processing a message; index-based CIC forces checkpoints ahead of processing, inflating response time (paper §1).",
		Run: func(s Scale) *Table {
			t := &Table{Columns: []string{"think(ms)", "protocol", "ckpts", "forced", "meanLatency(ms)", "p95Latency(ms)"}}
			interval := rateInterval(s)
			for _, thinkMs := range []int64{5, 15, 40} {
				for _, proto := range []string{"ocsml", "bcs-cic"} {
					rc := rateCfg(s, proto, des.Duration(thinkMs)*des.Millisecond, interval)
					rc.Trace = true
					r := Run(rc)
					forced := r.Trace.CountKind(trace.KForced)
					ckpts := r.Trace.CountKind(trace.KCheckpoint) + r.Trace.CountKind(trace.KTentative) + forced
					t.AddRow(I(thinkMs), proto, I(int64(ckpts)), I(int64(forced)),
						F(r.AppLatency.Mean()*1000), F(r.AppLatency.Percentile(95)*1000))
				}
			}
			return t
		},
	}
}

// E8 measures rollback after a failure: the OCSML rows crash P0 at 80 %
// of the nominal run (Steps × Think) and summarise the recovery that ran;
// uncoordinated checkpointing has no live recovery, so its rows are the
// domino analysis of a failure at the end of the run.
func E8() Experiment {
	return Experiment{
		ID:    "E8",
		Title: "Rollback on failure: domino effect vs bounded rollback",
		Claim: "Uncoordinated checkpointing cascades (domino effect, paper §1); every OCSML checkpoint belongs to a consistent global checkpoint so rollback is bounded by one interval.",
		Run: func(s Scale) *Table {
			t := &Table{Columns: []string{"pattern", "protocol", "rollbackDepth", "iterations", "lostWork", "lostMsgs"}}
			think := 5 * des.Millisecond
			steps := s.Steps()
			interval := des.Duration(steps) * think / 5 // ~5 rounds per run
			for _, pat := range []workload.Pattern{workload.UniformRandom, workload.Ring} {
				for _, proto := range []string{"ocsml", "uncoordinated"} {
					rc := RunCfg{
						Proto: proto, N: 8, Steps: steps, Pattern: pat,
						Think: think, Interval: interval,
						StateBytes: 4 << 20, Trace: true,
					}
					analyse := func(r *engine.Result) (*Analysis, error) { return Domino(r, trace.KCheckpoint) }
					if proto == "ocsml" {
						rc.Failure = &engine.FailurePlan{At: des.Time(steps) * think * 4 / 5}
						analyse = ExecutedRecovery
					}
					a, err := analyse(Run(rc))
					if err != nil {
						t.AddRow(pat.String(), proto, "err", "-", "-", "-")
						t.Note("%s/%s: %v", pat, proto, err)
						continue
					}
					t.AddRow(pat.String(), proto,
						I(a.RollbackDepth()), I(a.Iterations),
						Pct(a.LostWorkFraction()), I(a.LostMessages))
				}
			}
			return t
		},
	}
}

// quietCfg is the sparse-traffic workload used by the ablations: long
// think times force the control machinery to do the convergence work.
func quietCfg(s Scale, opt core.Options, n int, seed int64) RunCfg {
	steps := s.Steps() / 10
	if steps < 40 {
		steps = 40
	}
	return RunCfg{
		Proto: "ocsml", N: n, Seed: seed, Steps: steps,
		Think: 400 * des.Millisecond, StateBytes: 4 << 20,
		Opt: &opt, Trace: true,
	}
}

// A1 quantifies CK_BGN suppression (§3.5.1 case 1) and the EscalateBGN
// extension.
func A1() Experiment {
	return Experiment{
		ID:    "A1",
		Title: "Ablation: CK_BGN suppression variants on sparse traffic",
		Claim: "Suppression trades redundant CK_BGNs for P0's unconditional CK_END broadcast; escalation avoids both in the common case.",
		Run: func(s Scale) *Table {
			t := &Table{Columns: []string{"variant", "globals", "BGN/global", "REQ/global", "END/global", "suppressed"}}
			variants := []struct {
				name string
				mod  func(*core.Options)
			}{
				{"no-suppression", func(o *core.Options) { o.SuppressBGN = false }},
				{"paper-suppression", func(o *core.Options) { o.SuppressBGN = true }},
				{"suppress+escalate", func(o *core.Options) { o.SuppressBGN = true; o.EscalateBGN = true }},
			}
			for _, v := range variants {
				opt := core.DefaultOptions()
				opt.Interval = 2 * des.Second
				opt.Timeout = 400 * des.Millisecond
				v.mod(&opt)
				r := Run(quietCfg(s, opt, 12, 3))
				g := float64(r.GlobalCheckpoints())
				if g == 0 {
					g = 1
				}
				t.AddRow(v.name, I(r.GlobalCheckpoints()),
					F(float64(r.Counter("ctl.CK_BGN"))/g),
					F(float64(r.Counter("ctl.CK_REQ"))/g),
					F(float64(r.Counter("ctl.CK_END"))/g),
					I(r.Counter("bgn_suppressed")))
			}
			return t
		},
	}
}

// A2 quantifies CK_REQ hop skipping (§3.5.1 case 2).
func A2() Experiment {
	return Experiment{
		ID:    "A2",
		Title: "Ablation: CK_REQ hop skipping on sparse traffic",
		Claim: "Skipping processes already known to be tentative shortens the request ring (paper §3.5.1 case 2).",
		Run: func(s Scale) *Table {
			t := &Table{Columns: []string{"variant", "globals", "REQ/global", "hopsSkipped"}}
			for _, skip := range []bool{false, true} {
				opt := core.DefaultOptions()
				opt.Interval = 2 * des.Second
				opt.Timeout = 400 * des.Millisecond
				opt.SkipREQ = skip
				r := Run(quietCfg(s, opt, 12, 4))
				g := float64(r.GlobalCheckpoints())
				if g == 0 {
					g = 1
				}
				name := "no-skip"
				if skip {
					name = "skip (paper)"
				}
				t.AddRow(name, I(r.GlobalCheckpoints()),
					F(float64(r.Counter("ctl.CK_REQ"))/g),
					I(r.Counter("req_skipped")))
			}
			return t
		},
	}
}

// A3 quantifies the opportunistic early flush of tentative checkpoints.
func A3() Experiment {
	return Experiment{
		ID:    "A3",
		Title: "Ablation: opportunistic early CT flush",
		Claim: "Flushing the tentative checkpoint whenever storage is idle spreads writes ahead of finalization (paper §1: 'at their own convenience').",
		Run: func(s Scale) *Table {
			t := &Table{Columns: []string{"variant", "peakQueue", "meanWait(s)", "earlyFlushes", "finalize→stable(s)"}}
			for _, early := range []bool{false, true} {
				opt := core.DefaultOptions()
				opt.Interval = 30 * des.Second
				opt.Timeout = des.Second
				opt.EarlyFlush = early
				r := Run(RunCfg{
					Proto: "ocsml", N: 16, Steps: 5000, Think: 20 * des.Millisecond,
					StateBytes: 64 << 20, Opt: &opt,
				})
				// Mean lag from finalization decision to stability.
				var lag float64
				var cnt int
				for p := 0; p < r.Cfg.N; p++ {
					for _, rec := range r.Ckpts.Proc(p).All() {
						if rec.Seq > 0 && rec.StableAt > 0 {
							lag += (rec.StableAt - rec.FinalizedAt).Seconds()
							cnt++
						}
					}
				}
				if cnt > 0 {
					lag /= float64(cnt)
				}
				name := "no-early-flush"
				if early {
					name = "early-flush (paper)"
				}
				t.AddRow(name, I(r.Storage.PeakQueue()), F(r.Storage.MeanWait()),
					I(r.Counter("early_flush")), F(lag))
			}
			return t
		},
	}
}

// init validates the experiment registry at package load.
func init() {
	for _, e := range All() {
		if e.ID == "" || e.Run == nil {
			panic(fmt.Sprintf("harness: malformed experiment %+v", e))
		}
	}
}
