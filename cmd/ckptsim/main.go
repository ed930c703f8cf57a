// Command ckptsim runs one checkpointing simulation and reports its
// metrics.
//
// Usage:
//
//	ckptsim -proto ocsml -n 16 -steps 2000 -interval 5s
//	ckptsim -proto chandy-lamport -n 8 -v
//	ckptsim -proto ocsml -n 4 -steps 40 -diagram     # ASCII space-time
//	ckptsim -proto ocsml -trace-out run.jsonl        # for tracecheck
//
// Protocols: none, ocsml, ocsml-basic, chandy-lamport, koo-toueg,
// staggered, bcs-cic, uncoordinated.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ocsml/internal/des"
	"ocsml/internal/engine"
	"ocsml/internal/harness"
	"ocsml/internal/trace"
	"ocsml/internal/workload"
)

func main() {
	var (
		proto     = flag.String("proto", "ocsml", "protocol: none|ocsml|ocsml-basic|chandy-lamport|koo-toueg|staggered|bcs-cic|uncoordinated")
		n         = flag.Int("n", 8, "number of processes")
		seed      = flag.Int64("seed", 1, "random seed (runs are deterministic per seed)")
		steps     = flag.Int64("steps", 1000, "work steps per process")
		think     = flag.Duration("think", 10*time.Millisecond, "mean computation per step (virtual)")
		pattern   = flag.String("pattern", "uniform", "workload: uniform|ring|client-server|mesh|bursty|stencil")
		interval  = flag.Duration("interval", 5*time.Second, "checkpoint period (virtual)")
		timeout   = flag.Duration("timeout", 500*time.Millisecond, "OCSML convergence timeout (virtual)")
		state     = flag.Int64("state", 16<<20, "process state size in bytes")
		msgBytes  = flag.Int64("msg", 2<<10, "application message payload bytes")
		verbose   = flag.Bool("v", false, "print protocol counters")
		diagram   = flag.Bool("diagram", false, "render an ASCII space-time diagram (small runs only)")
		traceOut  = flag.String("trace-out", "", "write the event trace as JSON Lines to this file")
		drop      = flag.Float64("drop", 0, "network packet drop probability [0,1)")
		reliableF = flag.Bool("reliable", false, "wrap the protocol in the ack/retransmit transport")
		failAt    = flag.Duration("fail-at", 0, "crash a process at this virtual time (0 = no failure; ocsml only)")
		failProc  = flag.Int("fail-proc", 0, "which process crashes with -fail-at")
		script    = flag.String("script", "", "replay a workload script (JSON Lines from tracegen or a converted trace)")
		svgOut    = flag.String("svg", "", "write an SVG space-time diagram to this file (small runs)")
	)
	flag.Parse()

	pat, err := workload.ParsePattern(*pattern)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rc := harness.RunCfg{
		Proto: *proto, N: *n, Seed: *seed, Steps: *steps,
		Think: des.Duration(*think), Pattern: pat, MsgBytes: *msgBytes,
		StateBytes: *state, Interval: des.Duration(*interval),
		Timeout: des.Duration(*timeout), Trace: true,
		DropRate: *drop, Reliable: *reliableF,
	}
	if *failAt > 0 {
		rc.Failure = &engine.FailurePlan{At: des.Time(*failAt), Proc: *failProc}
	}
	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		plans, err := workload.ReadScript(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rc.Script = plans
		if min := workload.MaxProc(plans) + 1; rc.N < min {
			rc.N = min
		}
	}
	r := harness.Run(rc)

	fmt.Printf("protocol            %s\n", r.ProtoName)
	fmt.Printf("processes           %d\n", r.Cfg.N)
	fmt.Printf("completed           %v\n", r.Completed)
	fmt.Printf("makespan            %.3fs\n", r.Makespan.Seconds())
	fmt.Printf("app messages        %d\n", r.AppMsgs)
	fmt.Printf("control messages    %d\n", r.CtlMsgs)
	fmt.Printf("piggyback bytes     %d", r.PiggybackBytes)
	if r.AppMsgs > 0 {
		fmt.Printf(" (%.1f bytes/msg)", float64(r.PiggybackBytes)/float64(r.AppMsgs))
	}
	fmt.Println()
	fmt.Printf("global checkpoints  %d\n", r.GlobalCheckpoints())
	fmt.Printf("finalize latency    %.3fs mean\n", r.MeanFinalizationLatency())
	fmt.Printf("message log bytes   %d\n", r.TotalLogBytes())
	fmt.Printf("storage peak queue  %d\n", r.Storage.PeakQueue())
	fmt.Printf("storage mean wait   %.4fs\n", r.Storage.MeanWait())
	fmt.Printf("storage utilization %.1f%%\n", 100*r.Storage.Utilization())
	fmt.Printf("app stalled         %.3fs total\n", r.StalledSeconds.Sum())

	if *proto != "none" && *proto != "uncoordinated" {
		if seqs, err := r.CheckAllGlobals(); err != nil {
			fmt.Printf("consistency         VIOLATION: %v\n", err)
			os.Exit(1)
		} else {
			fmt.Printf("consistency         OK (%d global checkpoints verified)\n", len(seqs))
		}
	}
	if rc.Failure != nil {
		if a, err := harness.ExecutedRecovery(r); err != nil {
			fmt.Printf("recovery            none: %v\n", err)
		} else {
			fmt.Printf("recovery            line=%d depth=%d lostWork=%.1f%% inFlight=%d lostMsgs=%d\n",
				a.LineSeqs[0], a.RollbackDepth(), 100*a.LostWorkFraction(), a.InFlight, a.LostMessages)
		}
	}
	if *proto == "uncoordinated" {
		if a, err := harness.Domino(r, trace.KCheckpoint); err == nil {
			fmt.Printf("domino recovery     depth=%d iterations=%d lostWork=%.1f%%\n",
				a.RollbackDepth(), a.Iterations, 100*a.LostWorkFraction())
		}
	}
	if *verbose {
		fmt.Println("counters:")
		for _, name := range r.CounterNames() {
			fmt.Printf("  %-20s %d\n", name, r.Counters[name])
		}
	}
	if *diagram {
		evs := r.Trace.Events()
		if len(evs) > 400 {
			fmt.Fprintf(os.Stderr, "diagram skipped: %d events (use small -steps)\n", len(evs))
		} else {
			fmt.Println()
			fmt.Print(trace.Render(evs, r.Cfg.N))
		}
	}
	if *svgOut != "" {
		evs := r.Trace.Events()
		if len(evs) > 5000 {
			fmt.Fprintf(os.Stderr, "svg skipped: %d events (use small -steps)\n", len(evs))
		} else if err := os.WriteFile(*svgOut, []byte(trace.RenderSVG(evs, r.Cfg.N)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		} else {
			fmt.Printf("svg                 %s\n", *svgOut)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := trace.WriteJSON(f, r.Trace.Events()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trace               %s (%d events)\n", *traceOut, r.Trace.Len())
	}
}
