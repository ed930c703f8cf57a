// Command tracecheck verifies the consistency of the global checkpoints
// recorded in a trace file (JSON Lines, as written by ckptsim -trace-out
// or by the model checker cmd/ocsmlcheck).
//
// For every checkpoint sequence number that has a cut event on all N
// processes, it reports whether the cut is consistent (no orphan
// messages) and how many messages were in flight across it. Two further
// offline checks are opt-in:
//
//	-replay  selective-logging sufficiency: every message sent or
//	         received inside a finalized tentative interval must have a
//	         matching log-send/log-recv event (requires a trace with log
//	         events, e.g. a counterexample from cmd/ocsmlcheck)
//	-zcycle  Z-cycle freedom: no path in the rollback-dependency graph
//	         over checkpoint intervals may lead back to an earlier
//	         interval of the same process (Netzer–Xu)
//
// Usage:
//
//	ckptsim -proto ocsml -n 6 -steps 500 -trace-out run.jsonl
//	tracecheck -n 6 run.jsonl
//	ocsmlcheck -out traces
//	tracecheck -n 2 -replay -zcycle traces/cex-drop-log.jsonl
package main

import (
	"flag"
	"fmt"
	"os"

	"ocsml/internal/trace"
)

func main() {
	var (
		n      = flag.Int("n", 0, "number of processes (required)")
		kind   = flag.String("kind", "auto", "cut event kind: finalize|checkpoint|auto")
		replay = flag.Bool("replay", false, "check selective-logging replay sufficiency (needs log events in the trace)")
		zcycle = flag.Bool("zcycle", false, "check the rollback-dependency graph for Z-cycles")
	)
	flag.Parse()
	if *n < 2 || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck -n <procs> [-replay] [-zcycle] <trace.jsonl>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	events, err := trace.ReadJSON(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%d events, %s\n", len(events), trace.Summarize(events))

	kinds := map[string]trace.Kind{"auto": trace.CutKind(events), "finalize": trace.KFinalize, "checkpoint": trace.KCheckpoint}
	cutKind, ok := kinds[*kind]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown -kind %q\n", *kind)
		os.Exit(2)
	}
	seqs := trace.CutSeqs(events, cutKind)
	if len(seqs) == 0 {
		fmt.Println("no checkpoint cut events in trace")
		os.Exit(1)
	}
	bad := 0
	for _, g := range trace.CheckGlobalEvents(events, *n, cutKind, seqs) {
		switch {
		case !g.Complete:
			fmt.Printf("S_%-3d incomplete (missing cut events on some processes)\n", g.Seq)
		case g.Consistent():
			fmt.Printf("S_%-3d consistent   in-flight=%d\n", g.Seq, len(g.InFlight))
		default:
			bad++
			fmt.Printf("S_%-3d INCONSISTENT orphans=%d in-flight=%d\n",
				g.Seq, len(g.Orphans), len(g.InFlight))
			for _, o := range g.Orphans {
				fmt.Printf("      orphan msg %d: P%d -> P%d\n", o.MsgID, o.Src, o.Dst)
			}
		}
	}

	if *replay {
		gaps := trace.CheckReplay(events)
		if len(gaps) == 0 {
			fmt.Println("replay: selective log covers every finalized tentative interval")
		} else {
			bad++
			fmt.Printf("replay: %d GAP(S) — the selective log cannot replay the interval exactly once\n", len(gaps))
			for _, g := range gaps {
				fmt.Printf("      %s\n", g)
			}
		}
	}

	if *zcycle {
		if cyc := trace.ZCycles(events, cutKind); cyc == nil {
			// No Z-cycle; cycles of crossing messages are allowed.
			fmt.Println("zcycle: rollback-dependency graph is acyclic")
		} else {
			bad++
			fmt.Printf("zcycle: Z-CYCLE through checkpoint intervals:")
			for i, iv := range cyc {
				if i > 0 {
					fmt.Print(" ->")
				}
				fmt.Printf(" %s", iv)
			}
			fmt.Println()
		}
	}

	if bad > 0 {
		os.Exit(1)
	}
}
