// Command ocsmlcheck is the bounded model checker for the OCSML
// protocol: it exhaustively enumerates every interleaving of the
// executable protocol model (internal/protomodel) within configurable
// bounds and checks the paper's safety properties — every finalized cut
// is consistent (no orphans), selective logging suffices for
// exactly-once replay, and recovery lines are Z-cycle-free.
//
// Two phases run by default:
//
//  1. verify: sweep the faithful model over N = 2..maxN; any violation
//     is a protocol bug and fails the run;
//  2. mutations: re-run with each injected implementation mistake
//     (drop-log, reorder-finalize, skip-consume, forget-join) and REQUIRE a
//     counterexample — if a known bug is not caught, the checker has
//     lost its teeth and the run fails.
//
// Counterexample traces are written as JSON Lines (one per mutation,
// plus any protocol violation) replayable through cmd/tracecheck:
//
//	ocsmlcheck -n 3 -out traces
//	tracecheck -n 2 -replay -zcycle traces/cex-drop-log.jsonl
//
// A single mutation can be checked in isolation with -mutation; with
// -expect-violation the exit status inverts (0 iff a counterexample was
// found), which is what the mutation-fixture CI step asserts.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"ocsml/internal/protomodel"
	"ocsml/internal/trace"
)

// mutationCfg returns the exploration bounds under which each injected
// bug is reachable. All four are caught at N=2; skip-consume needs a
// third message so the pre-delivery rule triggers again after the
// one-shot mutation spent itself.
func mutationCfg(m protomodel.Mutation) protomodel.Config {
	cfg := protomodel.Config{N: 2, MaxMsgs: 2, MaxInits: 2, Mutation: m}
	if m == protomodel.MutSkipConsume {
		cfg.MaxMsgs = 3
	}
	return cfg
}

func main() {
	var (
		maxN      = flag.Int("n", 3, "sweep process counts 2..n in the verify phase")
		msgs      = flag.Int("msgs", 4, "application-send budget per exploration")
		inits     = flag.Int("inits", 1, "spontaneous checkpoint-initiation budget")
		crashes   = flag.Int("crashes", 1, "whole-system crash/rollback budget")
		maxStates = flag.Int("max-states", 0, "visited-state cap (0 = package default)")
		mutation  = flag.String("mutation", "", "check a single mutation fixture (drop-log|reorder-finalize|skip-consume|forget-join) instead of the full run")
		expectBad = flag.Bool("expect-violation", false, "invert the exit status: succeed iff a counterexample is found (single-mutation runs)")
		outDir    = flag.String("out", "", "directory for counterexample traces (JSON Lines, tracecheck-compatible)")
		quiet     = flag.Bool("q", false, "suppress per-phase progress output")
	)
	flag.Parse()

	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Printf(format+"\n", args...)
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}

	if *mutation != "" {
		m, ok := protomodel.ParseMutation(*mutation)
		if !ok || m == protomodel.MutNone {
			fatal(fmt.Errorf("unknown mutation %q (have: drop-log, reorder-finalize, skip-consume, forget-join)", *mutation))
		}
		cfg := mutationCfg(m)
		cfg.MaxStates = *maxStates
		found, err := runMutation(cfg, m, *outDir, logf)
		if err != nil {
			fatal(err)
		}
		if found != *expectBad && *expectBad {
			fmt.Fprintf(os.Stderr, "ocsmlcheck: mutation %s produced NO counterexample; the checker does not bite\n", m)
			os.Exit(1)
		}
		if found && !*expectBad {
			os.Exit(1)
		}
		return
	}

	// Phase 1: the faithful protocol must verify clean.
	cfg := protomodel.Config{
		MaxMsgs: *msgs, MaxInits: *inits, MaxCrashes: *crashes, MaxStates: *maxStates,
	}
	res, err := protomodel.Sweep(*maxN, cfg)
	if err != nil {
		fatal(err)
	}
	if res.Cex != nil {
		v := res.Cex.Violation
		fmt.Fprintf(os.Stderr, "ocsmlcheck: PROTOCOL VIOLATION at N=%d: %s\n", res.Config.N, v)
		fmt.Fprintf(os.Stderr, "  actions: %v\n", res.Cex.Actions[:res.Cex.Prefix])
		if *outDir != "" {
			path := filepath.Join(*outDir, "cex-protocol.jsonl")
			if err := writeTrace(path, res.Cex); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "  trace: %s (replay: tracecheck -n %d -replay -zcycle %s)\n",
				path, res.Config.N, path)
		}
		os.Exit(1)
	}
	capNote := ""
	if res.Hit {
		capNote = " (state cap hit: exploration TRUNCATED, not exhaustive)"
	}
	logf("verify: N=2..%d msgs=%d inits=%d crashes=%d: clean over %d states, deepest full cut S_%d%s",
		*maxN, *msgs, *inits, *crashes, res.States, res.MaxCut, capNote)
	if res.Hit {
		fmt.Fprintln(os.Stderr, "ocsmlcheck: state cap reached; raise -max-states or shrink bounds for an exhaustive pass")
		os.Exit(1)
	}

	// Phase 2: every mutation fixture must be caught.
	missed := 0
	for _, m := range protomodel.Mutations() {
		mc := mutationCfg(m)
		mc.MaxStates = *maxStates
		found, err := runMutation(mc, m, *outDir, logf)
		if err != nil {
			fatal(err)
		}
		if !found {
			missed++
			fmt.Fprintf(os.Stderr, "ocsmlcheck: mutation %s produced NO counterexample; the checker does not bite\n", m)
		}
	}
	if missed > 0 {
		os.Exit(1)
	}
	logf("mutations: all %d fixtures produced counterexamples", len(protomodel.Mutations()))
}

// runMutation explores one mutated model and writes its counterexample
// trace; found reports whether a violation was caught.
func runMutation(cfg protomodel.Config, m protomodel.Mutation, outDir string, logf func(string, ...any)) (bool, error) {
	res, err := protomodel.Explore(cfg)
	if err != nil {
		return false, err
	}
	if res.Cex == nil {
		return false, nil
	}
	cex := res.Cex
	logf("mutation %s: %s", m, cex.Violation)
	logf("  run: %v (violating prefix %d/%d, cut complete: %v)",
		cex.Actions, cex.Prefix, len(cex.Actions), cex.CutComplete)
	if len(cex.ZCycle) > 0 {
		logf("  z-cycle: %v", cex.ZCycle)
	}
	if outDir != "" {
		path := filepath.Join(outDir, "cex-"+m.String()+".jsonl")
		if err := writeTrace(path, cex); err != nil {
			return true, err
		}
		logf("  trace: %s (replay: tracecheck -n %d -replay -zcycle %s)", path, cfg.N, path)
	}
	return true, nil
}

func writeTrace(path string, cex *protomodel.Counterexample) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteJSON(f, cex.Events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ocsmlcheck:", err)
	os.Exit(2)
}
