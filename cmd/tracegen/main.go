// Command tracegen synthesizes a workload script — the full send plan of
// a computation, one JSON object per line — that ckptsim can replay with
// -script. Scripts are the substitution point for production message
// traces: convert a real trace into the same format ({"p":0,"at":5000000,
// "dst":3,"bytes":2048} per line, times in virtual nanoseconds) and replay
// it under any protocol.
//
// Usage:
//
//	tracegen -pattern uniform -n 8 -steps 500 -o workload.jsonl
//	ckptsim -script workload.jsonl -proto ocsml
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ocsml/internal/des"
	"ocsml/internal/workload"
)

func main() {
	var (
		pattern  = flag.String("pattern", "uniform", "uniform|ring|mesh|bursty")
		n        = flag.Int("n", 8, "number of processes")
		steps    = flag.Int64("steps", 500, "sends per process")
		think    = flag.Duration("think", 10*time.Millisecond, "mean inter-send time (virtual)")
		msgBytes = flag.Int64("msg", 2<<10, "payload bytes")
		seed     = flag.Int64("seed", 1, "random seed")
		out      = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	pat, err := workload.ParsePattern(*pattern)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := workload.Config{
		Pattern: pat, Steps: *steps, Think: des.Duration(*think),
		MsgBytes: *msgBytes, BurstLen: 25, BurstIdle: des.Duration(*think) * 10,
	}
	plans, err := workload.GenerateScript(cfg, *n, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := workload.WriteScript(w, plans); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	total := 0
	for _, s := range plans {
		total += len(s)
	}
	fmt.Fprintf(os.Stderr, "wrote %d sends for %d processes\n", total, *n)
}
