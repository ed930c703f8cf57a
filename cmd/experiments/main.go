// Command experiments regenerates the evaluation suite: one table per
// experiment (E1–E11 reconstruct the performance evaluation the paper
// describes; A1–A4 are optimization ablations). See DESIGN.md for the
// experiment index and EXPERIMENTS.md for recorded results.
//
// Usage:
//
//	experiments                  # run everything at full scale
//	experiments -quick           # small sweeps (seconds)
//	experiments -id E1,E3        # a subset
//	experiments -o results.txt   # also write to a file
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ocsml/internal/harness"
)

func main() {
	var (
		ids    = flag.String("id", "all", "comma-separated experiment ids, or 'all'")
		quick  = flag.Bool("quick", false, "small sweeps for a fast pass")
		out    = flag.String("o", "", "also write results to this file")
		csvDir = flag.String("csv", "", "write one CSV file per experiment into this directory")
	)
	flag.Parse()

	var selected []harness.Experiment
	if *ids == "all" {
		selected = harness.All()
	} else {
		for _, id := range strings.Split(*ids, ",") {
			e, ok := harness.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (known: %v)\n", id, harness.IDs())
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	scale := harness.Scale{Quick: *quick}
	mode := "full"
	if *quick {
		mode = "quick"
	}
	fmt.Fprintf(w, "OCSML evaluation suite — %d experiment(s), %s scale\n\n", len(selected), mode)
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	for _, e := range selected {
		start := time.Now()
		tab := e.Execute(scale)
		elapsed := time.Since(start)
		fmt.Fprint(w, tab.Render())
		fmt.Fprintf(w, "(%.1fs)\n\n", elapsed.Seconds())
		if *csvDir != "" {
			path := filepath.Join(*csvDir, tab.ID+".csv")
			if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}
