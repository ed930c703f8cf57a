package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// contract is the part of BENCHMARK.json the comparison needs.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// spread is how far a metric moves between runs of one commit, as a share
// of its median: the distance between the quartiles of the suite's runs,
// or — from a file with too few runs to have quartiles — between the
// extremes of the last run's five sub-windows.
func (m suiteMetric) spread() float64 {
	if len(m.Values) >= 4 {
		return ratio(m.Q3-m.Q1, m.Median)
	}
	return ratio(m.SubMax-m.SubMin, m.Median)
}

// compare gates result file b (the change) against a (the parent) with the
// bounds of the benchmark contract, one row per workload and metric. A
// metric whose own spread exceeds its bound in either file cannot show a
// regression of that size and is reported unresolved, not unchanged. The
// exit code is 1 when a metric got worse by more than its bound or a
// workload failed a larger share of its operations.
func compare(out io.Writer, contractPath, pathA, pathB string) (int, error) {
	var c contract
	var a, b suiteFile
	for _, f := range []struct {
		path string
		v    any
	}{{contractPath, &c}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			return 0, err
		}
	}
	if len(c.EndToEnd) == 0 {
		return 0, fmt.Errorf("%s names no end_to_end metrics", contractPath)
	}
	fmt.Fprintf(out, "A: %s  (%s, %d CPUs, %s, %d run(s) of %d s)\n", pathA, a.Env.CPU, a.Env.NProc, a.Env.FSType, a.Runs, a.Seconds)
	fmt.Fprintf(out, "B: %s  (%s, %d CPUs, %s, %d run(s) of %d s)\n", pathB, b.Env.CPU, b.Env.NProc, b.Env.FSType, b.Runs, b.Seconds)
	code := 0
	for _, wa := range a.Workloads {
		var wb *suiteWorkload
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(out, "\n%s: missing from B\n", wa.Name)
			code = 1
			continue
		}
		fmt.Fprintf(out, "\n%s\n", wa.Name)
		fmt.Fprintf(out, "  %-28s %14s %14s %8s %7s %8s  %s\n", "metric", "A median", "B median", "change", "bound", "spread", "verdict")
		for _, bound := range c.EndToEnd {
			ma, mb := findMetric(wa.EndToEnd, bound.Name), findMetric(wb.EndToEnd, bound.Name)
			if ma == nil || mb == nil {
				fmt.Fprintf(out, "  %-28s missing\n", bound.Name)
				code = 1
				continue
			}
			// worse is the change in the direction that hurts, as a share
			// of A's median.
			worse := ratio(mb.Median-ma.Median, ma.Median)
			if bound.Better == "higher" {
				worse = -worse
			}
			spread := max(ma.spread(), mb.spread())
			verdict := "ok"
			switch {
			case worse > bound.Bound:
				verdict = "REGRESSION"
				code = 1
			case spread > bound.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(out, "  %-28s %14.4f %14.4f %+7.2f%% %6.1f%% %7.2f%%  %s\n",
				bound.Name, ma.Median, mb.Median, 100*ratio(mb.Median-ma.Median, ma.Median), 100*bound.Bound, 100*spread, verdict)
		}
		fa, fb := ratio(float64(wa.Failed), float64(wa.Attempted)), ratio(float64(wb.Failed), float64(wb.Attempted))
		verdict := "ok"
		if fb > fa || !wb.Correct {
			verdict = "REGRESSION"
			code = 1
		}
		fmt.Fprintf(out, "  %-28s %14.6f %14.6f %34s\n", "failed_ops_ratio", fa, fb, verdict)
	}
	return code, nil
}

func findMetric(ms []suiteMetric, name string) *suiteMetric {
	for i := range ms {
		if ms[i].Name == name {
			return &ms[i]
		}
	}
	return nil
}
