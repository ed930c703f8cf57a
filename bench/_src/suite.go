package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// suiteFile is what `bench [-suite R] -out FILE` writes and -compare
// reads: per workload, every end-to-end metric's value in each of the R
// untraced runs, and the per-layer metrics of one traced run.
type suiteFile struct {
	Env       environment     `json:"env"`
	Seconds   int             `json:"seconds"`
	Runs      int             `json:"runs"`
	Workloads []suiteWorkload `json:"workloads"`
}

type suiteWorkload struct {
	Name      string        `json:"name"`
	Why       string        `json:"why"`
	Seeds     []int64       `json:"seeds"`
	Correct   bool          `json:"correct"`
	Attempted int64         `json:"attempted"`
	Failed    int64         `json:"failed"`
	EndToEnd  []suiteMetric `json:"end_to_end"`
	PerLayer  []metric      `json:"per_layer"`
}

// suiteMetric is one end-to-end metric over a suite's runs. N, SubMin and
// SubMax are the sample count and sub-window extremes of the last run.
type suiteMetric struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	SubMin float64   `json:"sub_min"`
	SubMax float64   `json:"sub_max"`
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// which is what the acceptance procedure uses.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // after the clamp, as Python does: few values extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// suite runs every workload in child processes — each run gets a fresh
// heap, so peak RSS and the collector-off allocation behaviour are per
// run — and aggregates their result files.
func suite(o options) (int, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return 0, err
	}
	tmp, err := os.MkdirTemp(o.workdir, "suite-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)

	child := func(w *workload, seed int64, trace int) (*result, error) {
		out := filepath.Join(tmp, "result.json")
		args := []string{
			"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace),
			"-workdir", o.workdir, "-out", out,
		}
		if trace == 1 && o.spans != "" {
			args = append(args, "-spans", o.spans+"."+w.name)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run()
		raw, err := os.ReadFile(out)
		if err != nil {
			return nil, fmt.Errorf("%s seed %d trace %d produced no result: %v", w.name, seed, trace, runErr)
		}
		var res result
		if err := json.Unmarshal(raw, &res); err != nil {
			return nil, err
		}
		return &res, os.Remove(out)
	}

	file := suiteFile{Seconds: o.seconds, Runs: o.suite}
	code := 0
	for _, w := range workloads {
		sw := suiteWorkload{Name: w.name, Why: w.why, Correct: true}
		for r := 0; r < o.suite; r++ {
			res, err := child(w, o.seed+int64(r), 0)
			if err != nil {
				return 0, err
			}
			file.Env = res.Env
			sw.Seeds = append(sw.Seeds, res.Seed)
			sw.Correct = sw.Correct && res.Correct
			sw.Attempted += res.Attempted
			sw.Failed += res.Failed
			for i, m := range res.Metrics {
				if r == 0 {
					sw.EndToEnd = append(sw.EndToEnd, suiteMetric{Name: m.Name, Unit: m.Unit})
				}
				sm := &sw.EndToEnd[i]
				sm.Values = append(sm.Values, m.Value)
				sm.N, sm.SubMin, sm.SubMax = m.N, m.SubMin, m.SubMax
			}
		}
		for i := range sw.EndToEnd {
			sm := &sw.EndToEnd[i]
			sm.Median = median(sm.Values)
			sm.Q1, sm.Q3 = quartiles(sm.Values)
		}
		res, err := child(w, o.seed, 1)
		if err != nil {
			return 0, err
		}
		sw.Correct = sw.Correct && res.Correct
		sw.PerLayer = res.Metrics
		if !sw.Correct || sw.Failed > 0 {
			code = 1
		}
		file.Workloads = append(file.Workloads, sw)
	}

	fmt.Printf("\nsuite: %d untraced run(s) and one traced run per workload, %d s windows\n", o.suite, o.seconds)
	for _, sw := range file.Workloads {
		fmt.Printf("\n%s  (failed %d of %d operations; outputs correct: %v)\n", sw.Name, sw.Failed, sw.Attempted, sw.Correct)
		fmt.Printf("  %-28s %14s %-5s %14s %14s %9s\n", "end-to-end metric", "median", "unit", "q1", "q3", "iqr/med")
		for _, m := range sw.EndToEnd {
			fmt.Printf("  %-28s %14.4f %-5s %14.4f %14.4f %8.2f%%\n", m.Name, m.Median, m.Unit, m.Q1, m.Q3, 100*ratio(m.Q3-m.Q1, m.Median))
		}
	}
	if o.out != "" {
		raw, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(o.out, raw, 0o644); err != nil {
			return 0, err
		}
	}
	return code, nil
}
