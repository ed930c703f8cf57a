package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ocsml/internal/checkpoint"
	"ocsml/internal/trace"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.95, 10}, {0.99, 10}, {0.1, 1}, {1, 10}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestSupportedPercentile(t *testing.T) {
	// A percentile is supported when at least ten samples lie beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.50}, {20, 0.50}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v; want 1.5, 12", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: two values extrapolate.
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	// parent [0,100) with children [10,30) and [40,90); the second child
	// has a grandchild [50,60); an unrelated root [200,250).
	spans := []span{
		{Kind: spOnDeliver, Start: 0, End: 100, Parent: -1},
		{Kind: spAppOnMessage, Start: 10, End: 30, Parent: 0},
		{Kind: spAppSend, Start: 40, End: 90, Parent: 0},
		{Kind: spOnAppSend, Start: 50, End: 60, Parent: 2},
		{Kind: spOnTimer, Start: 200, End: 250, Parent: -1},
	}
	want := []int64{100 - 20 - 50, 20, 50 - 10, 10, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spanNames[spans[i].Kind], got[i], want[i])
		}
	}
	var sum, selfSum int64
	for _, s := range spans {
		if s.Parent < 0 {
			sum += s.dur()
		}
	}
	for _, v := range got {
		selfSum += v
	}
	if sum != selfSum {
		t.Errorf("self times sum to %d, the roots to %d: time was lost or counted twice", selfSum, sum)
	}
}

func TestCheckCutsFindsOrphan(t *testing.T) {
	ckpts := checkpoint.NewStore(clusterN)
	var events []trace.Event
	g := int64(0)
	ev := func(k trace.Kind, proc, peer int, id int64, seq int) {
		g++
		events = append(events, trace.Event{GSeq: g, Kind: k, Proc: proc, Peer: peer, MsgID: id, Seq: seq})
	}
	for p := 0; p < clusterN; p++ {
		ckpts.Proc(p).Add(checkpoint.Record{Tentative: checkpoint.Tentative{Proc: p, Seq: 1}})
	}
	// Message 7 is sent by P0 after its cut and received by P1 before its.
	ev(trace.KFinalize, 0, -1, 0, 1)
	ev(trace.KSend, 0, 1, 7, -1)
	ev(trace.KRecv, 1, 0, 7, -1)
	ev(trace.KFinalize, 1, -1, 0, 1)
	ev(trace.KFinalize, 2, -1, 0, 1)
	ev(trace.KFinalize, 3, -1, 0, 1)
	n, problems := checkCuts(events, ckpts)
	if n != 1 || len(problems) != 1 || !strings.Contains(problems[0], "orphan") {
		t.Fatalf("checkCuts = %d cuts, problems %q; want one cut with one orphan", n, problems)
	}
	// The same message received after P1's cut is merely in flight.
	events[2], events[3] = events[3], events[2]
	events[2].GSeq, events[3].GSeq = 3, 4
	if _, problems := checkCuts(events, ckpts); len(problems) != 0 {
		t.Fatalf("consistent cut reported: %q", problems)
	}
}

// TestDueTimeStamping pins the open-loop property: a receiver that stalls
// does not thin the load (every scheduled message is still sent and
// delivered) but shows in the latency tail, because messages are timed
// from when they were due.
func TestDueTimeStamping(t *testing.T) {
	w := &workload{name: "test-uniform", ratePerProc: 1000}
	c, err := newCluster(clusterConfig{w: w, seed: 1, nop: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.up(); err != nil {
		t.Fatal(err)
	}
	const stall = 100 * time.Millisecond
	stalled := time.AfterFunc(250*time.Millisecond, func() {
		c.nodes[1].Post(func() { time.Sleep(stall) })
	})
	defer stalled.Stop()
	obs := c.drive(100*time.Millisecond, 500*time.Millisecond)
	c.close()
	for _, a := range c.apps {
		obs.lat = append(obs.lat, a.lat...)
	}
	sent, recv := c.traffic()
	if sent != recv {
		t.Fatalf("sent %d, delivered %d", sent, recv)
	}
	// 4 processes × 1000/s over the 500 ms window, give or take a period.
	if n := obs.delivered(); n < 1900 || n > 2100 {
		t.Errorf("delivered %d in the window, want about 2000: the stall changed the offered load", n)
	}
	all := valuesIn(obs.lat, obs.w)
	p50, p99 := quantile(all, 0.50), quantile(all, 0.99)
	if p99 < float64(stall/time.Microsecond)/2 {
		t.Errorf("p99 = %.0f µs: a %v receiver stall is missing from the tail", p99, stall)
	}
	if p50 > float64(stall/time.Microsecond)/4 {
		t.Errorf("p50 = %.0f µs: the stall should not reach the median", p50)
	}
	// The reported metric is the median over sub-windows: one stall moves
	// its extremes, not its value.
	m := quantileMetric("p99", "us", obs.lat, obs.w, 0.99)
	if m.SubMax < float64(stall/time.Microsecond)/2 || m.Value > m.SubMax/2 {
		t.Errorf("p99 over sub-windows: value %.0f µs, max %.0f µs; want the stall in the max only", m.Value, m.SubMax)
	}
}

// benchmarkContract reads ../BENCHMARK.json, the contract the driver runs
// this program against.
func benchmarkContract(t *testing.T) (workloadWhy map[string]string, endToEnd, perLayer map[string]string) {
	t.Helper()
	var c struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), &c); err != nil {
		t.Fatal(err)
	}
	workloadWhy, endToEnd, perLayer = map[string]string{}, map[string]string{}, map[string]string{}
	for _, w := range c.Workloads {
		workloadWhy[w.Name] = w.Why
	}
	for _, m := range c.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range c.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return workloadWhy, endToEnd, perLayer
}

// sameMetrics requires a run to report exactly the contract's metrics,
// with the contract's units.
func sameMetrics(t *testing.T, got []metric, want map[string]string) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range got {
		if unit, ok := want[m.Name]; !ok || unit != m.Unit {
			t.Errorf("run reports %s [%s]; BENCHMARK.json has unit %q (present: %v)", m.Name, m.Unit, unit, ok)
		}
		seen[m.Name] = true
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("BENCHMARK.json lists %s, which the run does not report", name)
		}
	}
}

func TestContractWorkloads(t *testing.T) {
	why, _, _ := benchmarkContract(t)
	if len(why) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(why), len(workloads))
	}
	for _, w := range workloads {
		if why[w.name] != w.why {
			t.Errorf("workload %s: BENCHMARK.json says %q, the program %q", w.name, why[w.name], w.why)
		}
	}
}

// smokeWorkload shortens a workload's schedule so a 1 s window exercises
// it end to end.
func smokeWorkload(name string) *workload {
	w := *findWorkload(name)
	if w.crash {
		w.killEvery = 400 * time.Millisecond
	}
	return &w
}

// TestSmoke runs every workload for one second and requires its output
// checks to pass and every end-to-end metric to be a positive number.
func TestSmoke(t *testing.T) {
	for _, base := range workloads {
		t.Run(base.name, func(t *testing.T) {
			w := smokeWorkload(base.name)
			dir := t.TempDir()
			trial, err := medianSetup(w, 1, dir)
			if err != nil {
				t.Fatal(err)
			}
			var obs *observation
			var problems []string
			if w.crash {
				ph, err := runCrash(w, 1, filepath.Join(dir, "run"), 300*time.Millisecond, time.Second, false)
				if err != nil {
					t.Fatal(err)
				}
				obs, problems = ph.obs, ph.verify()
				if len(ph.cycles) < 2 {
					t.Errorf("only %d kill/recover cycles", len(ph.cycles))
				}
			} else {
				ph, err := runOwned(clusterConfig{w: w, seed: 1, datadir: filepath.Join(dir, "run")}, 300*time.Millisecond, time.Second)
				if err != nil {
					t.Fatal(err)
				}
				obs, problems = ph.obs, ph.verify()
			}
			for _, p := range problems {
				t.Errorf("check failed: %s", p)
			}
			if obs.failed != 0 {
				t.Errorf("%d of %d operations failed", obs.failed, obs.attempted)
			}
			ms := endToEnd(obs, trial)
			for _, m := range ms {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v, want a positive number", m.Name, m.Value)
				}
			}
			_, want, _ := benchmarkContract(t)
			sameMetrics(t, ms, want)
		})
	}
}

// TestSmokeTraced runs the traced path of one decorated workload and of
// crash-recover, and requires every per-layer metric to be reported.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("traced smoke brings up five clusters")
	}
	for _, name := range []string{"saturate-ring", "crash-recover"} {
		t.Run(name, func(t *testing.T) {
			w := smokeWorkload(name)
			dir := t.TempDir()
			res := &result{}
			spans := filepath.Join(dir, "spans.jsonl")
			if err := traced(w, options{seed: 1, spans: spans}, dir, 2*time.Second, res); err != nil {
				t.Fatal(err)
			}
			for _, p := range res.Problems {
				t.Errorf("check failed: %s", p)
			}
			seen := map[string]bool{}
			for _, m := range res.Metrics {
				if seen[m.Name] || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("per-layer metric %s: duplicate or not a number (%v)", m.Name, m.Value)
				}
				seen[m.Name] = true
			}
			_, _, want := benchmarkContract(t)
			sameMetrics(t, res.Metrics, want)
			raw, err := os.ReadFile(spans)
			if err != nil || len(raw) == 0 {
				t.Fatalf("no spans written: %v", err)
			}
			var first map[string]any
			if err := json.Unmarshal(raw[:bytes.IndexByte(raw, '\n')], &first); err != nil {
				t.Fatalf("first span line: %v", err)
			}
			for _, key := range []string{"id", "name", "trace", "start_ns", "end_ns", "parent"} {
				if _, ok := first[key]; !ok {
					t.Errorf("span line lacks %q", key)
				}
			}
		})
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	contractPath := write("BENCHMARK.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "latency", "unit": "us", "better": "lower", "bound": 0.10},
		{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.10},
	}})
	file := func(latency, rate []float64, failed int64) suiteFile {
		mk := func(name string, vs []float64) suiteMetric {
			q1, q3 := quartiles(vs)
			return suiteMetric{Name: name, Values: vs, Median: median(vs), Q1: q1, Q3: q3}
		}
		return suiteFile{Runs: len(latency), Workloads: []suiteWorkload{{
			Name: "w", Correct: true, Attempted: 1000, Failed: failed,
			EndToEnd: []suiteMetric{mk("latency", latency), mk("rate", rate)},
		}}}
	}
	steady := []float64{100, 101, 99, 100, 102}
	a := write("a.json", file(steady, steady, 0))
	for _, c := range []struct {
		name     string
		b        suiteFile
		code     int
		contains string
	}{
		{"same", file(steady, steady, 0), 0, "ok"},
		{"slower", file([]float64{120, 121, 119, 120, 122}, steady, 0), 1, "REGRESSION"},
		{"faster is not a regression", file([]float64{80, 81, 79, 80, 82}, steady, 0), 0, "ok"},
		{"lower rate", file(steady, []float64{80, 81, 79, 80, 82}, 0), 1, "REGRESSION"},
		{"noisy", file([]float64{80, 130, 95, 100, 105}, steady, 0), 0, "unresolved"},
		{"more failures", file(steady, steady, 3), 1, "REGRESSION"},
	} {
		var out bytes.Buffer
		code, err := compare(&out, contractPath, a, write("b.json", c.b))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if code != c.code || !strings.Contains(out.String(), c.contains) {
			t.Errorf("%s: exit %d, want %d; output lacks %q:\n%s", c.name, code, c.code, c.contains, out.String())
		}
	}
}
