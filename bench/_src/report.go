package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// endToEnd computes the gated metrics of one measured window. They are
// defined on every workload, so that one run prints all of them.
func endToEnd(obs *observation, trials []float64) []metric {
	total, durable := obs.delivered(), obs.durableIn(obs.w)
	perRound := func(v func(d snapshot) int64) func(d snapshot, w window) float64 {
		return func(d snapshot, w window) float64 { return ratio(float64(v(d)), float64(obs.durableIn(w))) }
	}

	setup := metric{Name: "setup_s", Unit: "s", Value: median(trials), N: len(trials)}
	sorted := append([]float64(nil), trials...)
	sort.Float64s(sorted)
	setup.SubMin, setup.SubMax = sorted[0], sorted[len(sorted)-1]

	return []metric{
		setup,
		quantileMetric("ckpt_round_durable_ms_p50", "ms", roundMs(obs), obs.w, 0.50),
		obs.counter("ckpt_rounds_per_s", "1/s", durable, func(_ snapshot, w window) float64 {
			return float64(obs.durableIn(w)) / w.seconds()
		}),
		obs.counter("fsyncs_per_round", "count", durable, perRound(func(d snapshot) int64 { return d.fsyncs })),
		obs.counter("stable_bytes_per_round", "B", durable, perRound(func(d snapshot) int64 { return d.fsBytes })),
		obs.counter("wire_bytes_per_app_msg", "B", total, func(d snapshot, _ window) float64 {
			return ratio(float64(d.wireBytes), float64(d.recv))
		}),
		val("peak_rss_mb", "MB", peakRSSMB(), 1),
	}
}

// roundMs is each durable round's tentative → durable time, in ms.
func roundMs(obs *observation) []sample {
	var out []sample
	for _, r := range obs.rs {
		out = append(out, sample{r.stable, float64(r.stable-r.taken) / 1e6})
	}
	return out
}

// ungated computes the whole-system metrics that are reported but carry
// no bound. They are the ones that measure speed, and on a shared two-CPU
// virtual machine speed itself moves: two ten-seed suites of one commit,
// half an hour apart, disagreed by 21 % on the ring's throughput and 28 %
// on its median latency, and the median latency of an idle cluster — a
// chain of vCPU wake-ups — spreads by 29 % between runs (tails by
// 30–100 %). No bound the contract allows (≤ 25 %) could resolve them.
func ungated(obs *observation) []metric {
	return []metric{
		quantileMetric("msg_latency_us_p50", "us", obs.lat, obs.w, 0.50),
		quantileMetric("msg_latency_us_p99", "us", obs.lat, obs.w, 0.99),
		obs.counter("app_msgs_per_s", "1/s", obs.delivered(), func(d snapshot, w window) float64 {
			return float64(d.recv) / w.seconds()
		}),
		quantileMetric("ckpt_round_durable_ms_p95", "ms", roundMs(obs), obs.w, 0.95),
		obs.counter("cpu_us_per_app_msg", "us", obs.delivered(), func(d snapshot, _ window) float64 {
			return ratio(float64(d.cpuNs)/1e3, float64(d.recv))
		}),
	}
}

// printMetrics writes the metric table a person reads.
func printMetrics(out io.Writer, title string, ms []metric) {
	fmt.Fprintf(out, "\n%s\n", title)
	fmt.Fprintf(out, "  %-38s %14s %-6s %9s %14s %14s\n", "metric", "value", "unit", "samples", "sub-window min", "sub-window max")
	for _, m := range ms {
		fmt.Fprintf(out, "  %-38s %14.4f %-6s %9d %14.4f %14.4f\n", m.Name, m.Value, m.Unit, m.N, m.SubMin, m.SubMax)
	}
}

// noteSupport says, for each tail percentile reported, when the sample
// count does not support it (ten samples beyond it) and which it does.
func noteSupport(out io.Writer, ms []metric) {
	for _, m := range ms {
		var q float64
		switch {
		case strings.HasSuffix(m.Name, "_p99"):
			q = 0.99
		case strings.HasSuffix(m.Name, "_p95"):
			q = 0.95
		default:
			continue
		}
		if s := supportedPercentile(m.N); s < q {
			fmt.Fprintf(out, "  note: %s rests on %d samples, which support p%g at most\n", m.Name, m.N, s*100)
		}
	}
}
