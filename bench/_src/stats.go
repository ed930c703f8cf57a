package main

import (
	"math"
	"sort"
)

// metric is one reported number. The measured window is cut into five
// equal sub-windows and the metric computed in each: Value is the median
// of the five, SubMin and SubMax their extremes, N the samples behind
// them all. (A metric that is one reading — peak RSS, a replay's cost —
// has all three equal.)
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	SubMin float64 `json:"sub_min"`
	SubMax float64 `json:"sub_max"`
}

const subWindows = 5

// quantile returns the q-quantile (0 < q <= 1) of an ascending slice by
// the nearest-rank rule: the smallest sample with at least q of the
// samples at or below it. An empty slice gives 0.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// percentileLadder is the set of percentiles a report may quote.
var percentileLadder = []float64{0.50, 0.90, 0.95, 0.99, 0.999}

// supportedPercentile is the highest percentile of the ladder that still
// has at least ten of n samples beyond it (0.50 when none has): a tail
// percentile resting on fewer samples is mostly the luck of the run.
func supportedPercentile(n int) float64 {
	best := percentileLadder[0]
	for _, q := range percentileLadder {
		if float64(n)*(1-q)+1e-9 >= 10 { // 1-0.9 is a hair under 0.1 in binary
			best = q
		}
	}
	return best
}

// sample is one timed observation: when it completed (ns since the
// cluster's time base) and its value.
type sample struct {
	at int64
	v  float64
}

// window is the measured interval [t0, t1) in ns since the time base.
type window struct{ t0, t1 int64 }

func (w window) seconds() float64 { return float64(w.t1-w.t0) / 1e9 }

// sub returns the i-th of the five equal sub-windows.
func (w window) sub(i int) window {
	d := (w.t1 - w.t0) / subWindows
	return window{w.t0 + int64(i)*d, w.t0 + int64(i+1)*d}
}

func (w window) has(at int64) bool { return at >= w.t0 && at < w.t1 }

// valuesIn returns, ascending, the values of the samples that completed
// inside w.
func valuesIn(samples []sample, w window) []float64 {
	var out []float64
	for _, s := range samples {
		if w.has(s.at) {
			out = append(out, s.v)
		}
	}
	sort.Float64s(out)
	return out
}

// overSubs builds a metric from its value in each sub-window: the median
// of those values is the metric, their extremes its spread inside the
// run. A stall or a burst that fills one sub-window moves the extremes,
// not the value.
func overSubs(name, unit string, n int, subs []float64) metric {
	m := metric{Name: name, Unit: unit, N: n, Value: median(subs)}
	for i, v := range subs {
		if i == 0 || v < m.SubMin {
			m.SubMin = v
		}
		if i == 0 || v > m.SubMax {
			m.SubMax = v
		}
	}
	return m
}

// quantileMetric reports the q-quantile of the samples that completed in
// each sub-window of w (sub-windows without samples are left out).
func quantileMetric(name, unit string, samples []sample, w window, q float64) metric {
	var subs []float64
	n := 0
	for i := 0; i < subWindows; i++ {
		if vs := valuesIn(samples, w.sub(i)); len(vs) > 0 {
			subs = append(subs, quantile(vs, q))
			n += len(vs)
		}
	}
	return overSubs(name, unit, n, subs)
}

// median of an unsorted slice (0 when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
