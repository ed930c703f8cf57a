// Package metrics provides the small set of instruments the simulator
// needs: counters, high-watermark gauges, and summaries with percentiles.
// All instruments are safe for concurrent use so the goroutine-based live
// runtime can share them with the deterministic engine.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (must be >= 0).
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: negative Counter.Add")
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge tracks a level and its high-water mark.
type Gauge struct {
	mu       sync.Mutex
	cur, max int64 // guarded by mu
}

// Add moves the level by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cur += delta
	if g.cur > g.max {
		g.max = g.cur
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cur
}

// Max returns the high-water mark.
func (g *Gauge) Max() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}

// Summary accumulates observations and reports aggregate statistics.
// It stores all samples; simulations are bounded, so this is fine and
// keeps percentiles exact.
type Summary struct {
	mu sync.Mutex // guards every field below

	samples []float64
	sum     float64
	sorted  bool
	last    float64
}

// Observe records one sample.
func (s *Summary) Observe(v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples = append(s.samples, v)
	s.sum += v
	s.last = v
	s.sorted = false
}

// Last returns the most recent observation, or 0 with no samples.
func (s *Summary) Last() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// Count returns the number of observations.
func (s *Summary) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Sum returns the total of all observations.
func (s *Summary) Sum() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sum
}

// Mean returns the average, or 0 with no samples.
func (s *Summary) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// Min returns the smallest observation, or 0 with no samples.
func (s *Summary) Min() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureSortedLocked()
	if len(s.samples) == 0 {
		return 0
	}
	return s.samples[0]
}

// Max returns the largest observation, or 0 with no samples.
func (s *Summary) Max() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureSortedLocked()
	if len(s.samples) == 0 {
		return 0
	}
	return s.samples[len(s.samples)-1]
}

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank method, or 0 with no samples.
func (s *Summary) Percentile(p float64) float64 {
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %v out of (0,100]", p))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureSortedLocked()
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s.samples[rank-1]
}

// Stddev returns the population standard deviation, or 0 with <2 samples.
func (s *Summary) Stddev() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.samples)
	if n < 2 {
		return 0
	}
	mean := s.sum / float64(n)
	var ss float64
	for _, v := range s.samples {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

func (s *Summary) ensureSortedLocked() {
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
}
