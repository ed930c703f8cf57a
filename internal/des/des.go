// Package des implements a deterministic discrete-event simulator.
//
// The simulator maintains a virtual clock and a priority queue of events.
// Events scheduled for the same virtual time fire in the order they were
// scheduled, which — together with a single seeded random source — makes
// every simulation fully reproducible: the same seed and the same program
// produce bit-identical traces.
//
// Virtual time is an int64 count of nanoseconds, mirroring time.Duration so
// the usual constants (Millisecond, Second, ...) read naturally.
package des

import (
	"container/heap"
	"fmt"
	"math/rand"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = Time

// Convenient virtual-time units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// String renders a Time using time.Duration-like units.
func (t Time) String() string {
	switch {
	case t == 0:
		return "0s"
	case t%Second == 0:
		return fmt.Sprintf("%ds", int64(t/Second))
	case t%Millisecond == 0:
		return fmt.Sprintf("%dms", int64(t/Millisecond))
	case t%Microsecond == 0:
		return fmt.Sprintf("%dµs", int64(t/Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// event is a single scheduled callback.
type event struct {
	at  Time
	seq uint64 // tie-break: schedule order
	fn  func()
}

// eventHeap orders events by (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Simulator is a single-threaded discrete-event scheduler.
// It is not safe for concurrent use; protocols hosted on it run strictly
// sequentially, one event at a time.
type Simulator struct {
	now     Time
	seq     uint64
	events  eventHeap
	rng     *rand.Rand
	stopped bool
	horizon Time // 0 = unbounded
}

// New returns a simulator whose random source is seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source. All protocol
// and workload randomness must come from here to keep runs reproducible.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// SetHorizon caps the virtual time: events scheduled after t never fire.
// A zero horizon means unbounded.
func (s *Simulator) SetHorizon(t Time) { s.horizon = t }

// At schedules fn to run at absolute virtual time at. Scheduling in the
// past (at < Now) panics: it would silently reorder causality. An event
// cannot be canceled: whoever scheduled it ignores a stale one when it
// fires (host.Host fences by epoch, core's convergence timer by gen).
func (s *Simulator) At(at Time, fn func()) {
	if at < s.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", at, s.now))
	}
	heap.Push(&s.events, &event{at: at, seq: s.seq, fn: fn})
	s.seq++
}

// After schedules fn to run d nanoseconds of virtual time from now.
// A negative d panics.
func (s *Simulator) After(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %v", d))
	}
	s.At(s.now+d, fn)
}

// Stop makes Run return after the currently executing event completes.
func (s *Simulator) Stop() { s.stopped = true }

// Step fires the single next event, advancing the clock. It reports false
// when no events remain (or the horizon was reached).
func (s *Simulator) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := heap.Pop(&s.events).(*event)
	if s.horizon > 0 && e.at > s.horizon {
		// Past the horizon: drop this and everything later.
		s.events = nil
		return false
	}
	s.now = e.at
	e.fn()
	return true
}

// Run fires events until the queue is exhausted, the horizon is reached,
// or Stop is called. It returns the final virtual time.
func (s *Simulator) Run() Time {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
	return s.now
}

// RunUntil fires events with at <= t, then advances the clock to exactly t.
func (s *Simulator) RunUntil(t Time) Time {
	s.stopped = false
	for !s.stopped && len(s.events) > 0 && s.events[0].at <= t {
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
	return s.now
}
