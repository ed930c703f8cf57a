package faultnet

// This file is the real-time half of faultnet: it applies the seeded,
// deterministic schedules (schedule.go) to a live TCP mesh, so timers
// and elapsed real time are its working material.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ocsml/internal/wire"
)

// reorderFlush bounds how long a frame held for an adjacent-swap reorder
// waits for a successor before being released anyway.
const reorderFlush = 25 * time.Millisecond

// Stats counts the faults the injector actually applied. The counts
// depend on traffic timing and are diagnostics, not part of the
// reproducible report.
type Stats struct {
	Dropped     int64
	Partitioned int64
	Duplicated  int64
	Delayed     int64
	Reordered   int64
	Passed      int64
}

// Injector applies a schedule's link faults and partitions to the frame
// path. It is wired in as the transport mesh's send hook: every outgoing
// frame on link src->dst passes through Apply, which forwards it to
// deliver zero, one or two times, immediately or later.
//
// Per-frame randomness comes from per-link sources derived from the
// schedule seed, so the decision stream of each link is reproducible
// given the same traffic. Until Activate is called the injector passes
// every frame through untouched.
type Injector struct {
	sched *Schedule

	mu     sync.Mutex // guards base and active
	base   time.Time
	active bool

	links map[[2]int]*linkState

	dropped, partitioned atomic.Int64
	duplicated, delayed  atomic.Int64
	reordered, passed    atomic.Int64
}

// linkState is the per-directed-link fault state.
type linkState struct {
	mu sync.Mutex // guards every field below

	rng    *rand.Rand
	faults []LinkFault // windows on this link, by From
	parts  []Window    // partition windows covering this pair
	held   *wire.Frame // frame held back for an adjacent-swap reorder
	heldFn func(*wire.Frame)
}

// NewInjector builds the injector for a schedule.
func NewInjector(s *Schedule) *Injector {
	inj := &Injector{sched: s, links: map[[2]int]*linkState{}}
	link := func(src, dst int) *linkState {
		key := [2]int{src, dst}
		ls := inj.links[key]
		if ls == nil {
			ls = &linkState{rng: rand.New(rand.NewSource(linkSeed(s.Seed, src, dst)))}
			inj.links[key] = ls
		}
		return ls
	}
	// No lock below: the injector has not escaped yet.
	for _, f := range s.Links {
		ls := link(f.Src, f.Dst)
		ls.faults = append(ls.faults, f)
	}
	for _, p := range s.Parts {
		link(p.A, p.B).parts = append(link(p.A, p.B).parts, p.Window)
		link(p.B, p.A).parts = append(link(p.B, p.A).parts, p.Window)
	}
	return inj
}

// Activate anchors the schedule timeline at base (the cluster's shared
// time origin). Before activation every frame passes through.
func (inj *Injector) Activate(base time.Time) {
	inj.mu.Lock()
	inj.base = base
	inj.active = true
	inj.mu.Unlock()
}

// Stats snapshots the applied-fault counters.
func (inj *Injector) Stats() Stats {
	return Stats{
		Dropped:     inj.dropped.Load(),
		Partitioned: inj.partitioned.Load(),
		Duplicated:  inj.duplicated.Load(),
		Delayed:     inj.delayed.Load(),
		Reordered:   inj.reordered.Load(),
		Passed:      inj.passed.Load(),
	}
}

// Apply is the transport send hook: decide this frame's fate on link
// src->dst at the current elapsed time. deliver enqueues a frame at the
// peer queue and is safe to call from timer goroutines after shutdown.
func (inj *Injector) Apply(src, dst int, frame *wire.Frame, deliver func(frame *wire.Frame)) {
	inj.mu.Lock()
	active, base := inj.active, inj.base
	inj.mu.Unlock()
	ls := inj.links[[2]int{src, dst}]
	if !active || ls == nil {
		inj.passed.Add(1)
		deliver(frame)
		return
	}
	t := time.Since(base) // fault windows are positions on the real chaos timeline

	ls.mu.Lock()
	for _, w := range ls.parts {
		if w.Contains(t) {
			ls.mu.Unlock()
			inj.partitioned.Add(1)
			return
		}
	}
	var fault *LinkFault
	for i := range ls.faults {
		if ls.faults[i].Contains(t) {
			fault = &ls.faults[i]
			break
		}
	}
	if fault == nil {
		// Release any frame still held from an expired reorder window so
		// it cannot jump an arbitrary distance forward in the stream.
		held, heldFn := ls.held, ls.heldFn
		ls.held, ls.heldFn = nil, nil
		ls.mu.Unlock()
		inj.passed.Add(1)
		deliver(frame)
		if held != nil {
			heldFn(held)
		}
		return
	}

	roll := func(p float64) bool { return p > 0 && ls.rng.Float64() < p }
	switch {
	case roll(fault.Drop):
		ls.mu.Unlock()
		inj.dropped.Add(1)
		return
	case roll(fault.Dup):
		ls.mu.Unlock()
		inj.duplicated.Add(1)
		deliver(frame)
		deliver(frame)
		return
	case roll(fault.DelayProb):
		d := fault.Delay
		if fault.Jitter > 0 {
			d += time.Duration(ls.rng.Int63n(int64(2*fault.Jitter))) - fault.Jitter
		}
		ls.mu.Unlock()
		inj.delayed.Add(1)
		if d <= 0 {
			deliver(frame)
			return
		}
		time.AfterFunc(d, func() { deliver(frame) })
		return
	case roll(fault.Reorder) && ls.held == nil:
		// Hold this frame until the next one on the link passes it — a
		// guaranteed adjacent swap. A flush timer bounds the wait in case
		// the link goes quiet.
		ls.held, ls.heldFn = frame, deliver
		ls.mu.Unlock()
		inj.reordered.Add(1)
		time.AfterFunc(reorderFlush, func() {
			ls.mu.Lock()
			held, heldFn := ls.held, ls.heldFn
			ls.held, ls.heldFn = nil, nil
			ls.mu.Unlock()
			if held != nil {
				heldFn(held)
			}
		})
		return
	}
	held, heldFn := ls.held, ls.heldFn
	ls.held, ls.heldFn = nil, nil
	ls.mu.Unlock()
	inj.passed.Add(1)
	deliver(frame)
	if held != nil {
		heldFn(held)
	}
}

// linkSeed derives a directed link's random stream from the schedule
// seed with a splitmix64 mix, decorrelating neighbouring links.
func linkSeed(seed int64, src, dst int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(src+1) + 0x517cc1b727220a95*uint64(dst+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
