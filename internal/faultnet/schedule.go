// Package faultnet is the deterministic fault-injection layer of the
// real-network runtime: seeded, reproducible schedules of link faults
// (drop, delay, duplication, reorder), bidirectional partitions, and
// process crash/restart points, applied to the transport's frame path
// through a send hook.
//
// A Schedule is a pure function of (seed, Profile): generating it twice
// yields byte-for-byte identical plans, so any chaos failure reproduces
// from its seed alone. The Injector applies the per-frame faults with
// per-link random sources derived from the same seed; the crash events
// are executed by the chaos runner (internal/transport) which owns the
// cluster lifecycle.
package faultnet

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Window is a half-open activity interval [From, To) on the chaos
// timeline (elapsed time since the cluster's base instant).
type Window struct {
	From time.Duration `json:"from"`
	To   time.Duration `json:"to"`
}

// Contains reports whether elapsed time t falls inside the window.
func (w Window) Contains(t time.Duration) bool { return t >= w.From && t < w.To }

func (w Window) String() string { return fmt.Sprintf("[%v,%v)", w.From, w.To) }

// LinkFault degrades one directed link while its window is active.
type LinkFault struct {
	Src, Dst int
	Window
	// Drop is the per-frame drop probability.
	Drop float64
	// Dup is the per-frame duplication probability (the frame is
	// enqueued twice; the reliable middleware must dedupe).
	Dup float64
	// DelayProb delays a frame by Delay ± Jitter instead of forwarding
	// it immediately; later frames overtake it, so delay doubles as a
	// non-FIFO reordering fault.
	DelayProb float64
	Delay     time.Duration
	Jitter    time.Duration
	// Reorder is the probability of holding a frame until the next frame
	// on the link passes it (a guaranteed adjacent swap).
	Reorder float64
}

func (f LinkFault) String() string {
	return fmt.Sprintf("link P%d->P%d %v drop=%.2f dup=%.2f delayp=%.2f delay=%v±%v reorder=%.2f",
		f.Src, f.Dst, f.Window, f.Drop, f.Dup, f.DelayProb, f.Delay, f.Jitter, f.Reorder)
}

// Partition severs both directions between A and B during the window.
type Partition struct {
	A, B int
	Window
}

func (p Partition) String() string {
	return fmt.Sprintf("part P%d<->P%d %v", p.A, p.B, p.Window)
}

// Tear kinds: crash debris planted in the victim's fsstore directory
// before its restart, one per commit boundary of the durability engine.
// Recovery must ignore each of them (internal/fsstore on Open).
const (
	// TearNone plants nothing.
	TearNone = ""
	// TearSegHeader: truncated header of a fresh segment file — a crash
	// while rotating to a new segment, before its first commit's sync.
	TearSegHeader = "seghdr"
	// TearSegTail: garbage appended beyond the active segment's durable
	// size — a crash mid group-commit batch, after some bytes hit disk
	// but before the batch's single fsync.
	TearSegTail = "segtail"
	// TearGCSeg: a segment file that is none of the log's — a copy of a
	// live segment under an index its header does not name.
	TearGCSeg = "gcseg"
)

// Crash kills a process at At, keeps it down for Down, then restarts it
// from the durable recovery line.
type Crash struct {
	Proc int
	At   time.Duration
	Down time.Duration
	// Tear selects the crash debris (one of the Tear* kinds above) left
	// in the victim's store before the restart.
	Tear string
}

func (c Crash) String() string {
	tear := c.Tear
	if tear == TearNone {
		tear = "none"
	}
	return fmt.Sprintf("crash P%d at=%v down=%v tear=%s", c.Proc, c.At, c.Down, tear)
}

// Schedule is one complete, reproducible fault plan.
type Schedule struct {
	Seed     int64
	N        int
	Duration time.Duration
	Links    []LinkFault
	Parts    []Partition
	Crashes  []Crash
}

// Profile bounds Generate's randomized schedule.
type Profile struct {
	N        int
	Duration time.Duration
	// LinkFaults, Partitions and Crashes are how many of each fault kind
	// the schedule contains.
	LinkFaults int
	Partitions int
	Crashes    int
	// MaxDrop / MaxDup bound the per-frame probabilities drawn per link.
	MaxDrop float64
	MaxDup  float64
	// MaxDelay bounds the injected per-frame delay.
	MaxDelay time.Duration
	// Tear allows crash events to leave torn temp files behind.
	Tear bool
}

// DefaultProfile is the standard chaos mix: one link fault per process,
// one partition, one crash, moderate loss.
func DefaultProfile(n int, dur time.Duration) Profile {
	return Profile{
		N: n, Duration: dur,
		LinkFaults: n, Partitions: 1, Crashes: 1,
		MaxDrop: 0.30, MaxDup: 0.10, MaxDelay: 5 * time.Millisecond,
		Tear: true,
	}
}

// Generate builds the schedule for a seed. It is deterministic: the same
// (seed, profile) always yields an identical schedule.
func Generate(seed int64, p Profile) *Schedule {
	if p.N < 2 {
		panic(fmt.Sprintf("faultnet: profile needs n >= 2, got %d", p.N))
	}
	if p.Duration <= 0 {
		p.Duration = 2 * time.Second
	}
	rng := rand.New(rand.NewSource(seed))
	dur := p.Duration
	frac := func(lo, hi float64) time.Duration {
		return roundMs(time.Duration((lo + rng.Float64()*(hi-lo)) * float64(dur)))
	}
	s := &Schedule{Seed: seed, N: p.N, Duration: dur}

	for i := 0; i < p.LinkFaults; i++ {
		src := rng.Intn(p.N)
		dst := rng.Intn(p.N - 1)
		if dst >= src {
			dst++
		}
		from := frac(0.05, 0.65)
		f := LinkFault{
			Src: src, Dst: dst,
			Window:    Window{From: from, To: from + frac(0.10, 0.30)},
			Drop:      round2(rng.Float64() * p.MaxDrop),
			Dup:       round2(rng.Float64() * p.MaxDup),
			DelayProb: round2(rng.Float64() * 0.25),
			Reorder:   round2(rng.Float64() * 0.15),
		}
		if p.MaxDelay > 0 {
			f.Delay = roundMs(time.Duration(1+rng.Int63n(int64(p.MaxDelay))) + time.Millisecond)
			f.Jitter = f.Delay / 2
		}
		s.Links = append(s.Links, f)
	}

	for i := 0; i < p.Partitions; i++ {
		a := rng.Intn(p.N)
		b := rng.Intn(p.N - 1)
		if b >= a {
			b++
		}
		if a > b {
			a, b = b, a
		}
		from := frac(0.15, 0.55)
		s.Parts = append(s.Parts, Partition{
			A: a, B: b,
			Window: Window{From: from, To: from + frac(0.08, 0.22)},
		})
	}

	// Crashes are spaced so their down windows cannot overlap: each gets
	// its own slot in the back 60% of the timeline.
	for i := 0; i < p.Crashes; i++ {
		slot := float64(dur) * 0.60 / float64(p.Crashes)
		at := float64(dur)*0.35 + slot*(float64(i)+0.2+rng.Float64()*0.5)
		// Five crashes in eight land on a clean store; the rest cycle
		// through the debris kinds so every seed range covers the whole
		// crash-point matrix. The draw keeps its eight cases, so a seed's
		// later draws, and with them its schedule, do not depend on how
		// many debris kinds there are.
		tear := TearNone
		if p.Tear {
			switch rng.Intn(8) {
			case 2:
				tear = TearSegHeader
			case 3:
				tear = TearSegTail
			case 4:
				tear = TearGCSeg
			}
		}
		s.Crashes = append(s.Crashes, Crash{
			Proc: rng.Intn(p.N),
			At:   roundMs(time.Duration(at)),
			Down: roundMs(150*time.Millisecond + time.Duration(rng.Int63n(int64(200*time.Millisecond)))),
			Tear: tear,
		})
	}

	sort.Slice(s.Links, func(i, j int) bool {
		a, b := s.Links[i], s.Links[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	sort.Slice(s.Parts, func(i, j int) bool { return s.Parts[i].From < s.Parts[j].From })
	sort.Slice(s.Crashes, func(i, j int) bool { return s.Crashes[i].At < s.Crashes[j].At })
	return s
}

// String renders the schedule canonically: the byte-for-byte identity of
// two schedules is the reproducibility contract.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule seed=%d n=%d dur=%v links=%d parts=%d crashes=%d\n",
		s.Seed, s.N, s.Duration, len(s.Links), len(s.Parts), len(s.Crashes))
	for _, f := range s.Links {
		fmt.Fprintf(&b, "%v\n", f)
	}
	for _, p := range s.Parts {
		fmt.Fprintf(&b, "%v\n", p)
	}
	for _, c := range s.Crashes {
		fmt.Fprintf(&b, "%v\n", c)
	}
	return b.String()
}

// Fingerprint is a stable 64-bit digest of the canonical rendering.
func (s *Schedule) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write([]byte(s.String()))
	return h.Sum64()
}

func roundMs(d time.Duration) time.Duration { return d.Round(time.Millisecond) }

func round2(f float64) float64 { return float64(int(f*100+0.5)) / 100 }
