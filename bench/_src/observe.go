package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"ocsml/internal/checkpoint"
	"ocsml/internal/metrics"
)

// snapshot is one reading of every cumulative counter the report divides
// by time or by messages. Readings are taken at the boundaries of the
// measured window and of its five sub-windows.
type snapshot struct {
	at    int64 // ns since the cluster's time base
	cpuNs int64 // process user+system CPU
	recv  int64 // application messages delivered (filled in by the caller)

	wireBytes, frames, pbBytes              int64
	dropped, reconnects, stale, decodeErrs  int64
	fsBytes, fsyncs, finalizes, finalizeErr int64
	ctl, acks, retransmits                  int64
	mallocs                                 int64
	gcPauseNs                               int64
}

// since returns how much every counter grew from reading a to reading s.
func (s snapshot) since(a snapshot) snapshot {
	return snapshot{
		at: s.at, cpuNs: s.cpuNs - a.cpuNs, recv: s.recv - a.recv,
		wireBytes: s.wireBytes - a.wireBytes, frames: s.frames - a.frames,
		pbBytes: s.pbBytes - a.pbBytes,
		dropped: s.dropped - a.dropped, reconnects: s.reconnects - a.reconnects,
		stale: s.stale - a.stale, decodeErrs: s.decodeErrs - a.decodeErrs,
		fsBytes: s.fsBytes - a.fsBytes, fsyncs: s.fsyncs - a.fsyncs,
		finalizes: s.finalizes - a.finalizes, finalizeErr: s.finalizeErr - a.finalizeErr,
		ctl: s.ctl - a.ctl, acks: s.acks - a.acks, retransmits: s.retransmits - a.retransmits,
		mallocs: s.mallocs - a.mallocs, gcPauseNs: s.gcPauseNs - a.gcPauseNs,
	}
}

// sampler reads the shared metric registry. The wire series are attached
// to a node's own atomics and start again from zero when a process is
// restarted after a crash, so totals are accumulated from per-process
// deltas rather than read off directly.
type sampler struct {
	reg  *metrics.Registry
	last map[string][]int64
	acc  map[string]int64
}

func newSampler(reg *metrics.Registry) *sampler {
	return &sampler{reg: reg, last: map[string][]int64{}, acc: map[string]int64{}}
}

// total returns the family's count summed over processes since the
// sampler was created.
func (s *sampler) total(family string) int64 {
	last := s.last[family]
	if last == nil {
		last = make([]int64, clusterN)
		s.last[family] = last
	}
	for i := 0; i < clusterN; i++ {
		v, _ := s.reg.Value(family, strconv.Itoa(i))
		d := v - last[i]
		if d < 0 { // the process restarted: its series began again at zero
			d = v
		}
		s.acc[family] += d
		last[i] = v
	}
	return s.acc[family]
}

func (s *sampler) read(at int64) snapshot {
	ev := s.reg.EventCounts()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap := snapshot{
		at:          at,
		cpuNs:       cpuTime(),
		wireBytes:   s.total("ocsml_wire_bytes_sent_total"),
		frames:      s.total("ocsml_wire_frames_sent_total"),
		pbBytes:     s.total("ocsml_wire_piggyback_bytes_total"),
		dropped:     s.total("ocsml_wire_frames_dropped_total"),
		reconnects:  s.total("ocsml_wire_reconnects_total"),
		stale:       s.total("ocsml_wire_stale_dropped_total"),
		decodeErrs:  s.total("ocsml_wire_decode_errors_total"),
		fsBytes:     s.total("ocsml_fsstore_bytes_written_total"),
		fsyncs:      s.total("ocsml_fsstore_fsyncs_total"),
		finalizes:   s.total("ocsml_fsstore_finalized_total"),
		finalizeErr: s.total("ocsml_fsstore_finalize_errors_total") + ev["fsstore.errors"],
		acks:        ev["ctl.ACK"],
		retransmits: ev["reliable.retransmits"],
		mallocs:     int64(ms.Mallocs),
		gcPauseNs:   int64(ms.PauseTotalNs),
	}
	for name, v := range ev {
		if strings.HasPrefix(name, "ctl.CK_") {
			snap.ctl += v
		}
	}
	return snap
}

// storageQueue is the deepest stable-storage queue of any process now.
func (s *sampler) storageQueue() int64 {
	var deepest int64
	for i := 0; i < clusterN; i++ {
		if v, _ := s.reg.Value("ocsml_node_storage_queue", strconv.Itoa(i)); v > deepest {
			deepest = v
		}
	}
	return deepest
}

// cpuTime is the process's user+system CPU time in ns.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// round is one global checkpoint S_k as the shared checkpoint.Store
// stamped it: the first tentative checkpoint, the last finalization and
// the last flush completion over the N processes.
type round struct {
	seq                      int
	taken, finalized, stable int64
}

// rounds collects the durable global checkpoints seen so far. It is fed
// repeatedly (a crashed process reloads its records from disk without
// their StableAt stamps, so a round must be read before its victim dies)
// and keeps one entry per (seq, first tentative) — a rolled-back and
// re-taken S_k is a different round.
type rounds map[[2]int64]round

func (rs rounds) harvest(ckpts *checkpoint.Store) {
	limit := ckpts.MaxCompleteSeq()
	for seq := 1; seq <= limit; seq++ {
		g, ok := ckpts.Global(seq)
		if !ok {
			continue
		}
		r := round{seq: seq, taken: int64(g.Recs[0].TakenAt)}
		durable := true
		for _, rec := range g.Recs {
			if rec.StableAt == 0 {
				durable = false
				break
			}
			r.taken = min(r.taken, int64(rec.TakenAt))
			r.finalized = max(r.finalized, int64(rec.FinalizedAt))
			r.stable = max(r.stable, int64(rec.StableAt))
		}
		if durable {
			rs[[2]int64{int64(seq), r.taken}] = r
		}
	}
}

// observation is everything one measured window produced.
type observation struct {
	w     window
	snaps []snapshot // subWindows+1 readings: the window's boundaries
	lat   []sample   // per delivered message: due → OnMessage, µs
	late  []sample   // per sent message: generator lateness, µs
	rs    rounds

	queueMax  int64 // deepest storage queue sampled (traced runs)
	triggers  int   // rounds started by TriggerCheckpoint (warm-up included)
	retries   int   // triggers repeated because the initiator was still tentative
	refused   int   // triggers given up on: no round started within a second
	attempted int64 // operations attempted over the whole run
	failed    int64 // of which failed (see verify)
}

// subs returns the sub-windows as the snapshots actually bounded them.
func (o *observation) subs() []window {
	out := make([]window, 0, subWindows)
	for i := 0; i+1 < len(o.snaps); i++ {
		out = append(out, window{o.snaps[i].at, o.snaps[i+1].at})
	}
	return out
}

// delivered is the number of messages received inside the whole window.
func (o *observation) delivered() int {
	return int(o.snaps[len(o.snaps)-1].recv - o.snaps[0].recv)
}

// durableIn counts the rounds that became durable inside w.
func (o *observation) durableIn(w window) int {
	n := 0
	for _, r := range o.rs {
		if w.has(r.stable) {
			n++
		}
	}
	return n
}

// counter builds a metric from the counters' growth over each sub-window.
func (o *observation) counter(name, unit string, n int, f func(d snapshot, w window) float64) metric {
	var subs []float64
	for i, sw := range o.subs() {
		subs = append(subs, f(o.snaps[i+1].since(o.snaps[i]), sw))
	}
	return overSubs(name, unit, n, subs)
}

// sleepUntil blocks in the kernel until the clock reads at. Go's own
// timers round a sleep up to the next millisecond while the process is
// otherwise idle; on an open-loop schedule with 1 ms between sends that
// rounding, not the system under test, would set the latency.
func sleepUntil(now func() int64, at int64) {
	for d := at - now(); d > 0; d = at - now() {
		ts := syscall.NsecToTimespec(d)
		// An interrupted sleep is resumed by the loop.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// timetable is what the harness goroutine does while a cluster runs:
// recurring entries (fire an open-loop send, trigger a round, read the
// counters at a window boundary), served strictly in due order.
type timetable struct {
	now     func() int64
	entries []*entry
}

type entry struct {
	next, every int64
	// fire gets the time the entry was due and the time it is served.
	fire func(due, now int64)
}

// add schedules fire at first and then every `every`. The entry is
// returned so that fire may move its own next occurrence.
func (t *timetable) add(first, every int64, fire func(due, now int64)) *entry {
	e := &entry{next: first, every: every, fire: fire}
	t.entries = append(t.entries, e)
	return e
}

// run serves entries until done reports true. An entry that has fallen
// behind is served at once, once per missed occurrence, so a schedule is
// never thinned by a late harness.
func (t *timetable) run(done func() bool) {
	for !done() {
		e := t.entries[0]
		for _, c := range t.entries[1:] {
			if c.next < e.next {
				e = c
			}
		}
		sleepUntil(t.now, e.next)
		due := e.next
		e.next += e.every
		e.fire(due, t.now())
	}
}
