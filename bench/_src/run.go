package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ocsml/internal/des"
)

// phase is one cluster brought up, driven and stopped inside a run. An
// untraced run (--trace 0) is a single OCSML phase; a traced run adds an
// untraced reference and the nop baseline around the traced phase.
type phase struct {
	c   *cluster
	obs *observation
}

// runOwned brings up a benchmark-owned cluster in datadir (empty: no
// stable storage), warms it up, measures it for dur and drains it. The
// cluster is left closed but readable; the caller verifies it.
func runOwned(cfg clusterConfig, warm, dur time.Duration) (*phase, error) {
	if cfg.datadir != "" {
		if err := os.MkdirAll(cfg.datadir, 0o755); err != nil {
			return nil, err
		}
	}
	c, err := newCluster(cfg)
	if err != nil {
		return nil, err
	}
	if err := c.up(); err != nil {
		c.close()
		return nil, err
	}
	obs := c.drive(warm, dur)
	c.close()
	// The applications' sample slices belong to the node loops, which
	// have now exited.
	for _, a := range c.apps {
		obs.lat = append(obs.lat, a.lat...)
		obs.late = append(obs.late, a.late...)
	}
	return &phase{c: c, obs: obs}, nil
}

// drive runs the workload's traffic on an up cluster: an untimed warm-up,
// the measured window with a counter reading at each of its six
// boundaries, then the drain. The calling goroutine is the only one the
// benchmark adds to the cluster's own: it fires the open-loop sends and
// the checkpoint triggers on schedule and otherwise sleeps.
func (c *cluster) drive(warm, dur time.Duration) *observation {
	w := c.cfg.w
	s := newSampler(c.reg)
	obs := &observation{rs: rounds{}}
	startSeq := c.maxSeq()
	c.begin()

	tt := &timetable{now: c.now}
	start := c.now()
	t0 := start + int64(warm)
	tt.add(t0, int64(dur)/subWindows, func(_, now int64) {
		snap := s.read(now)
		_, snap.recv = c.traffic()
		obs.snaps = append(obs.snaps, snap)
		obs.rs.harvest(c.ckpts)
	})
	if w.ratePerProc > 0 {
		period := int64(float64(time.Second) / w.ratePerProc)
		for i := range c.nodes {
			n, a := c.nodes[i], c.apps[i]
			// The processes' schedules interleave evenly. The seed picks
			// destinations, not phases: how close two processes' due times
			// fall decides how deep the harness sleeps between them, and
			// that must not differ from run to run.
			tt.add(start+int64(i+1)*period/clusterN, period, func(due, _ int64) {
				n.Post(func() { a.fire(des.Time(due)) })
			})
		}
	}
	if w.roundsPerSec > 0 && !c.cfg.nop {
		every := int64(float64(time.Second) / w.roundsPerSec)
		lastRound, pendingSince := startSeq, int64(0)
		var trig *entry
		trig = tt.add(start+every, every, func(due, now int64) {
			if pendingSince == 0 {
				pendingSince = due
			}
			csn, err := c.nodes[obs.triggers%clusterN].TriggerCheckpoint(time.Second)
			switch {
			case err == nil && csn > lastRound:
				lastRound = csn
			case now-pendingSince < int64(time.Second):
				// The initiator has not closed the previous round yet (the
				// protocol forbids a new checkpoint while tentative): ask
				// again in a millisecond. The schedule slips by the wait,
				// which shows as a lower ckpt_rounds_per_s.
				obs.retries++
				trig.next = now + int64(time.Millisecond)
				return
			default:
				obs.refused++
			}
			obs.triggers++
			pendingSince = 0
		})
	}
	if c.cfg.traced {
		tt.add(t0, int64(5*time.Millisecond), func(_, _ int64) {
			obs.queueMax = max(obs.queueMax, s.storageQueue())
		})
	}
	tt.run(func() bool { return len(obs.snaps) > subWindows })
	obs.w = window{obs.snaps[0].at, obs.snaps[subWindows].at}

	undelivered, pending := c.quiesce()
	obs.rs.harvest(c.ckpts)
	sent, _ := c.traffic()
	end := s.read(c.now())
	obs.attempted = sent + int64(obs.triggers) + int64(len(obs.rs))
	obs.failed = undelivered + int64(pending) + int64(obs.refused) + end.dropped + end.decodeErrs + end.finalizeErr
	return obs
}

// maxSeq is the highest checkpoint sequence number any process has
// finalized.
func (c *cluster) maxSeq() int {
	m := 0
	for i := 0; i < clusterN; i++ {
		m = max(m, c.ckpts.Proc(i).MaxSeq())
	}
	return m
}

// medianSetup times setupTrials throw-away bring-ups of the workload's
// cluster, each in a fresh datadir under dir, and returns every trial in
// seconds.
func medianSetup(w *workload, seed int64, dir string) ([]float64, error) {
	// Bringing a cluster up is the same operation under every traffic mix,
	// so the benchmark-owned workloads time it with one protocol timing
	// (steady-uniform's). With ckpt-storm's own 5 ms timeout the bring-up
	// takes 14 ms, half of it fsyncs, and follows the disk's mood: ±50 %
	// between one quarter of an hour and the next.
	sw := *w
	if !w.crash {
		ref := findWorkload("steady-uniform")
		sw.interval, sw.timeout, sw.flushPoll, sw.maxFlushWait = ref.interval, ref.timeout, ref.flushPoll, ref.maxFlushWait
	}
	w = &sw
	var trials []float64
	for k := 0; k < setupTrials; k++ {
		var d time.Duration
		var err error
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", k))
		if w.crash {
			d, err = timeCrashSetup(w, seed+int64(k), sub)
		} else {
			d, err = timeSetup(w, seed+int64(k), sub)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up trial %d: %w", k, err)
		}
		trials = append(trials, d.Seconds())
	}
	return trials, nil
}
