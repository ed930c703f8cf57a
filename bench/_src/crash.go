package main

import (
	"fmt"
	"os"
	"time"

	"ocsml/internal/des"
	"ocsml/internal/fsstore"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
	"ocsml/internal/transport"
	synth "ocsml/internal/workload"
)

// cycle is one kill → recover of the crash-recover workload, with the
// clock readings that split it into stages.
type cycle struct {
	victim        int
	preLine, line int   // durable line before the kill, line agreed on
	invoked       int64 // Recover called (the victim is already dead)
	begun         int64 // first RB_BGN reached a survivor
	acked         int64 // last RB_ACK left a survivor
	returned      int64 // Recover returned: victim truncated, reloaded, started
	first         int64 // restarted victim processed its first app message
	err           error
}

// crashPhase is the crash-recover workload's run: transport.Cluster itself
// (its Kill/Recover/Restart are part of what is measured) driving the
// repository's synthetic UniformRandom application, observed from outside
// through the shared recorder, checkpoint store and registry.
type crashPhase struct {
	tc     *transport.Cluster
	dir    string
	obs    *observation
	cycles []cycle
	events []trace.Event
}

func crashConfig(w *workload, seed int64, dir string) transport.ClusterConfig {
	return transport.ClusterConfig{
		N: clusterN, Seed: seed, Datadir: dir,
		Opt: w.options(), Reliable: w.reliable,
		Workload: synth.Config{
			Pattern:  synth.UniformRandom,
			Steps:    1 << 40, // never completes: the harness stops the cluster
			Think:    des.Duration(w.think),
			MsgBytes: payloadBytes,
		},
		FSOptions: fsstore.DefaultOptions(),
	}
}

// crashUp builds and starts the cluster and waits for the first durable
// global checkpoint (traffic and the basic-checkpoint timers start with
// the nodes here, so no trigger is needed).
func crashUp(w *workload, seed int64, dir string) (*transport.Cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tc, err := transport.NewCluster(crashConfig(w, seed, dir))
	if err != nil {
		return nil, err
	}
	tc.Start()
	if err := waitFor(10*time.Second, pollFast, func() bool { return tc.Ckpts.MaxStableSeq() >= 1 }); err != nil {
		tc.Stop()
		return nil, fmt.Errorf("first checkpoint not durable: %w", err)
	}
	if seq, err := fsstore.LastCompleteSeq(dir, clusterN); err != nil || seq < 1 {
		tc.Stop()
		return nil, fmt.Errorf("S_1 marked stable but the manifests intersect at %d (%v)", seq, err)
	}
	return tc, nil
}

func timeCrashSetup(w *workload, seed int64, dir string) (time.Duration, error) {
	defer os.RemoveAll(dir)
	start := time.Now()
	tc, err := crashUp(w, seed, dir)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	tc.Stop()
	return d, nil
}

// runCrash measures the crash-recover workload for dur after warm.
func runCrash(w *workload, seed int64, dir string, warm, dur time.Duration, traced bool) (*crashPhase, error) {
	tc, err := crashUp(w, seed, dir)
	if err != nil {
		return nil, err
	}
	s := newSampler(tc.Metrics)
	obs := &observation{rs: rounds{}}
	ph := &crashPhase{tc: tc, dir: dir, obs: obs}
	now := ph.now

	tt := &timetable{now: now}
	t0 := now() + int64(warm)
	tt.add(t0, int64(dur)/subWindows, func(_, t int64) {
		obs.snaps = append(obs.snaps, s.read(t))
		obs.rs.harvest(tc.Ckpts)
	})
	// Kills start half a period into the window and stop half a period
	// before its end, so every cycle's recovery lies inside it.
	lastKill := t0 + int64(dur) - int64(w.killEvery)/2
	lastLine := 0
	tt.add(t0+int64(w.killEvery)/2, int64(w.killEvery), func(_, t int64) {
		if t < lastKill {
			ph.cycles = append(ph.cycles, ph.killAndRecover(s, seed, lastLine))
			lastLine = ph.cycles[len(ph.cycles)-1].line
		}
	})
	if traced {
		tt.add(t0, int64(5*time.Millisecond), func(_, _ int64) {
			obs.queueMax = max(obs.queueMax, s.storageQueue())
		})
	}
	tt.run(func() bool { return len(obs.snaps) > subWindows })
	obs.w = window{obs.snaps[0].at, obs.snaps[subWindows].at}

	for _, n := range tc.Nodes() {
		n.WaitStorageIdle(time.Second)
	}
	obs.rs.harvest(tc.Ckpts)
	end := s.read(now())
	tc.Stop()

	ph.events = tc.Rec.Events()
	ph.stamp()
	counters := tc.Counters()
	obs.attempted = counters["app_msgs"] + int64(len(ph.cycles)) + int64(len(obs.rs))
	obs.failed = end.dropped + end.decodeErrs + end.finalizeErr + counters["recovery.replay_mismatch"]
	for _, cy := range ph.cycles {
		if cy.problem() != "" {
			obs.failed++
		}
	}
	return ph, nil
}

// problem says what went wrong with a cycle ("" when nothing did).
func (cy cycle) problem() string {
	switch {
	case cy.err != nil:
		return fmt.Sprintf("recovery of P%d failed: %v", cy.victim, cy.err)
	case cy.line < cy.preLine:
		return fmt.Sprintf("recovery line %d below the durable line %d before the kill", cy.line, cy.preLine)
	case cy.first == 0:
		return fmt.Sprintf("restarted P%d never processed a message", cy.victim)
	}
	return ""
}

// now reads the cluster's clock (a node's clock outlives the node).
func (ph *crashPhase) now() int64 { return int64(ph.tc.Node(0).Now()) }

// killAndRecover runs one cycle on the next victim of the seeded rotation.
func (ph *crashPhase) killAndRecover(s *sampler, seed int64, lastLine int) cycle {
	tc, now := ph.tc, ph.now
	cy := cycle{victim: int((seed + int64(len(ph.cycles))) % clusterN)}
	// A crashed process reloads its records without their StableAt stamps
	// and restarts its wire counters: bank both before it dies.
	ph.obs.rs.harvest(tc.Ckpts)
	s.read(now())
	// The kill waits for a durable line newer than the one the last
	// recovery returned to, so every cycle has work to lose. Should none
	// appear in time the cycle still runs and the line check reports it.
	_ = waitFor(5*time.Second, pollSlow, func() bool {
		cy.preLine, _ = fsstore.LastCompleteSeq(ph.dir, clusterN)
		return cy.preLine > lastLine
	})
	tc.Kill(cy.victim)
	cy.invoked = now()
	cy.line, cy.err = tc.Recover(cy.victim)
	cy.returned = now()
	s.read(cy.returned)
	return cy
}

// stamp reads the recorder once for what only it knows: per-message
// send → receive latency (the synthetic application cannot stamp due
// times) and, per cycle, when the RB_* handshake began and ended and when
// the restarted victim first processed a message.
func (ph *crashPhase) stamp() {
	sentAt := map[int64]int64{}
	snaps := ph.obs.snaps
	for _, e := range ph.events {
		switch e.Kind {
		case trace.KSend:
			sentAt[e.MsgID] = int64(e.T)
		case trace.KRecv:
			if t, ok := sentAt[e.MsgID]; ok {
				ph.obs.lat = append(ph.obs.lat, sample{int64(e.T), float64(int64(e.T)-t) / 1e3})
			}
			// Deliveries up to each boundary reading, counted after the fact.
			for i := range snaps {
				if int64(e.T) < snaps[i].at {
					snaps[i].recv++
				}
			}
		}
	}
	for k := range ph.cycles {
		cy := &ph.cycles[k]
		for _, e := range ph.events {
			t := int64(e.T)
			if t < cy.invoked {
				continue
			}
			switch {
			case e.Kind == trace.KCtlRecv && e.Tag == protocol.TagRbBegin && cy.begun == 0:
				cy.begun = t
			case e.Kind == trace.KCtlSend && e.Tag == protocol.TagRbAck && t <= cy.returned:
				cy.acked = t
			case e.Kind == trace.KRecv && e.Proc == cy.victim && cy.first == 0:
				cy.first = t
			}
		}
	}
}
