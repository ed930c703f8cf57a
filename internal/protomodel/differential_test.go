package protomodel

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ocsml/internal/checkpoint"
	"ocsml/internal/core"
	"ocsml/internal/host/hosttest"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
)

// The differential test is what ties the model the explorer verifies to
// the internal/core that ships (DESIGN.md §16.1): every model action is
// performed on N real core.Protocol instances too, and after each step
// the two must agree on everything the model has an opinion about.

// cores is N real core.Protocol instances, each on its own host, plus the
// FIFO channels the model assumes between them.
type cores struct {
	envs   []*hosttest.Driver
	procs  []*core.Protocol
	chans  [][]*protocol.Envelope // src*N+dst, in step with state.chans
	nextID int64
}

func newCores(n int) *cores {
	c := &cores{chans: make([][]*protocol.Envelope, n*n), nextID: 1} // the model's first id
	for i := 0; i < n; i++ {
		// The zero Options are the pure Figure-3 algorithm the model
		// describes: no periodic initiation, no control messages, the
		// flush issued at finalization.
		p := core.New(core.Options{})
		c.envs = append(c.envs, hosttest.New(i, n, p))
		c.procs = append(c.procs, p)
	}
	return c
}

// apply performs one model action on the real protocol instances. It
// returns the envelope a send produced and the value a core panicked
// with, if one did.
func (c *cores) apply(a Action) (sent *protocol.Envelope, panicked any) {
	defer func() { panicked = recover() }()
	n := len(c.procs)
	switch a.Op {
	case OpInit:
		c.procs[a.P].Initiate()
	case OpSend:
		id := c.nextID
		c.nextID++
		sent = &protocol.Envelope{
			ID: id, Src: a.P, Dst: a.Q, Kind: protocol.KindApp,
			App: protocol.AppMsg{Seq: id, Bytes: 1, Tag: uint64(id)},
		}
		c.procs[a.P].OnAppSend(sent)
		c.chans[a.P*n+a.Q] = append(c.chans[a.P*n+a.Q], sent)
	case OpDeliver:
		ch := c.chans[a.Q*n+a.P]
		c.chans[a.Q*n+a.P] = ch[1:]
		c.procs[a.P].OnDeliver(ch[0])
	case OpCrash:
		// What the runtime's recovery does: the line is the highest
		// sequence number every process has finalized, every host rolls
		// back to it in a new epoch, and whatever was in flight is lost.
		line := c.envs[0].Store().MaxSeq()
		for _, env := range c.envs[1:] {
			line = min(line, env.Store().MaxSeq())
		}
		for _, env := range c.envs {
			env.Host.Restart(line, env.Host.Epoch()+1)
		}
		for i := range c.chans {
			c.chans[i] = nil
		}
	}
	return sent, nil
}

// logged is one selective-log entry as both sides can name it.
type logged struct {
	dir checkpoint.Direction
	id  int64
}

func (e logged) String() string { return fmt.Sprintf("%s %d", e.dir, e.id) }

// lockstep drives the model and the cores through the same actions.
type lockstep struct {
	model *state
	cores *cores
	em    emitter
	seen  int // events of em already folded into open
	// open is the model's selective log of each process's open tentative
	// interval in append order, rebuilt from the log-send / log-recv
	// events the model emits where it appends to logS / logR (finalize
	// clears both, so the finalized log is visible nowhere else); joined
	// is the message the interval was joined on, from the join event.
	open   [][]logged
	joined []int64
}

func newLockstep(cfg *Config) *lockstep {
	return &lockstep{model: newState(cfg), cores: newCores(cfg.N), open: make([][]logged, cfg.N), joined: make([]int64, cfg.N)}
}

func tentMask(procs []int) uint16 {
	var m uint16
	for _, p := range procs {
		m |= 1 << uint(p)
	}
	return m
}

// step applies a to both sides and returns the violations the model
// reported and, as an error, the first thing the two sides disagree on.
// After a step on which the model reports violations the run is over:
// the explorer stops there too, and a core that panicked is in no
// defined state.
func (l *lockstep) step(a Action) ([]Violation, error) {
	n := l.model.cfg.N
	vs := l.model.apply(a, &l.em)
	sent, panicked := l.cores.apply(a)

	invariant := false
	for _, v := range vs {
		invariant = invariant || v.Prop == PropInvariant
	}
	if invariant != (panicked != nil) {
		return vs, fmt.Errorf("model reports invariant violation: %v, core panicked: %v (%v)", invariant, panicked != nil, panicked)
	}
	if panicked != nil {
		return vs, nil
	}

	if a.Op == OpSend {
		ch := l.model.chans[a.P*n+a.Q]
		m := ch[len(ch)-1]
		pb, ok := core.AsPiggyback(sent.Payload)
		if !ok {
			return vs, fmt.Errorf("core attached no piggyback to message %d", sent.ID)
		}
		if sent.ID != int64(m.id) || pb.Csn != int(m.pbCsn) || pb.Stat.String() != m.pbStat.String() || tentMask(pb.TentSet.Members()) != m.pbTent {
			return vs, fmt.Errorf("piggyback: model msg %d (csn=%d stat=%s tentSet=%b), core msg %d (csn=%d stat=%s tentSet=%b)",
				m.id, m.pbCsn, m.pbStat, m.pbTent, sent.ID, pb.Csn, pb.Stat, tentMask(pb.TentSet.Members()))
		}
	}

	// Fold the step's events into the open logs; at each model finalize
	// the record core wrote must carry the same log in the same order.
	for _, ev := range l.em.events[l.seen:] {
		switch ev.Kind {
		case trace.KTentative, trace.KRestore:
			l.open[ev.Proc] = nil
			l.joined[ev.Proc] = 0
		case trace.KJoin:
			l.joined[ev.Proc] = ev.MsgID
		case trace.KLogSend:
			l.open[ev.Proc] = append(l.open[ev.Proc], logged{checkpoint.Sent, ev.MsgID})
		case trace.KLogRecv:
			l.open[ev.Proc] = append(l.open[ev.Proc], logged{checkpoint.Received, ev.MsgID})
		case trace.KFinalize:
			want := l.open[ev.Proc]
			l.open[ev.Proc] = nil
			rec, ok := l.cores.envs[ev.Proc].Store().Get(ev.Seq)
			if !ok {
				return vs, fmt.Errorf("P%d: model finalized S_%d, core has no such record", ev.Proc, ev.Seq)
			}
			got := make([]logged, len(rec.Log))
			for i, m := range rec.Log {
				got[i] = logged{m.Dir, m.ID}
			}
			if !slices.Equal(got, want) {
				return vs, fmt.Errorf("P%d: finalized log of S_%d: model %v, core %v", ev.Proc, ev.Seq, want, got)
			}
			if rec.JoinedBy != l.joined[ev.Proc] {
				return vs, fmt.Errorf("P%d: S_%d joined on: model %d, core %d", ev.Proc, ev.Seq, l.joined[ev.Proc], rec.JoinedBy)
			}
		}
	}
	l.seen = len(l.em.events)

	for i := range l.model.procs {
		mp, cp := &l.model.procs[i], l.cores.procs[i]
		if mp.stat == Tentative {
			// Paper §3.4: an initiation at a tentative process is skipped.
			// The model does not enable it; core must make it a no-op, which
			// the comparison below then confirms.
			if _, panicked := l.cores.apply(Action{Op: OpInit, P: i}); panicked != nil {
				return vs, fmt.Errorf("P%d: Initiate while tentative panicked: %v", i, panicked)
			}
		}
		var logR, logS []int16
		for _, e := range l.open[i] {
			if e.dir == checkpoint.Received {
				logR = append(logR, int16(e.id))
			} else {
				logS = append(logS, int16(e.id))
			}
		}
		if !equalIDs(logR, mp.logR) || !equalIDs(logS, mp.logS) {
			return vs, fmt.Errorf("P%d: model events rebuild logR=%v logS=%v, model state holds logR=%v logS=%v", i, logR, logS, mp.logR, mp.logS)
		}
		modelSide := fmt.Sprintf("csn=%d stat=%s tentSet=%b log=%d finalized=%d",
			mp.csn, mp.stat, mp.tent, len(mp.logR)+len(mp.logS), mp.fin)
		coreSide := fmt.Sprintf("csn=%d stat=%s tentSet=%b log=%d finalized=%d",
			cp.Csn(), cp.Status(), tentMask(cp.TentProcs()), cp.LogLen(), l.cores.envs[i].Store().MaxSeq())
		if modelSide != coreSide {
			return vs, fmt.Errorf("P%d: model %s, core %s", i, modelSide, coreSide)
		}
	}
	return vs, nil
}

// runPath replays path from the initial state on a fresh model and fresh
// cores, comparing after every step. The error names the first diverging
// step.
func runPath(cfg Config, path []Action) (*state, []Violation, error) {
	l := newLockstep(&cfg)
	var vs []Violation
	for i, a := range path {
		var err error
		if vs, err = l.step(a); err != nil {
			return nil, nil, fmt.Errorf("step %d %v of %v: %w", i+1, a, path, err)
		}
	}
	return l.model, vs, nil
}

// diffExhaustive covers every (reachable model state, enabled action)
// pair within cfg's bounds: the explorer's breadth-first walk, with every
// transition taken by replaying its path from scratch in lockstep.
func diffExhaustive(cfg Config) (states, pairs int, err error) {
	type node struct {
		st   *state
		path []Action
	}
	root := node{st: newState(&cfg)}
	visited := map[string]bool{root.st.key(): true}
	frontier := []node{root}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for _, a := range cur.st.enabled(true) {
			path := append(cur.path[:len(cur.path):len(cur.path)], a)
			next, vs, err := runPath(cfg, path)
			pairs++
			if err != nil {
				return len(visited), pairs, err
			}
			if len(vs) > 0 || visited[next.key()] {
				continue
			}
			visited[next.key()] = true
			frontier = append(frontier, node{next, path})
		}
	}
	return len(visited), pairs, nil
}

func TestDifferentialExhaustive(t *testing.T) {
	cfg := Config{N: 2, MaxMsgs: 3, MaxInits: 2, MaxCrashes: 1}
	states, pairs, err := diffExhaustive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cex != nil || res.States != states {
		t.Fatalf("explorer visits %d states (counterexample %v), the differential %d", res.States, res.Cex, states)
	}
	t.Logf("N=2: core agrees with the model on %d (state, action) pairs over %d states", pairs, states)
}

// TestDifferentialWalks takes fixed-seed random walks at process counts
// the exhaustive pass cannot afford.
func TestDifferentialWalks(t *testing.T) {
	const walks, steps = 8, 1500
	for n := 3; n <= 4; n++ {
		var finalized, crashes, maxCsn int
		for seed := int64(1); seed <= int64(walks); seed++ {
			cfg := Config{N: n, MaxMsgs: steps, MaxInits: steps, MaxCrashes: steps}
			l := newLockstep(&cfg)
			rng := rand.New(rand.NewSource(seed))
			var path []Action
			for i := 0; i < steps; i++ {
				acts := l.model.enabled(false)
				a := acts[rng.Intn(len(acts))]
				if rng.Intn(64) == 0 {
					a = Action{Op: OpCrash}
					crashes++
				}
				path = append(path, a)
				vs, err := l.step(a)
				if err == nil && len(vs) > 0 {
					err = fmt.Errorf("the faithful model reports %v", vs[0])
				}
				if err != nil {
					tail := path[max(0, len(path)-12):]
					t.Fatalf("N=%d seed=%d step %d %v: %v\nlast actions: %v", n, seed, i+1, a, err, tail)
				}
			}
			for _, p := range l.model.procs {
				maxCsn = max(maxCsn, int(p.csn))
			}
			for _, ev := range l.em.events {
				if ev.Kind == trace.KFinalize {
					finalized++
				}
			}
		}
		// A walk that never finalizes or never crashes compares nothing
		// worth comparing; csn is an int8 in the model.
		if finalized == 0 || crashes == 0 || maxCsn > 100 {
			t.Errorf("N=%d: %d finalizations, %d crashes, highest csn %d: walk parameters need retuning", n, finalized, crashes, maxCsn)
		}
		t.Logf("N=%d: %d walks x %d steps in step with core (%d finalizations, %d crashes, highest csn %d)",
			n, walks, steps, finalized, crashes, maxCsn)
	}
}

// TestDifferentialCatchesMutations runs each injected bug on the model
// side only: core no longer matches, and the differential must say so,
// naming the step.
func TestDifferentialCatchesMutations(t *testing.T) {
	for _, m := range Mutations() {
		t.Run(m.String(), func(t *testing.T) {
			_, _, err := diffExhaustive(Config{N: 2, MaxMsgs: 3, MaxInits: 2, Mutation: m})
			if err == nil {
				t.Fatalf("model running %s still matches core on every path", m)
			}
			if !strings.HasPrefix(err.Error(), "step ") {
				t.Errorf("divergence does not name its step: %v", err)
			}
			t.Log(err)
		})
	}
}
