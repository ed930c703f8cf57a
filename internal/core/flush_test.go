package core

// White-box tests of the finalization-write rule: an idle storage server
// takes the write inside finalize, a busy one defers it to the first idle
// poll or the deadline, and a deferred write keeps later ones behind it.

import (
	"testing"

	"ocsml/internal/des"
	"ocsml/internal/host/hosttest"
	"ocsml/internal/protocol"
)

// busyDisk is the protocol's Env with a storage queue the test sets. It
// records when each stable write is issued and passes the write on.
type busyDisk struct {
	protocol.Env
	queue  int
	issued []des.Time
}

func (d *busyDisk) StorageQueueLen() int { return d.queue }

func (d *busyDisk) WriteStable(tag string, bytes int64, done func(start, end des.Time)) {
	d.issued = append(d.issued, d.Now())
	d.Env.WriteStable(tag, bytes, done)
}

// mountDisk is mount (P1 of 3, tentative at csn 1, at time 0) behind a
// storage queue of the given length.
func mountDisk(t *testing.T, opt Options, queue int) (*Protocol, *hosttest.Driver, *busyDisk) {
	t.Helper()
	p, env := mount(t, 1, 3, opt, true)
	d := &busyDisk{Env: p.env, queue: queue}
	p.env = d
	return p, env, d
}

// TestIdleDiskFlushesInsideFinalize: under the default options, an idle
// server takes the finalization write before finalize returns, and the
// record is stable without any timer firing.
func TestIdleDiskFlushesInsideFinalize(t *testing.T) {
	opt := DefaultOptions()
	opt.EarlyFlush = false // the finalization write is the only one
	p, env, d := mountDisk(t, opt, 0)
	p.finalize()
	if len(d.issued) != 1 || d.issued[0] != 0 {
		t.Fatalf("writes issued at %v, want one at 0 (inside finalize)", d.issued)
	}
	if rec, ok := env.Store().Get(1); !ok || rec.StableAt != 1 {
		t.Fatalf("checkpoint 1 in store %v, stable at %v, want 1ns", ok, rec.StableAt)
	}
	if got := env.Counter("flush_deferred"); got != 0 {
		t.Fatalf("flush_deferred = %d on an idle server", got)
	}
}

// TestBusyDiskDefersFlush: a busy server defers the finalization write to
// the first poll that finds it idle, and a server that never goes idle
// gets it at the first poll past MaxFlushDelay.
func TestBusyDiskDefersFlush(t *testing.T) {
	const poll, deadline, idleAt = 10 * des.Millisecond, 200 * des.Millisecond, 55 * des.Millisecond
	opt := Options{FlushPoll: poll, MaxFlushDelay: deadline}
	for _, tc := range []struct {
		name   string
		idleAt des.Time // 0: never idle
		lo, hi des.Time // the write's issue time lies in (lo, hi]
	}{
		{"first idle poll", idleAt, idleAt, idleAt + poll},
		{"deadline", 0, deadline - 1, deadline + poll},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, env, d := mountDisk(t, opt, 1)
			p.finalize()
			if len(d.issued) != 0 {
				t.Fatalf("write issued at %v while the server was busy", d.issued)
			}
			if tc.idleAt > 0 {
				env.Sim.At(tc.idleAt, func() { d.queue = 0 })
			}
			env.Sim.RunUntil(deadline + 2*poll)
			if len(d.issued) != 1 || d.issued[0] <= tc.lo || d.issued[0] > tc.hi {
				t.Fatalf("writes issued at %v, want one in (%v, %v]", d.issued, tc.lo, tc.hi)
			}
			if env.Counter("flush_deferred") == 0 {
				t.Fatal("no poll found the server busy")
			}
			if rec, _ := env.Store().Get(1); rec.StableAt != d.issued[0]+1 {
				t.Fatalf("checkpoint 1 stable at %v, want %v", rec.StableAt, d.issued[0]+1)
			}
		})
	}
}

// TestDeferredFlushKeepsOrder: a finalization while an earlier write is
// still deferred queues behind it even though the server has gone idle,
// so checkpoints reach stable storage in finalization order.
func TestDeferredFlushKeepsOrder(t *testing.T) {
	p, env, d := mountDisk(t, Options{FlushPoll: 10 * des.Millisecond}, 1)
	p.finalize() // csn 1: deferred behind the busy server
	d.queue = 0
	p.Initiate()
	p.finalize() // csn 2: the server is idle, but csn 1 still waits
	if len(d.issued) != 0 {
		t.Fatalf("writes issued at %v ahead of the deferred one", d.issued)
	}
	env.Sim.Run()
	first, _ := env.Store().Get(1)
	second, _ := env.Store().Get(2)
	if len(d.issued) != 2 || first.StableAt == 0 || first.StableAt >= second.StableAt {
		t.Fatalf("writes issued at %v; stable at %v then %v, want two, in order", d.issued, first.StableAt, second.StableAt)
	}
}
