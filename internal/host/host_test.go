package host_test

import (
	"math/rand"
	"reflect"
	"testing"

	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
	"ocsml/internal/host"
	"ocsml/internal/metrics"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
)

// fixture is one Host on a fake driver: a bare simulator supplies the
// clock and the "run fn on my loop after d" contract, transmissions are
// recorded, stable writes complete when the test says so.
type fixture struct {
	sim    *des.Simulator
	h      *host.Host
	sent   []*protocol.Envelope
	writes []func(start, end des.Time)
	reg    *metrics.Registry
	stalls []bool
	doneN  int
	nextID int64

	// proto and app record what the host called, in order.
	log      []string
	restored []int64
}

func newFixture() *fixture {
	f := &fixture{sim: des.New(1), reg: metrics.NewRegistry()}
	f.h = host.New(host.Process{
		ID: 0, N: 3, Proto: fakeProto{f}, App: fakeApp{f},
		Rand: rand.New(rand.NewSource(1)), Rec: trace.NewRecorder(),
		Ckpts:   checkpoint.NewStore(3).Proc(0),
		Metrics: f.reg,
	}, f)
	f.h.StartProtocol()
	f.h.StartApp()
	return f
}

func (f *fixture) Now() des.Time                 { return f.sim.Now() }
func (f *fixture) NextID() int64                 { f.nextID++; return f.nextID }
func (f *fixture) Transmit(e *protocol.Envelope) { f.sent = append(f.sent, e) }
func (f *fixture) After(d des.Duration, fn func()) *des.Timer {
	return f.sim.After(d, fn)
}
func (f *fixture) WriteStable(_ string, _ int64, done func(start, end des.Time)) {
	f.writes = append(f.writes, done)
}
func (f *fixture) StorageQueueLen() int          { return len(f.writes) }
func (f *fixture) Image() (int64, des.Duration)  { return 64, 0 }
func (f *fixture) AppSent(*protocol.Envelope)    {}
func (f *fixture) Admit(*protocol.Envelope) bool { return true }
func (f *fixture) Stalled(on bool)               { f.stalls = append(f.stalls, on) }
func (f *fixture) Draining() bool                { return false }
func (f *fixture) AppDone()                      { f.doneN++ }

// deliver hands the host an application envelope the way a protocol
// does from OnDeliver.
func (f *fixture) deliver(tag uint64) {
	f.h.DeliverApp(&protocol.Envelope{
		ID: int64(tag), Src: 1, Dst: 0, Kind: protocol.KindApp,
		App: protocol.AppMsg{Seq: int64(tag), Tag: tag},
	}, nil, nil)
}

type fakeProto struct{ f *fixture }

func (fakeProto) Name() string                 { return "fake" }
func (fakeProto) Start(protocol.Env)           {}
func (fakeProto) OnAppSend(*protocol.Envelope) {}
func (fakeProto) OnDeliver(*protocol.Envelope) {}
func (p fakeProto) OnTimer(kind, gen int)      { p.f.log = append(p.f.log, "timer") }
func (fakeProto) Finish()                      {}
func (p fakeProto) Rollback(seq int)           { p.f.log = append(p.f.log, "rollback") }

type fakeApp struct{ f *fixture }

func (fakeApp) Start(protocol.AppCtx) {}
func (a fakeApp) OnMessage(_ protocol.AppCtx, _ int, m protocol.AppMsg) {
	a.f.log = append(a.f.log, "msg"+string(rune('0'+m.Tag)))
}
func (fakeApp) Progress() int64 { return 0 }
func (a fakeApp) Restore(_ protocol.AppCtx, progress int64) {
	a.f.restored = append(a.f.restored, progress)
}

// recordFor builds a line record whose log replays to CFEFold.
func recordFor(work int64) checkpoint.Record {
	rec := checkpoint.Record{
		Tentative: checkpoint.Tentative{Seq: 2, Fold: 77},
		Log: []checkpoint.LoggedMsg{
			{ID: 1, Src: 1, Dst: 0, Dir: checkpoint.Received, Tag: 5, AppSeq: 1},
			{ID: 2, Src: 0, Dst: 2, Dir: checkpoint.Sent, Tag: 9, AppSeq: 1},
		},
		CFEWork: work, CFEProgress: 41,
	}
	rec.CFEFold = checkpoint.FoldLog(rec.Fold, rec.Log)
	return rec
}

func TestHost(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, f *fixture)
	}{
		{"nested stalls replay deferred work in arrival order", func(t *testing.T, f *fixture) {
			f.h.StallApp()
			f.h.StallApp()
			f.deliver(1)
			f.h.After(des.Millisecond, func() { f.log = append(f.log, "after") })
			f.sim.Run() // the After callback arrives while stalled: parked
			f.deliver(2)
			f.h.ResumeApp()
			if len(f.log) != 0 || !f.h.IsStalled() {
				t.Fatalf("inner resume released the application: log %v", f.log)
			}
			f.h.ResumeApp()
			if want := []string{"msg1", "after", "msg2"}; !reflect.DeepEqual(f.log, want) {
				t.Fatalf("replay order %v, want %v", f.log, want)
			}
			if want := []bool{true, false}; !reflect.DeepEqual(f.stalls, want) {
				t.Fatalf("driver saw stall transitions %v, want %v", f.stalls, want)
			}
		}},
		{"a deferred action that stalls again stops the drain", func(t *testing.T, f *fixture) {
			f.h.StallApp()
			f.h.After(0, func() { f.log = append(f.log, "restall"); f.h.StallApp() })
			f.sim.Run()
			f.deliver(1)
			f.h.ResumeApp()
			if want := []string{"restall"}; !reflect.DeepEqual(f.log, want) || !f.h.IsStalled() {
				t.Fatalf("log %v stalled %v, want %v and stalled", f.log, f.h.IsStalled(), want)
			}
			f.h.ResumeApp()
			if want := []string{"restall", "msg1"}; !reflect.DeepEqual(f.log, want) {
				t.Fatalf("log %v, want %v", f.log, want)
			}
		}},
		{"a blocking write stalls until it completes", func(t *testing.T, f *fixture) {
			var wrote bool
			f.h.WriteStableBlocking("ct+log", 64, func(_, _ des.Time) { wrote = true })
			f.deliver(1)
			if len(f.log) != 0 || len(f.writes) != 1 {
				t.Fatalf("blocking write did not stall: log %v, %d writes", f.log, len(f.writes))
			}
			f.writes[0](0, 1)
			if !wrote || !reflect.DeepEqual(f.log, []string{"msg1"}) {
				t.Fatalf("completion did not resume: wrote %v log %v", wrote, f.log)
			}
		}},
		{"timers and callbacks set before an epoch bump never fire", func(t *testing.T, f *fixture) {
			f.h.SetTimer(des.Millisecond, protocol.TimerBasic, 0)
			f.h.After(des.Millisecond, func() { f.log = append(f.log, "after") })
			f.h.StallAppFor(des.Millisecond)
			rec := recordFor(0)
			f.h.Rollback(2, 1, &rec)
			f.log = nil
			f.h.StallApp() // a fresh stall the stale StallAppFor resume must not undo
			f.sim.Run()
			if len(f.log) != 0 || !f.h.IsStalled() {
				t.Fatalf("pre-rollback schedule leaked into epoch 1: log %v stalled %v", f.log, f.h.IsStalled())
			}
			f.h.SetTimer(des.Millisecond, protocol.TimerBasic, 0)
			f.sim.Run()
			if !reflect.DeepEqual(f.log, []string{"timer"}) {
				t.Fatalf("timer of the current epoch did not fire: %v", f.log)
			}
		}},
		{"a crashed process stays silent until rollback", func(t *testing.T, f *fixture) {
			f.h.SetTimer(des.Millisecond, protocol.TimerBasic, 0)
			f.h.Crash()
			f.sim.Run()
			if len(f.log) != 0 {
				t.Fatalf("timer fired on a crashed process: %v", f.log)
			}
		}},
		{"rollback resets the process and replays the log", func(t *testing.T, f *fixture) {
			f.h.StallApp()
			f.deliver(1)
			f.h.Done()
			f.h.DoWork(99)
			rec := recordFor(7)
			if got := f.h.Rollback(2, 3, &rec); got != 2 {
				t.Fatalf("replayed %d logged messages, want 2", got)
			}
			if f.h.IsStalled() || f.h.Finished() || f.h.Epoch() != 3 {
				t.Fatalf("after rollback: stalled %v finished %v epoch %d", f.h.IsStalled(), f.h.Finished(), f.h.Epoch())
			}
			if f.h.Fold() != rec.CFEFold || f.h.Work() != 7 {
				t.Fatalf("state fold %#x work %d, want %#x and 7", f.h.Fold(), f.h.Work(), rec.CFEFold)
			}
			if ev := f.reg.EventCounts(); ev["recovery.replayed_msgs"] != 2 || ev["recovery.replay_mismatch"] != 0 {
				t.Fatalf("counters %v", ev)
			}
			// The parked delivery is gone, the application is parked until
			// RestartApp, and Done counts again in the new incarnation.
			if !reflect.DeepEqual(f.log, []string{"rollback"}) || len(f.restored) != 0 {
				t.Fatalf("log %v restored %v", f.log, f.restored)
			}
			f.h.RestartApp(rec.CFEProgress)
			f.h.Done()
			if !reflect.DeepEqual(f.restored, []int64{41}) || f.doneN != 2 {
				t.Fatalf("restored %v doneN %d", f.restored, f.doneN)
			}
		}},
		{"a log that does not reproduce CFEFold is flagged", func(t *testing.T, f *fixture) {
			rec := recordFor(0)
			rec.Log = rec.Log[:1]
			if got := f.h.Rollback(2, 1, &rec); got != 0 {
				t.Fatalf("replayed %d messages from a diverging log", got)
			}
			if f.h.Fold() != rec.CFEFold {
				t.Fatalf("fold %#x, want the recorded %#x", f.h.Fold(), rec.CFEFold)
			}
			if ev := f.reg.EventCounts(); ev["recovery.replay_mismatch"] != 1 || ev["recovery.replayed_msgs"] != 0 {
				t.Fatalf("counters %v", ev)
			}
		}},
		{"send stamps the envelope and broadcast reaches every peer", func(t *testing.T, f *fixture) {
			f.h.Broadcast(&protocol.Envelope{Kind: protocol.KindCtl, CtlTag: "CK_BGN"})
			if len(f.sent) != 2 || f.sent[0].Dst != 1 || f.sent[1].Dst != 2 {
				t.Fatalf("broadcast sent %v", f.sent)
			}
			if f.sent[0].ID == 0 || f.sent[0].ID == f.sent[1].ID || f.sent[0].Src != 0 {
				t.Fatalf("stamping: %+v %+v", f.sent[0], f.sent[1])
			}
			if ev := f.reg.EventCounts(); ev["ctl.CK_BGN"] != 2 {
				t.Fatalf("counters %v", ev)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newFixture()) })
	}
}
