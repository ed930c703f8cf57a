package host_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
	"ocsml/internal/host"
	"ocsml/internal/metrics"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
)

// fixture is one Host on a fake driver: a bare simulator supplies the
// clock and the "fire this tick on my loop after d" contract,
// transmissions are recorded, stable writes complete when the test says
// so.
type fixture struct {
	sim    *des.Simulator
	h      *host.Host
	rec    *trace.Recorder
	sent   []*protocol.Envelope
	writes []func(start, end des.Time)
	reg    *metrics.Registry
	stalls []bool
	doneN  int
	nextID int64
	// appSent and admitted count the driver's observation hooks; ctx is
	// the application's view of the host, for sends.
	appSent, admitted int
	ctx               protocol.AppCtx

	// proto and app record what the host called, in order; rolledBack the
	// driver's RolledBack calls.
	log        []string
	restored   []int64
	rolledBack [][2]int
}

func newFixture() *fixture {
	f := &fixture{sim: des.New(1), reg: metrics.NewRegistry(), rec: trace.NewRecorder()}
	f.h = host.New(host.Process{
		ID: 0, N: 3, Proto: fakeProto{f}, App: fakeApp{f},
		Rand: rand.New(rand.NewSource(1)), Rec: f.rec,
		Ckpts:   checkpoint.NewStore(3).Proc(0),
		Metrics: f.reg,
	}, f)
	f.h.StartProtocol()
	f.h.StartApp()
	return f
}

func (f *fixture) Now() des.Time                 { return f.sim.Now() }
func (f *fixture) NextID() int64                 { f.nextID++; return f.nextID }
func (f *fixture) Transmit(e *protocol.Envelope) { cp := *e; f.sent = append(f.sent, &cp) }
func (f *fixture) After(d des.Duration, t host.Tick) {
	f.sim.After(d, func() { f.h.Fire(t) })
}
func (f *fixture) WriteStable(_ string, _ int64, done func(start, end des.Time)) {
	f.writes = append(f.writes, done)
}
func (f *fixture) StorageQueueLen() int         { return len(f.writes) }
func (f *fixture) Image() (int64, des.Duration) { return 64, 0 }
func (f *fixture) AppSent(*protocol.Envelope)   { f.appSent++ }
func (f *fixture) Admit(*protocol.Envelope)     { f.admitted++ }
func (f *fixture) Stalled(on bool)              { f.stalls = append(f.stalls, on) }
func (f *fixture) Draining() bool               { return false }
func (f *fixture) AppDone()                     { f.doneN++ }
func (f *fixture) DurableSeqs() []int           { return nil }
func (f *fixture) Truncate(_, _ int, done func(error)) {
	done(nil)
}
func (f *fixture) RolledBack(line, replayed int) {
	f.rolledBack = append(f.rolledBack, [2]int{line, replayed})
}

// deliver hands the host an application envelope the way a protocol
// does from OnDeliver.
func (f *fixture) deliver(tag uint64) {
	f.h.DeliverApp(&protocol.Envelope{
		ID: int64(tag), Src: 1, Dst: 0, Kind: protocol.KindApp,
		App: protocol.AppMsg{Seq: int64(tag), Tag: tag},
	}, nil)
}

type fakeProto struct{ f *fixture }

func (fakeProto) Name() string                   { return "fake" }
func (fakeProto) Start(protocol.Env)             {}
func (p fakeProto) OnAppSend(*protocol.Envelope) { p.f.log = append(p.f.log, "appsend") }
func (p fakeProto) OnDeliver(e *protocol.Envelope) {
	p.f.log = append(p.f.log, fmt.Sprintf("deliver%d", e.ID))
}
func (p fakeProto) OnTimer(kind, gen int) { p.f.log = append(p.f.log, "timer") }
func (fakeProto) Finish()                 {}
func (p fakeProto) Rollback(seq int)      { p.f.log = append(p.f.log, "rollback") }

type fakeApp struct{ f *fixture }

func (a fakeApp) Start(ctx protocol.AppCtx) { a.f.ctx = ctx }
func (a fakeApp) OnMessage(_ protocol.AppCtx, _ int, m protocol.AppMsg) {
	a.f.log = append(a.f.log, "msg"+string(rune('0'+m.Tag)))
}
func (fakeApp) Progress() int64 { return 0 }
func (a fakeApp) Restore(_ protocol.AppCtx, progress int64) {
	a.f.restored = append(a.f.restored, progress)
}

// lineRecord puts a line record whose log replays to CFEFold at seq 2 of
// the fixture's store, below a seq-3 record a rollback must discard.
func (f *fixture) lineRecord(work int64, logLen int) checkpoint.Record {
	rec := checkpoint.Record{
		Tentative: checkpoint.Tentative{Seq: 2, Fold: 77, JoinedBy: 7},
		Log: []checkpoint.LoggedMsg{
			{ID: 1, Src: 1, Dst: 0, Dir: checkpoint.Received, Tag: 5, AppSeq: 1},
			{ID: 2, Src: 0, Dst: 2, Dir: checkpoint.Sent, Bytes: 300, Tag: 9, AppSeq: 1},
		},
		CFEWork: work, CFEProgress: 41,
	}
	rec.CFEFold = checkpoint.FoldLog(rec.Fold, rec.Log)
	rec.Log = rec.Log[:logLen]
	f.h.Checkpoints().Add(rec)
	f.h.Checkpoints().Add(checkpoint.Record{Tentative: checkpoint.Tentative{Seq: 3}})
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
			f.lineRecord(0, 2)
			f.h.Restart(2, 1)
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
			f.h.After(des.Millisecond, func() { f.log = append(f.log, "after") })
			f.h.StallAppFor(des.Millisecond)
			f.h.Crash()
			f.sim.Run()
			if len(f.log) != 0 {
				t.Fatalf("timer or callback fired on a crashed process: %v", f.log)
			}
			if f.h.IsStalled() {
				t.Fatal("a timed stall outlived its duration on a crashed process")
			}
		}},
		{"rollback resets the process and replays the log", func(t *testing.T, f *fixture) {
			f.h.StallApp()
			f.deliver(1)
			f.h.Done()
			f.h.DoWork(99)
			rec := f.lineRecord(7, 2)
			if replayed, ok := f.h.Restart(2, 3); !ok || replayed != 2 {
				t.Fatalf("restart = (%d, %v), want 2 replayed", replayed, ok)
			}
			if ps := f.h.Checkpoints(); ps.MaxSeq() != 2 || f.reg.EventCounts()["recovery.ckpts_discarded"] != 1 {
				t.Fatalf("store ends at %d after a rollback to 2, counters %v", ps.MaxSeq(), f.reg.EventCounts())
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
			// The parked delivery is gone, the protocol rewound before the
			// application restarted at the record's progress, the driver saw
			// the rollback, and Done counts again in the new incarnation.
			if !reflect.DeepEqual(f.log, []string{"rollback", "appsend"}) || !reflect.DeepEqual(f.restored, []int64{41}) {
				t.Fatalf("log %v restored %v", f.log, f.restored)
			}
			if !reflect.DeepEqual(f.rolledBack, [][2]int{{2, 2}}) {
				t.Fatalf("driver observed rollbacks %v, want line 2 with 2 replayed", f.rolledBack)
			}
			f.h.Done()
			if f.doneN != 2 {
				t.Fatalf("doneN %d", f.doneN)
			}
		}},
		{"resume re-sends the line's logged sends under their own IDs", func(t *testing.T, f *fixture) {
			f.ctx.Send(2, protocol.AppMsg{Bytes: 10})
			rec := f.lineRecord(7, 2)
			kSend := f.rec.CountKind(trace.KSend)
			f.sent, f.log, f.appSent = nil, nil, 0
			f.h.Restart(2, 1)
			want := protocol.Envelope{
				ID: 2, Src: 0, Dst: 2, Kind: protocol.KindApp, Bytes: 300, Epoch: 1,
				App: protocol.AppMsg{Seq: 1, Tag: 9, Bytes: 300},
			}
			if len(f.sent) != 1 || !reflect.DeepEqual(*f.sent[0], want) {
				t.Fatalf("re-sent %v, want only %+v", f.sent, want)
			}
			if !reflect.DeepEqual(f.log, []string{"rollback", "appsend"}) || !reflect.DeepEqual(f.restored, []int64{41}) {
				t.Fatalf("protocol saw %v, application restored at %v: want the rewind, one OnAppSend, then progress 41", f.log, f.restored)
			}
			// Not a fresh send: no fold step, no KSend, no AppSent.
			if f.h.Fold() != rec.CFEFold || f.rec.CountKind(trace.KSend) != kSend || f.appSent != 0 {
				t.Fatalf("re-send moved fold %#x -> %#x, KSend %d -> %d, AppSent %d",
					rec.CFEFold, f.h.Fold(), kSend, f.rec.CountKind(trace.KSend), f.appSent)
			}
			if ev := f.reg.EventCounts(); ev["recovery.reinjected"] != 1 {
				t.Fatalf("counters %v", ev)
			}
			// The application's sequence goes on from its last fresh send.
			f.ctx.Send(1, protocol.AppMsg{})
			if got := f.sent[len(f.sent)-1]; got.App.Seq != 2 {
				t.Fatalf("first fresh send after Resume: %+v, want seq 2", got)
			}
		}},
		{"resume drops what the line holds, once each, and passes the rest", func(t *testing.T, f *fixture) {
			f.lineRecord(0, 2)
			f.h.Restart(2, 1)
			f.log = nil
			f.deliver(1) // logged as received by the line
			f.deliver(7) // the round's join
			f.deliver(3) // fresh
			if !reflect.DeepEqual(f.log, []string{"msg3"}) || f.admitted != 1 {
				t.Fatalf("processed %v (%d admitted), want only msg3", f.log, f.admitted)
			}
			if ev := f.reg.EventCounts(); ev["recovery.dup_dropped"] != 2 {
				t.Fatalf("counters %v", ev)
			}
			// The next Restart replaces the filter.
			f.h.Restart(0, 2)
			f.log = nil
			f.deliver(1)
			if !reflect.DeepEqual(f.log, []string{"msg1"}) {
				t.Fatalf("after a second Resume processed %v", f.log)
			}
		}},
		{"a log that does not reproduce CFEFold is flagged", func(t *testing.T, f *fixture) {
			rec := f.lineRecord(0, 1)
			if replayed, ok := f.h.Restart(2, 1); !ok || replayed != 0 {
				t.Fatalf("replayed %d messages from a diverging log (ok %v)", replayed, ok)
			}
			if f.h.Fold() != rec.CFEFold {
				t.Fatalf("fold %#x, want the recorded %#x", f.h.Fold(), rec.CFEFold)
			}
			if ev := f.reg.EventCounts(); ev["recovery.replay_mismatch"] != 1 || ev["recovery.replayed_msgs"] != 0 {
				t.Fatalf("counters %v", ev)
			}
		}},
		{"a restart counts the work it rewinds", func(t *testing.T, f *fixture) {
			// A fresh process, as a restarted victim of the TCP runtime
			// is, rewinds nothing of its own.
			f.lineRecord(5, 2)
			f.h.Restart(2, 1)
			if ev := f.reg.EventCounts(); f.h.Work() != 5 || ev["recovery.lost_work"] != 0 {
				t.Fatalf("fresh restart: work %d, counters %v", f.h.Work(), ev)
			}
			f.h.DoWork(7)
			f.h.Restart(2, 2)
			f.h.Restart(2, 3) // at the line's state already
			if ev := f.reg.EventCounts(); f.h.Work() != 5 || ev["recovery.lost_work"] != 7 {
				t.Fatalf("work %d, counters %v: want the rewind from 12 to 5 counted once", f.h.Work(), ev)
			}
		}},
		{"a line the process never finalized is refused, untouched", func(t *testing.T, f *fixture) {
			f.lineRecord(0, 2)
			f.h.DoWork(5)
			if _, ok := f.h.Restart(4, 1); ok {
				t.Fatal("rolled back to a line the store does not hold")
			}
			if f.h.Epoch() != 0 || f.h.Work() != 5 || f.h.Checkpoints().MaxSeq() != 3 || len(f.log) != 0 || len(f.rolledBack) != 0 {
				t.Fatalf("refused rollback left epoch %d work %d store max %d log %v, driver saw %v",
					f.h.Epoch(), f.h.Work(), f.h.Checkpoints().MaxSeq(), f.log, f.rolledBack)
			}
			if ev := f.reg.EventCounts(); ev["recovery.line_missing"] != 1 {
				t.Fatalf("counters %v", ev)
			}
		}},
		{"line 0 without a record is the initial state", func(t *testing.T, f *fixture) {
			f.lineRecord(0, 2)
			f.h.DoWork(5)
			if replayed, ok := f.h.Restart(0, 1); !ok || replayed != 0 {
				t.Fatalf("restart at line 0 = (%d, %v), want the zero record", replayed, ok)
			}
			if f.h.Fold() != 0 || f.h.Work() != 0 || f.h.Checkpoints().Len() != 0 || f.h.Epoch() != 1 {
				t.Fatalf("after line 0: fold %#x work %d, %d records, epoch %d",
					f.h.Fold(), f.h.Work(), f.h.Checkpoints().Len(), f.h.Epoch())
			}
		}},
		{"the fence drops older epochs and holds newer ones until a rollback adopts them", func(t *testing.T, f *fixture) {
			f.lineRecord(0, 0)
			f.h.Restart(2, 1)
			f.log = nil
			at := func(id int64, epoch int) { f.h.Deliver(&protocol.Envelope{ID: id, Src: 1, Epoch: epoch}) }
			at(1, 0) // older: stale
			at(2, 1) // current: delivered
			at(3, 2) // newer: held until epoch 2
			at(4, 3) // newer still: held, then stale once epoch 4 is adopted first
			if !reflect.DeepEqual(f.log, []string{"deliver2"}) {
				t.Fatalf("delivered %v, want only the current epoch's", f.log)
			}
			f.h.Restart(2, 2)
			if want := []string{"deliver2", "rollback", "deliver3"}; !reflect.DeepEqual(f.log, want) {
				t.Fatalf("after adopting epoch 2: %v, want %v", f.log, want)
			}
			f.h.Restart(2, 4)
			if ev := f.reg.EventCounts(); ev["recovery.held"] != 2 || ev["recovery.stale_dropped"] != 2 {
				t.Fatalf("counters %v, want 2 held and 2 stale", ev)
			}
			f.h.Crash()
			at(5, 4) // a crashed process takes only RB_* frames
			if want := []string{"deliver2", "rollback", "deliver3", "rollback"}; !reflect.DeepEqual(f.log, want) {
				t.Fatalf("log %v, want %v", f.log, want)
			}
		}},
		{"the fence holds at most 1024 envelopes, and one more is stale", func(t *testing.T, f *fixture) {
			for id := int64(1); id <= 1025; id++ {
				f.h.Deliver(&protocol.Envelope{ID: id, Src: 1, Epoch: 1})
			}
			if ev := f.reg.EventCounts(); ev["recovery.held"] != 1024 || ev["recovery.stale_dropped"] != 1 {
				t.Fatalf("counters %v, want 1024 held and 1 stale", ev)
			}
		}},
		{"a coordinating process drops what predates its round and holds the round's epoch", func(t *testing.T, f *fixture) {
			var decided []int
			f.h.Recover(7, func(line, epoch int, err error) {
				if err != nil {
					t.Fatal(err)
				}
				decided = []int{line, epoch}
				f.h.Restart(line, epoch)
			})
			at := func(id int64, epoch int) { f.h.Deliver(&protocol.Envelope{ID: id, Src: 1, Epoch: epoch}) }
			rb := func(src int, tag string, m protocol.RbMsg) {
				f.h.Deliver(&protocol.Envelope{Src: src, Kind: protocol.KindCtl, CtlTag: tag, Payload: m})
			}
			for id := int64(1); id <= 1024; id++ {
				at(id, 3) // the survivors' epoch, not yet reported: held, to the cap
			}
			rb(1, protocol.TagRbLine, protocol.RbMsg{Round: 7, Epoch: 3})
			at(1025, 3) // reported: predates the round
			rb(2, protocol.TagRbLine, protocol.RbMsg{Round: 7, Epoch: 3})
			at(1026, 4) // the round's epoch: held until the Restart, room made
			cmt := protocol.RbMsg{Round: 7, Line: 0, Epoch: 4}
			rb(1, protocol.TagRbAck, cmt)
			rb(2, protocol.TagRbAck, cmt)
			if !reflect.DeepEqual(decided, []int{0, 4}) || !reflect.DeepEqual(f.log, []string{"rollback", "deliver1026"}) {
				t.Fatalf("decided %v, log %v; want line 0 in epoch 4 and only the round's envelope", decided, f.log)
			}
			if ev := f.reg.EventCounts(); ev["ctl.RB_BGN"] != 2 || ev["ctl.RB_CMT"] != 2 || f.rec.Len() != 5 {
				t.Fatalf("counters %v, %d trace events; want the round's 4 sends traced and no answer", ev, f.rec.Len())
			}
		}},
		{"a round nobody answers ends in an error naming the survivors", func(t *testing.T, f *fixture) {
			var err error
			f.h.Recover(7, func(_, _ int, e error) { err = e })
			f.sim.Run()
			if err == nil || !strings.Contains(err.Error(), "survivors [1 2] left RB_BGN unanswered") || f.sim.Now() < 20*des.Second {
				t.Fatalf("at %v: %v", f.sim.Now(), err)
			}
			if !f.h.Down() {
				t.Fatal("the process came up without a decision")
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
