package core

// White-box unit tests for the control-message state machine: the
// defensive branches (stale replies, duplicate suppression, impossible-
// case panics) that the engine-hosted scenario tests rarely reach.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
	"ocsml/internal/host/hosttest"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
)

// mount hosts a started protocol on a simulated driver, optionally
// tentative at csn 1.
func mount(t *testing.T, id, n int, opt Options, tentative bool) (*Protocol, *hosttest.Driver) {
	t.Helper()
	p := New(opt)
	env := hosttest.New(id, n, p)
	if tentative {
		p.Initiate()
		if p.Status() != Tentative || p.Csn() != 1 {
			t.Fatalf("setup: %v csn=%d", p.Status(), p.Csn())
		}
	}
	env.Sent = nil // discard setup traffic
	return p, env
}

func ctl(src int, tag string, csn int) *protocol.Envelope {
	return &protocol.Envelope{
		ID: 9999, Src: src, Kind: protocol.KindCtl, CtlTag: tag,
		Payload: CtlMsg{Csn: csn},
	}
}

func sentTags(env *hosttest.Driver) []string {
	var out []string
	for _, e := range env.Sent {
		out = append(out, e.CtlTag)
	}
	return out
}

// notes lists the checkpoint events env traced, "<kind> <seq>" in order.
func notes(env *hosttest.Driver) string {
	var out []string
	for _, ev := range env.Rec.Events() {
		switch ev.Kind {
		case trace.KTentative, trace.KFinalize, trace.KCheckpoint, trace.KForced:
			out = append(out, fmt.Sprintf("%s %d", ev.Kind, ev.Seq))
		}
	}
	return strings.Join(out, ",")
}

func TestStaleBGNGetsTargetedEND(t *testing.T) {
	// P2 finalized csn 1 long ago (csn now 1, normal). A stale CK_BGN
	// for csn 0 arrives: reply CK_END(0) directly to the sender.
	p, env := mount(t, 2, 4, Options{Timeout: des.Second}, true)
	// Finalize by learning everyone: simulate full tentSet.
	for i := 0; i < 4; i++ {
		p.tentSet.Add(i)
	}
	p.finalize()
	env.Sent = nil

	p.OnDeliver(ctl(3, TagBGN, 0))
	if env.Counter("ctl_stale") != 1 {
		t.Fatal("stale counter not bumped")
	}
	if len(env.Sent) != 1 || env.Sent[0].CtlTag != TagEND || env.Sent[0].Dst != 3 {
		t.Fatalf("expected targeted CK_END to P3, got %v", sentTags(env))
	}
	// Stale CK_END gets no reply.
	env.Sent = nil
	p.OnDeliver(ctl(3, TagEND, 0))
	if len(env.Sent) != 0 {
		t.Fatalf("stale CK_END must not be answered: %v", sentTags(env))
	}
}

func TestBGNAtFinalizedCoordinatorBroadcastsEND(t *testing.T) {
	p, env := mount(t, 0, 3, Options{Timeout: des.Second}, true)
	for i := 0; i < 3; i++ {
		p.tentSet.Add(i)
	}
	p.finalize()
	env.Sent = nil

	p.OnDeliver(ctl(2, TagBGN, 1))
	ends := 0
	for _, e := range env.Sent {
		if e.CtlTag == TagEND {
			ends++
		}
	}
	if ends != 2 {
		t.Fatalf("P0 should broadcast CK_END to 2 peers, sent %v", sentTags(env))
	}
	// Second BGN for the same csn: END already sent, stay silent.
	env.Sent = nil
	p.OnDeliver(ctl(1, TagBGN, 1))
	if len(env.Sent) != 0 {
		t.Fatalf("duplicate BGN must not rebroadcast: %v", sentTags(env))
	}
}

func TestREQAtFinalizedProcessForwardsToCoordinator(t *testing.T) {
	// §3.5.1 case 2 prose: a process that already finalized forwards the
	// request straight to P0.
	p, env := mount(t, 2, 5, Options{Timeout: des.Second, SkipREQ: true}, true)
	for i := 0; i < 5; i++ {
		p.tentSet.Add(i)
	}
	p.finalize()
	env.Sent = nil

	p.OnDeliver(ctl(1, TagREQ, 1))
	if len(env.Sent) != 1 || env.Sent[0].CtlTag != TagREQ || env.Sent[0].Dst != 0 {
		t.Fatalf("finalized process should forward REQ to P0: %v", env.Sent)
	}
}

func TestDuplicateREQSuppressed(t *testing.T) {
	p, env := mount(t, 2, 5, Options{Timeout: des.Second}, true)
	p.OnDeliver(ctl(1, TagREQ, 1))
	first := len(env.Sent)
	if first != 1 || env.Sent[0].CtlTag != TagREQ {
		t.Fatalf("expected one forwarded REQ, got %v", sentTags(env))
	}
	p.OnDeliver(ctl(0, TagREQ, 1))
	if len(env.Sent) != first {
		t.Fatalf("duplicate REQ must be suppressed: %v", sentTags(env))
	}
}

func TestENDNextCsnAtNormalFinalizesImmediately(t *testing.T) {
	// Deviation (i): CK_END(csn+1) at a normal process takes the
	// tentative checkpoint and finalizes at once.
	p, env := mount(t, 1, 3, Options{Timeout: des.Second}, false)
	p.OnDeliver(ctl(0, TagEND, 1))
	if p.Csn() != 1 || p.Status() != Normal {
		t.Fatalf("csn=%d status=%v", p.Csn(), p.Status())
	}
	if _, ok := env.Store().Get(1); !ok {
		t.Fatal("checkpoint 1 not finalized")
	}
}

func TestREQNextCsnJoinsAndForwards(t *testing.T) {
	p, env := mount(t, 1, 4, Options{Timeout: des.Second, SkipREQ: true}, false)
	p.OnDeliver(ctl(0, TagREQ, 1))
	if p.Csn() != 1 || p.Status() != Tentative {
		t.Fatalf("should join round 1: csn=%d %v", p.Csn(), p.Status())
	}
	if len(env.Sent) != 1 || env.Sent[0].CtlTag != TagREQ || env.Sent[0].Dst != 2 {
		t.Fatalf("should forward REQ to P2: %v", env.Sent)
	}
}

// TestControlCsnFarAhead: a control frame more than one initiation ahead
// (crash/restart races, version skew) must never crash the process —
// deviation (vi): drop it, count it, and let a lagging tentative process
// nudge P0 so the stale-handling path (deviation (ii)) walks it forward
// one round per exchange.
func TestControlCsnFarAhead(t *testing.T) {
	cases := []struct {
		name      string
		id        int
		tentative bool
		tag       string
		csn       int
		wantSent  []string // control tags sent in response
	}{
		{
			name: "normal process drops silently",
			id:   1, tentative: false, tag: TagEND, csn: 5,
			wantSent: nil,
		},
		{
			name: "tentative process nudges the coordinator",
			id:   1, tentative: true, tag: TagEND, csn: 7,
			wantSent: []string{TagBGN},
		},
		{
			name: "tentative coordinator never nudges itself",
			id:   0, tentative: true, tag: TagBGN, csn: 4,
			wantSent: nil,
		},
		{
			name: "ahead REQ dropped like any other tag",
			id:   2, tentative: false, tag: TagREQ, csn: 9,
			wantSent: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, env := mount(t, tc.id, 3, Options{Timeout: des.Second}, tc.tentative)
			wantCsn, wantStat := p.Csn(), p.Status()
			p.OnDeliver(ctl((tc.id+1)%3, tc.tag, tc.csn))
			if env.Counter("ctl_ahead_dropped") != 1 {
				t.Fatalf("ahead-drop counter = %d, want 1", env.Counter("ctl_ahead_dropped"))
			}
			if got := sentTags(env); !reflect.DeepEqual(got, tc.wantSent) {
				t.Fatalf("sent %v, want %v", got, tc.wantSent)
			}
			if len(tc.wantSent) > 0 && (env.Sent[0].Dst != 0 || env.Sent[0].Payload.(CtlMsg).Csn != wantCsn) {
				t.Fatalf("nudge %v, want CK_BGN(csn=%d) to P0", env.Sent[0], wantCsn)
			}
			if p.Csn() != wantCsn || p.Status() != wantStat {
				t.Fatalf("state moved to csn=%d %v, want csn=%d %v", p.Csn(), p.Status(), wantCsn, wantStat)
			}
			// The same frame again must not re-nudge (the round for this
			// csn is already initiated).
			env.Sent = nil
			p.OnDeliver(ctl((tc.id+1)%3, tc.tag, tc.csn))
			if env.Counter("ctl_ahead_dropped") != 2 {
				t.Fatalf("second drop not counted")
			}
			if len(env.Sent) != 0 {
				t.Fatalf("duplicate ahead frame re-nudged: %v", sentTags(env))
			}
		})
	}
}

// TestTakeTentativeWhileTentative drives every caller of takeTentative
// with the process already tentative at csn 1 and one send in its open
// log. Paper §3.4: a tentative process takes no new checkpoint, so an
// initiation is skipped and a join finalizes the current checkpoint
// first; none may reach takeTentative's panic.
func TestTakeTentativeWhileTentative(t *testing.T) {
	const skip, join = "tentative 1", "tentative 1,finalize 1,tentative 2"
	cases := []struct {
		name        string
		drive       func(p *Protocol)
		wantNotes   string
		wantTent    []int
		wantSkipped int64
	}{
		{name: "Initiate", drive: func(p *Protocol) { p.Initiate() },
			wantNotes: skip, wantTent: []int{1}},
		{name: "basic timer", drive: func(p *Protocol) { p.OnTimer(protocol.TimerBasic, 0) },
			wantNotes: skip, wantTent: []int{1}, wantSkipped: 1},
		{name: "control message for csn+1", drive: func(p *Protocol) { p.OnDeliver(ctl(0, TagREQ, 2)) },
			wantNotes: join, wantTent: []int{1}},
		{name: "piggyback (Tentative, csn+1), Fig. 3 case 2c", drive: func(p *Protocol) {
			from0 := protocol.NewProcSet(3)
			from0.Add(0)
			p.OnDeliver(&protocol.Envelope{ID: 8, Src: 0, Dst: 1, Kind: protocol.KindApp,
				Payload: Piggyback{Csn: 2, Stat: Tentative, TentSet: from0}})
		}, wantNotes: join, wantTent: []int{0, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, env := mount(t, 1, 3, Options{}, true)
			p.OnAppSend(&protocol.Envelope{ID: 7, Src: 1, Dst: 2, Kind: protocol.KindApp})
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				tc.drive(p)
			}()
			if got := notes(env); got != tc.wantNotes {
				t.Fatalf("checkpoint events %q, want %q", got, tc.wantNotes)
			}
			if p.Status() != Tentative || !reflect.DeepEqual(p.TentProcs(), tc.wantTent) {
				t.Fatalf("status %v tentSet %v, want tentative %v", p.Status(), p.TentProcs(), tc.wantTent)
			}
			if got := env.Counter("basic_skipped"); got != tc.wantSkipped {
				t.Fatalf("basic_skipped = %d, want %d", got, tc.wantSkipped)
			}
			if tc.wantNotes == skip {
				if p.Csn() != 1 || p.LogLen() != 1 {
					t.Fatalf("skipped initiation moved state: csn=%d open log=%d, want 1 and 1", p.Csn(), p.LogLen())
				}
				return
			}
			// The join closed checkpoint 1 with the log it had, before the
			// triggering message, and opened an empty one for csn 2.
			rec, ok := env.Store().Get(1)
			if !ok || len(rec.Log) != 1 || rec.Log[0].ID != 7 {
				t.Fatalf("finalized record 1 = %+v (found %v), want the one logged send", rec, ok)
			}
			if p.Csn() != 2 || p.LogLen() != 0 {
				t.Fatalf("after join csn=%d open log=%d, want 2 and 0", p.Csn(), p.LogLen())
			}
		})
	}
}

func TestForeignControlPayloadPanics(t *testing.T) {
	p, _ := mount(t, 1, 3, Options{Timeout: des.Second}, false)
	defer func() {
		if recover() == nil {
			t.Fatal("foreign payload should panic")
		}
	}()
	p.OnDeliver(&protocol.Envelope{Kind: protocol.KindCtl, CtlTag: "weird", Payload: 42})
}

func TestUnknownTagPanics(t *testing.T) {
	p, _ := mount(t, 1, 3, Options{Timeout: des.Second}, true)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown tag with valid payload should panic")
		}
	}()
	p.OnDeliver(ctl(0, "CK_WAT", 1))
}

func TestCoordinatorTimeoutStartsRound(t *testing.T) {
	p, env := mount(t, 0, 3, Options{Timeout: 100 * des.Millisecond}, true)
	env.Sim.Run() // fire the convergence timer
	if len(env.Sent) == 0 || env.Sent[0].CtlTag != TagREQ || env.Sent[0].Dst != 1 {
		t.Fatalf("P0 timeout should send CK_REQ to P1: %v", sentTags(env))
	}
	// A second expiry (re-armed manually) must not duplicate the round.
	env.Sent = nil
	p.onConvergeTimeout(p.convGen)
	if len(env.Sent) != 0 {
		t.Fatalf("duplicate round initiated: %v", sentTags(env))
	}
}

func TestTimeoutSuppressionAndEscalation(t *testing.T) {
	p, env := mount(t, 3, 5, Options{
		Timeout: 100 * des.Millisecond, SuppressBGN: true, EscalateBGN: true,
	}, true)
	p.tentSet.Add(1) // a lower-id process is known tentative
	p.onConvergeTimeout(p.convGen)
	if len(env.Sent) != 0 {
		t.Fatalf("first expiry should suppress: %v", sentTags(env))
	}
	if env.Counter("bgn_suppressed") != 1 {
		t.Fatal("suppression not counted")
	}
	// Escalation: the re-armed timer sends unconditionally.
	p.onConvergeTimeout(p.convGen)
	if len(env.Sent) != 1 || env.Sent[0].CtlTag != TagBGN || env.Sent[0].Dst != 0 {
		t.Fatalf("escalated expiry should send CK_BGN: %v", sentTags(env))
	}
}

func TestSendCtlToSelfPanics(t *testing.T) {
	p, _ := mount(t, 1, 3, Options{Timeout: des.Second}, false)
	defer func() {
		if recover() == nil {
			t.Fatal("self-send should panic")
		}
	}()
	p.sendCtl(1, TagBGN, 0)
}

func TestFactoryAndFinish(t *testing.T) {
	pf := Factory(DefaultOptions())
	p := pf(0, 2).(*Protocol)
	if p.Name() != "ocsml" {
		t.Fatal("factory product wrong")
	}
	p.Finish() // no-op, must not panic
}

func TestRollbackResetsState(t *testing.T) {
	p, _ := mount(t, 1, 3, Options{Timeout: des.Second, Interval: des.Second}, true)
	p.logSet = append(p.logSet, checkpoint.LoggedMsg{ID: 1})
	p.Rollback(0)
	if p.Status() != Normal || p.Csn() != 0 || p.LogLen() != 0 {
		t.Fatalf("rollback state wrong: %v csn=%d log=%d", p.Status(), p.Csn(), p.LogLen())
	}
	if !p.tentSet.Empty() {
		t.Fatal("tentSet not cleared")
	}
}

// TestFinalizeStoresRecordBeforeFlush: the TCP runtime's storage
// goroutine serves a finalization flush by persisting what the checkpoint
// store holds, so the record being flushed must be in the store by the
// time its write is issued. The driver completes a write before it
// returns, and the completion marks the record stable only if it finds it
// there.
func TestFinalizeStoresRecordBeforeFlush(t *testing.T) {
	for _, early := range []bool{false, true} {
		// early: the tentative checkpoint reaches storage first, so only
		// the "log" write remains; otherwise one combined "ct+log" write.
		p, env := mount(t, 1, 3, Options{EarlyFlush: early}, true)
		env.Sim.Run() // the early-flush poll, if any
		if p.tent.ctDone != early {
			t.Fatalf("early=%v: CT flushed %v", early, p.tent.ctDone)
		}
		p.finalize()
		if rec, ok := env.Store().Get(1); !ok || rec.StableAt == 0 {
			t.Fatalf("early=%v: checkpoint 1 in store %v, stable at %v: its flush completed", early, ok, rec.StableAt)
		}
	}
}

// TestControlMessageCancelsConvergenceTimer: §3.5.1 cancels a process's
// convergence timer when a control message for its current csn arrives.
// No driver can cancel a timer; the cancel is the generation the expiry
// carries. So P1, tentative at csn 1, forwards the round's CK_REQ to P2 and
// sends no CK_BGN when its timeout elapses.
func TestControlMessageCancelsConvergenceTimer(t *testing.T) {
	for _, tag := range []string{TagREQ, TagBGN} {
		t.Run(tag, func(t *testing.T) {
			p, env := mount(t, 1, 3, Options{Timeout: 100 * des.Millisecond}, true)
			p.OnDeliver(ctl(0, tag, 1))
			env.Sim.RunUntil(500 * des.Millisecond)
			bgn := 0
			for _, e := range env.Sent {
				if e.CtlTag == TagBGN {
					bgn++
				}
			}
			if bgn != 0 || len(env.Sent) == 0 || env.Sent[0].CtlTag != TagREQ || env.Sent[0].Dst != 2 {
				t.Fatalf("sent %v (%d CK_BGN), want CK_REQ to P2 and no CK_BGN", sentTags(env), bgn)
			}
		})
	}
}
