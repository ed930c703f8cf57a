package staggered

import (
	"testing"

	"ocsml/internal/host/hosttest"
	"ocsml/internal/protocol"
)

func mount(id, n int) (*Protocol, *hosttest.Driver) {
	p := New(Options{})
	env := hosttest.New(id, n, p)
	env.Sent = nil
	return p, env
}

func cm(src int, tag string, round int) *protocol.Envelope {
	return &protocol.Envelope{
		ID: 88, Src: src, Kind: protocol.KindCtl, CtlTag: tag,
		Payload: ctl{round: round},
	}
}

func TestMarkCutThenTokenWrite(t *testing.T) {
	p, env := mount(1, 3)
	p.OnDeliver(cm(0, tagMark, 1))
	if !p.recording {
		t.Fatal("first mark should start recording")
	}
	p.OnDeliver(cm(2, tagMark, 1))
	if p.recording {
		t.Fatal("cut should be complete")
	}
	if _, ok := env.Store().Get(1); !ok {
		t.Fatal("record missing after cut")
	}
	// No physical write yet — it waits for the token.
	if p.written {
		t.Fatal("write must wait for the token")
	}
	p.OnDeliver(cm(0, tagToken, 1))
	if !p.written {
		t.Fatal("token should trigger the physical write")
	}
	// Synchronous fake write: the token moves to P2.
	last := env.Sent[len(env.Sent)-1]
	if last.CtlTag != tagToken || last.Dst != 2 {
		t.Fatalf("token should pass to P2: %+v", last)
	}
	rec, _ := env.Store().Get(1)
	if rec.StableAt == 0 {
		t.Fatal("record should be stable after write + cut")
	}
}

func TestLastProcessReturnsTokenToCoordinator(t *testing.T) {
	p, env := mount(2, 3) // highest id
	p.OnDeliver(cm(0, tagMark, 1))
	p.OnDeliver(cm(1, tagMark, 1))
	p.OnDeliver(cm(1, tagToken, 1))
	last := env.Sent[len(env.Sent)-1]
	if last.CtlTag != tagToken || last.Dst != 0 {
		t.Fatalf("token should return to P0: %+v", last)
	}
}

func TestWrongRoundTokenPanics(t *testing.T) {
	p, _ := mount(1, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("token for a foreign round should panic")
		}
	}()
	p.OnDeliver(cm(0, tagToken, 5))
}

func TestDuplicateMarkPanics(t *testing.T) {
	p, _ := mount(1, 3)
	p.OnDeliver(cm(0, tagMark, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate mark should panic")
		}
	}()
	p.OnDeliver(cm(0, tagMark, 1))
}
