package kootoueg

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
		ID: 77, Src: src, Kind: protocol.KindCtl, CtlTag: tag,
		Payload: ctl{round: round},
	}
}

func TestTwoPhaseParticipant(t *testing.T) {
	p, env := mount(2, 3)
	p.OnDeliver(cm(0, tagReq, 1))
	if !p.blocked || p.round != 1 {
		t.Fatalf("blocked=%v round=%d", p.blocked, p.round)
	}
	if len(env.Sent) != 1 || env.Sent[0].CtlTag != tagAck || env.Sent[0].Dst != 0 {
		t.Fatalf("expected ACK to P0: %+v", env.Sent)
	}
	p.OnDeliver(cm(0, tagCommit, 1))
	if p.blocked {
		t.Fatal("commit (with synchronous write) should unblock")
	}
	if _, ok := env.Store().Get(1); !ok {
		t.Fatal("checkpoint 1 not stored")
	}
	// The participant reports completion to the coordinator.
	if env.Sent[len(env.Sent)-1].CtlTag != tagDone {
		t.Fatalf("expected DONE, got %+v", env.Sent)
	}
}

func TestWrongRoundREQPanics(t *testing.T) {
	p, _ := mount(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("REQ two rounds ahead should panic")
		}
	}()
	p.OnDeliver(cm(0, tagReq, 2))
}

func TestAckAtNonCoordinatorPanics(t *testing.T) {
	p, _ := mount(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("ACK at non-coordinator should panic")
		}
	}()
	p.OnDeliver(cm(1, tagAck, 0))
}

func TestDoneAtNonCoordinatorPanics(t *testing.T) {
	p, _ := mount(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("DONE at non-coordinator should panic")
		}
	}()
	p.OnDeliver(cm(1, tagDone, 0))
}

func TestCommitInWrongStatePanics(t *testing.T) {
	p, _ := mount(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("COMMIT while unblocked should panic")
		}
	}()
	p.OnDeliver(cm(0, tagCommit, 1))
}
