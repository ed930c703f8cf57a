package bcs

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

func appMsg(src, csn int) *protocol.Envelope {
	return &protocol.Envelope{
		ID: 42, Src: src, Dst: 1, Kind: protocol.KindApp,
		App:     protocol.AppMsg{Bytes: 10, Seq: 1, Tag: 5},
		Payload: piggyback{csn: csn},
	}
}

func TestForcedCheckpointBeforeProcessing(t *testing.T) {
	p, env := mount(1, 3)
	p.OnDeliver(appMsg(0, 2))
	if p.csn != 2 {
		t.Fatalf("csn = %d, want forced to 2", p.csn)
	}
	if env.Counter("forced") != 1 {
		t.Fatal("forced not counted")
	}
	// The skipped index 1 exists as an alias record.
	if env.Counter("alias") != 1 {
		t.Fatal("alias not counted")
	}
	for _, seq := range []int{0, 1, 2} {
		if _, ok := env.Store().Get(seq); !ok {
			t.Fatalf("index %d missing (aliases must fill gaps)", seq)
		}
	}
	if env.Delivered != 1 {
		t.Fatal("message must still be processed")
	}
	// Alias records carry no storage bytes.
	r1, _ := env.Store().Get(1)
	r2, _ := env.Store().Get(2)
	if r1.StateBytes != 0 || r2.StateBytes == 0 {
		t.Fatalf("alias/real bytes wrong: %d %d", r1.StateBytes, r2.StateBytes)
	}
}

func TestEqualOrLowerIndexDoesNotForce(t *testing.T) {
	p, env := mount(1, 3)
	p.OnDeliver(appMsg(0, 0))
	if p.csn != 0 || env.Counter("forced") != 0 {
		t.Fatalf("csn=%d forced=%d", p.csn, env.Counter("forced"))
	}
	if env.Delivered != 1 {
		t.Fatal("message must be processed")
	}
}

func TestPiggybackAttached(t *testing.T) {
	p, _ := mount(1, 3)
	p.csn = 3
	e := &protocol.Envelope{Src: 1, Dst: 2, Kind: protocol.KindApp, Bytes: 100}
	p.OnAppSend(e)
	pb, ok := e.Payload.(piggyback)
	if !ok || pb.csn != 3 {
		t.Fatalf("piggyback = %+v", e.Payload)
	}
	if e.Bytes != 100+piggyBytes {
		t.Fatalf("bytes = %d", e.Bytes)
	}
}

func TestNonIncreasingIndexPanics(t *testing.T) {
	p, _ := mount(1, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("checkpoint to same index should panic")
		}
	}()
	p.takeCheckpoint(0, 0, false)
}

func TestControlMessagePanics(t *testing.T) {
	p, _ := mount(1, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("BCS receives no control messages")
		}
	}()
	p.OnDeliver(&protocol.Envelope{Kind: protocol.KindCtl, CtlTag: "X"})
}
