package chandylamport

import (
	"testing"

	"ocsml/internal/host/hosttest"
	"ocsml/internal/protocol"
)

func mount(id, n int) (*Protocol, *hosttest.Driver) {
	p := New(Options{Interval: 0}) // constructor defaults the interval
	env := hosttest.New(id, n, p)
	env.Sent = nil
	return p, env
}

func mark(src, round int) *protocol.Envelope {
	return &protocol.Envelope{
		ID: 777, Src: src, Kind: protocol.KindCtl, CtlTag: tagMarker,
		Payload: marker{round: round},
	}
}

func TestFirstMarkerRecordsAndFloods(t *testing.T) {
	p, env := mount(1, 3)
	p.OnDeliver(mark(0, 1))
	if !p.recording || p.round != 1 {
		t.Fatalf("recording=%v round=%d", p.recording, p.round)
	}
	markers := 0
	for _, e := range env.Sent {
		if e.CtlTag == tagMarker {
			markers++
		}
	}
	if markers != 2 {
		t.Fatalf("flooded %d markers, want 2", markers)
	}
	// Second (and last) channel's marker completes the round.
	p.OnDeliver(mark(2, 1))
	if p.recording {
		t.Fatal("round should be complete")
	}
	if _, ok := env.Store().Get(1); !ok {
		t.Fatal("checkpoint 1 not stored")
	}
}

func TestChannelStateCapturedBetweenRecordAndMarker(t *testing.T) {
	p, env := mount(1, 3)
	p.OnDeliver(mark(0, 1))
	// App message from P2 BEFORE P2's marker: channel state.
	p.OnDeliver(&protocol.Envelope{ID: 5, Src: 2, Dst: 1, Kind: protocol.KindApp,
		App: protocol.AppMsg{Bytes: 100, Seq: 1, Tag: 9}})
	// App message from P0 AFTER P0's marker: not recorded.
	p.OnDeliver(&protocol.Envelope{ID: 6, Src: 0, Dst: 1, Kind: protocol.KindApp,
		App: protocol.AppMsg{Bytes: 100, Seq: 2, Tag: 10}})
	p.OnDeliver(mark(2, 1))
	rec, _ := env.Store().Get(1)
	if len(rec.Log) != 1 || rec.Log[0].ID != 5 {
		t.Fatalf("channel state = %+v, want exactly msg 5", rec.Log)
	}
	if env.Delivered != 2 {
		t.Fatalf("both app messages must still be delivered: %d", env.Delivered)
	}
}

func TestDuplicateMarkerPanics(t *testing.T) {
	p, _ := mount(1, 3)
	p.OnDeliver(mark(0, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate marker should panic")
		}
	}()
	p.OnDeliver(mark(0, 1))
}

func TestStaleMarkerPanics(t *testing.T) {
	p, _ := mount(1, 3)
	p.OnDeliver(mark(0, 1))
	p.OnDeliver(mark(2, 1)) // round complete
	defer func() {
		if recover() == nil {
			t.Fatal("stale marker should panic")
		}
	}()
	p.OnDeliver(mark(0, 1))
}

func TestOverlappingRoundPanics(t *testing.T) {
	p, _ := mount(1, 3)
	p.OnDeliver(mark(0, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("marker two rounds ahead should panic")
		}
	}()
	p.OnDeliver(mark(2, 3))
}
