package uncoord

import (
	"testing"

	"ocsml/internal/des"
	"ocsml/internal/host/hosttest"
	"ocsml/internal/protocol"
)

func TestIndependentCheckpoints(t *testing.T) {
	p := New(Options{Interval: des.Second})
	env := hosttest.New(1, 3, p)

	// The first timer fires at a random phase; run two periods.
	env.Sim.RunUntil(3 * des.Second)
	if p.seq < 2 {
		t.Fatalf("seq = %d after 3s at 1s interval", p.seq)
	}
	if env.Store().MaxSeq() != p.seq {
		t.Fatalf("store max %d != seq %d", env.Store().MaxSeq(), p.seq)
	}
	// Every record became stable (synchronous fake writes).
	for seq := 1; seq <= p.seq; seq++ {
		r, ok := env.Store().Get(seq)
		if !ok || r.StableAt == 0 {
			t.Fatalf("seq %d missing or unstable", seq)
		}
	}
	if len(env.Sent) != 0 {
		t.Fatalf("uncoordinated protocol sent %d messages", len(env.Sent))
	}
}

func TestNoPiggybackAndPassThrough(t *testing.T) {
	p := New(Options{})
	env := hosttest.New(1, 3, p)

	e := &protocol.Envelope{Src: 1, Dst: 2, Kind: protocol.KindApp, Bytes: 50}
	p.OnAppSend(e)
	if e.Payload != nil || e.Bytes != 50 {
		t.Fatalf("uncoordinated must not piggyback: %+v", e)
	}
	p.OnDeliver(&protocol.Envelope{ID: 1, Src: 0, Dst: 1, Kind: protocol.KindApp})
	if env.Delivered != 1 {
		t.Fatal("message not delivered")
	}
}
