package nop

import (
	"testing"

	"ocsml/internal/host/hosttest"
	"ocsml/internal/protocol"
)

func TestNopIsTransparent(t *testing.T) {
	p := Factory()(0, 2)
	env := hosttest.New(0, 2, p)
	if p.Name() != "none" {
		t.Fatalf("Name = %q", p.Name())
	}
	e := &protocol.Envelope{Src: 0, Dst: 1, Kind: protocol.KindApp, Bytes: 10}
	p.OnAppSend(e)
	if e.Payload != nil || e.Bytes != 10 {
		t.Fatal("nop must not touch envelopes")
	}
	p.OnDeliver(&protocol.Envelope{ID: 1, Src: 1, Dst: 0, Kind: protocol.KindApp})
	if env.Delivered != 1 {
		t.Fatal("app message not passed through")
	}
	p.OnDeliver(&protocol.Envelope{ID: 2, Src: 1, Dst: 0, Kind: protocol.KindCtl})
	if env.Delivered != 1 {
		t.Fatal("control message must not reach the app")
	}
	p.OnTimer(0, 0)
	p.Finish()
	if len(env.Sent) != 0 || env.Store().Len() != 0 {
		t.Fatal("nop produced output")
	}
}
