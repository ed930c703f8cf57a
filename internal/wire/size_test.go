package wire

import (
	"math/rand"
	"reflect"
	"testing"

	"ocsml/internal/core"
	"ocsml/internal/des"
	"ocsml/internal/protocol"
)

// randomEnvelope draws an arbitrary valid envelope: every payload kind
// the in-tree protocols emit, random endpoints, tags and counters.
func randomEnvelope(rng *rand.Rand) *protocol.Envelope {
	e := &protocol.Envelope{
		ID:     rng.Int63() - rng.Int63(), // spans negative ids too
		Src:    rng.Intn(64),
		Dst:    rng.Intn(64),
		Bytes:  rng.Int63n(1 << 30),
		SentAt: des.Time(rng.Int63n(1<<40) - 1<<39),
		Epoch:  rng.Intn(1 << 10),
	}
	if rng.Intn(2) == 0 {
		e.Kind = protocol.KindApp
		e.App = protocol.AppMsg{
			Seq:   rng.Int63n(1 << 30),
			Bytes: rng.Int63n(1 << 20),
			Tag:   rng.Uint64(),
		}
	} else {
		e.Kind = protocol.KindCtl
		tag := make([]byte, rng.Intn(MaxCtlTag+1))
		for i := range tag {
			tag[i] = byte('a' + rng.Intn(26))
		}
		e.CtlTag = string(tag)
	}
	switch rng.Intn(4) {
	case 0: // no payload
	case 1:
		universe := 2 + rng.Intn(63)
		set := protocol.NewProcSet(universe)
		for i := 0; i < universe; i++ {
			if rng.Intn(3) == 0 {
				set.Add(i)
			}
		}
		e.Payload = core.Piggyback{
			Csn:     rng.Intn(1 << 20),
			Stat:    core.Status(rng.Intn(int(core.Tentative) + 1)),
			TentSet: set,
		}
	case 2:
		e.Payload = core.CtlMsg{Csn: rng.Intn(1 << 20)}
	case 3:
		e.Link = protocol.Link{Ack: rng.Int63n(maxLinkSeq + 1)}
		if rng.Intn(2) == 0 {
			e.Link.Seq = 1 + rng.Int63n(maxLinkSeq)
		}
		if rng.Intn(2) == 0 {
			e.Link.Mask = rng.Uint64()
		}
	}
	return e
}

// TestEncodedSizePropertyRandomized is the stateless size property: for
// randomized envelopes, PayloadSize must account exactly for the payload
// suffix of what Encode produces, and the round trip must lose nothing but
// what a frame does not carry (onWire). The
// stream extension of this property — PeerEncoder.EncodedSize against
// AppendFrame over one connection's frames, reconnects included — is
// TestDeltaChainMatchesAbsolute and TestStreamChainMatchesAbsolute in
// delta_test.go.
func TestEncodedSizePropertyRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	for i := 0; i < 5000; i++ {
		e := randomEnvelope(rng)
		b, err := Encode(e)
		if err != nil {
			t.Fatalf("case %d: encode: %v (%#v)", i, err, e)
		}
		size := len(b)
		psize, err := PayloadSize(e)
		if err != nil {
			t.Fatalf("case %d: PayloadSize: %v", i, err)
		}
		if psize < 1 || psize > size {
			t.Fatalf("case %d: PayloadSize = %d outside (0, %d]", i, psize, size)
		}
		// The payload block is the frame's suffix: encoding the same
		// envelope payload-free must shave off exactly psize-1 bytes
		// (the empty payload still costs its discriminator byte).
		bare := *e
		bare.Payload = nil
		bareBytes, err := Encode(&bare)
		if err != nil {
			t.Fatalf("case %d: bare encode: %v", i, err)
		}
		if bareSize := len(bareBytes); bareSize != size-psize+1 {
			t.Fatalf("case %d: payload accounting off: total %d, payload %d, bare %d", i, size, psize, bareSize)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if want := onWire(e, 0, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: round trip changed envelope:\n got %#v\nwant %#v", i, got, want)
		}
	}
}

// TestEncodedSizeAppendMatches: Append onto a non-empty buffer adds
// exactly the bytes Encode produces and leaves the prefix alone.
func TestEncodedSizeAppendMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	prefix := []byte{0xde, 0xad, 0xbe, 0xef}
	for i := 0; i < 500; i++ {
		e := randomEnvelope(rng)
		buf := append([]byte(nil), prefix...)
		buf, err := Append(buf, e)
		if err != nil {
			t.Fatalf("case %d: append: %v", i, err)
		}
		b, err := Encode(e)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != len(prefix)+len(b) {
			t.Fatalf("case %d: appended %d bytes, Encode produces %d", i, len(buf)-len(prefix), len(b))
		}
		if got, err := Decode(buf[len(prefix):]); err != nil || !reflect.DeepEqual(got, onWire(e, 0, 0)) {
			t.Fatalf("case %d: suffix does not decode back: %v", i, err)
		}
	}
}

// TestSteadyUniformFrameSize pins what a steady-uniform message costs on
// the wire at N = 4 with the reliable layer on: an app frame with a link
// block (seq +1, floor +1), 256 B declared, ID +4 and App.Seq +1 against
// the connection's previous frame, an App.Tag the size of a send time
// twelve seconds into a run, and the piggyback of the previous frame. The
// unchanged piggyback costs exactly one payload byte, and the whole frame
// at most 15 B before its length prefix.
func TestSteadyUniformFrameSize(t *testing.T) {
	set := protocol.NewProcSet(4)
	set.Add(1)
	msg := func(id, seq, floor int64, now des.Time) *protocol.Envelope {
		return &protocol.Envelope{
			ID: 1<<40 | id, Src: 0, Dst: 1, Kind: protocol.KindApp, Bytes: 256 + 6, SentAt: now,
			App:     protocol.AppMsg{Seq: seq, Bytes: 256, Tag: uint64(now)},
			Link:    protocol.Link{Seq: seq, Ack: floor},
			Payload: core.Piggyback{Csn: 40, Stat: core.Tentative, TentSet: set.Clone()},
		}
	}
	first, next := msg(100, 20, 17, 12e9), msg(104, 21, 18, 12e9+3e6)
	var enc Encoder
	var pe PeerEncoder
	dec := NewDecoder(0, 1)
	f := AcquireFrame()
	defer f.Release()
	var frame []byte
	var pbLen int
	for _, e := range []*protocol.Envelope{first, next} {
		if err := enc.EncodeFrame(f, e); err != nil {
			t.Fatal(err)
		}
		frame, pbLen = pe.AppendFrame(nil, f)
		got, err := dec.DecodeOwned(frame)
		if err != nil {
			t.Fatal(err)
		}
		if want := onWire(e, 0, 1); !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %#v, want %#v", got, want)
		}
	}
	t.Logf("steady-uniform app frame: %d B, piggyback %d B", len(frame), pbLen)
	if pbLen != 1 {
		t.Errorf("unchanged piggyback costs %d B, want 1", pbLen)
	}
	if len(frame) > 15 {
		t.Errorf("steady-uniform app frame is %d B, want <= 15", len(frame))
	}
}
