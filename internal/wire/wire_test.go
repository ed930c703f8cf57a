package wire

import (
	"reflect"
	"testing"

	"ocsml/internal/core"
	"ocsml/internal/protocol"
	"ocsml/internal/reliable"
)

// sampleEnvelopes covers every envelope shape the in-tree protocols emit.
func sampleEnvelopes() []*protocol.Envelope {
	set4 := protocol.NewProcSet(4)
	set4.Add(0)
	set4.Add(2)
	full9 := protocol.NewProcSet(9)
	for i := 0; i < 9; i++ {
		full9.Add(i)
	}
	return []*protocol.Envelope{
		{ // application message with OCSML piggyback
			ID: 42, Src: 1, Dst: 3, Kind: protocol.KindApp,
			Bytes: 2048 + 6, SentAt: 123456789, Epoch: 2,
			App:     protocol.AppMsg{Seq: 7, Bytes: 2048, Tag: 0xdeadbeefcafe},
			Payload: core.Piggyback{Csn: 5, Stat: core.Tentative, TentSet: set4},
		},
		{ // piggyback with a non-multiple-of-8 universe
			ID: 1, Src: 8, Dst: 0, Kind: protocol.KindApp,
			App:     protocol.AppMsg{Seq: 1, Bytes: 1, Tag: 1},
			Payload: core.Piggyback{Csn: 0, Stat: core.Normal, TentSet: full9},
		},
		{ // control message
			ID: 99, Src: 2, Dst: 0, Kind: protocol.KindCtl, CtlTag: core.TagBGN,
			Bytes: 8, SentAt: 1, Payload: core.CtlMsg{Csn: 3},
		},
		{ // standalone transport acknowledgement: a link block, no payload
			ID: 7, Src: 0, Dst: 1, Kind: protocol.KindCtl, CtlTag: reliable.AckTag,
			Bytes: 12, Link: protocol.Link{Ack: 1 << 40, Mask: 1<<63 | 5},
		},
		{ // bare envelope, no payload, tracked by the reliable layer
			ID: 3, Src: 0, Dst: 1, Kind: protocol.KindApp,
			App:  protocol.AppMsg{Seq: 2, Bytes: 64, Tag: 9},
			Link: protocol.Link{Seq: 17, Ack: 4},
		},
		{ // recovery line report with a manifest
			ID: 11, Src: 3, Dst: 1, Kind: protocol.KindCtl, CtlTag: protocol.TagRbLine,
			Bytes: 16, SentAt: 77, Epoch: 1,
			Payload: protocol.RbMsg{Round: 1234567, Line: 0, Epoch: 2, Seqs: []int{1, 2, 3, 5}},
		},
		{ // recovery commit, empty manifest
			ID: 12, Src: 1, Dst: 0, Kind: protocol.KindCtl, CtlTag: protocol.TagRbCommit,
			Payload: protocol.RbMsg{Round: -9, Line: 4, Epoch: 3},
		},
	}
}

// onWire is what a Decoder of the connection src -> dst returns for e: e
// with the connection's two ends, and without the simulator fields a frame
// does not carry.
func onWire(e *protocol.Envelope, src, dst int) *protocol.Envelope {
	c := *e
	c.Src, c.Dst, c.Bytes, c.SentAt = src, dst, 0, 0
	return &c
}

// TestRoundTrip: every sample decodes to its projection, statelessly
// (whose connection is 0 -> 0) and through the Decoder of the connection
// it travels on.
func TestRoundTrip(t *testing.T) {
	for i, e := range sampleEnvelopes() {
		b, err := Encode(e)
		if err != nil {
			t.Fatalf("envelope %d: encode: %v", i, err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("envelope %d: decode: %v", i, err)
		}
		if want := onWire(e, 0, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("envelope %d round trip mismatch:\n got %#v\nwant %#v", i, got, want)
		}
		got, err = NewDecoder(e.Src, e.Dst).DecodeOwned(b)
		if err != nil {
			t.Fatalf("envelope %d: connection decode: %v", i, err)
		}
		if want := onWire(e, e.Src, e.Dst); !reflect.DeepEqual(got, want) {
			t.Fatalf("envelope %d connection round trip mismatch:\n got %#v\nwant %#v", i, got, want)
		}
	}
}

func TestSizeAccounting(t *testing.T) {
	for i, e := range sampleEnvelopes() {
		b, err := Encode(e)
		if err != nil {
			t.Fatal(err)
		}
		n := len(b)
		p, err := PayloadSize(e)
		if err != nil {
			t.Fatal(err)
		}
		if p < 1 || p > n {
			t.Fatalf("envelope %d: payload size %d outside frame size %d", i, p, n)
		}
		// Stripping the payload must shrink the frame by exactly the
		// payload body (both keep a 1-byte discriminator).
		bare := *e
		bare.Payload = nil
		bb, err := Encode(&bare)
		if err != nil {
			t.Fatal(err)
		}
		if bn := len(bb); n-bn != p-1 {
			t.Fatalf("envelope %d: payload accounting off: full=%d bare=%d payload=%d", i, n, bn, p)
		}
	}
}

func TestPiggybackRealBytes(t *testing.T) {
	// The simulator charges piggyFixedBytes + tentSet.ByteSize() synthetic
	// bytes per piggyback: a fixed-width csn (4) + stat (1) + ceil(N/8)
	// bitmap bytes — 7 for N=16. The real v1 block trades the fixed csn
	// for a varint but adds a discriminator and a universe uvarint the
	// simulator omits, so it lands in the same ballpark. On a live
	// connection the v2 delta rewrite usually undercuts both with an
	// O(changed bits) block; see delta_test.go.
	set := protocol.NewProcSet(16)
	set.Add(0)
	set.Add(15)
	e := &protocol.Envelope{
		ID: 1, Src: 0, Dst: 1, Kind: protocol.KindApp,
		App:     protocol.AppMsg{Seq: 1, Bytes: 1024, Tag: 5},
		Payload: core.Piggyback{Csn: 12, Stat: core.Tentative, TentSet: set},
	}
	p, err := PayloadSize(e)
	if err != nil {
		t.Fatal(err)
	}
	// 1 discriminator + 1 csn varint + 1 stat + 1 universe uvarint +
	// ceil(16/8) = 2 bitmap bytes: 6 bytes total.
	if p != 6 {
		t.Fatalf("piggyback payload size = %d, want 6", p)
	}
}

func TestDecodeErrors(t *testing.T) {
	valid, err := Encode(sampleEnvelopes()[0])
	if err != nil {
		t.Fatal(err)
	}
	// A frame is the header byte, the epoch, the ID, then the payload
	// block when neither the App nor the link block is flagged.
	cases := map[string][]byte{
		"empty":              {},
		"bad tag code":       {byte(len(ctlTags)) << tagShift, 0, 0, 0},
		"stream frame":       {flagStream, 0, 0, 0},
		"truncated":          valid[:len(valid)/2],
		"trailing":           append(append([]byte{}, valid...), 0),
		"bad payload":        {0, 2, 4, 250},
		"only header byte":   {0},
		"unchanged, no base": {0, 0, 0, ptPiggybackSame},
	}
	for name, in := range cases {
		if _, err := Decode(in); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

func TestOversizedCtlTagRejected(t *testing.T) {
	e := sampleEnvelopes()[2]
	e.CtlTag = string(make([]byte, MaxCtlTag+1))
	if _, err := Encode(e); err == nil {
		t.Fatal("encode accepted oversized control tag")
	}
}

func TestForeignPayloadRejected(t *testing.T) {
	e := &protocol.Envelope{Src: 0, Dst: 1, Payload: struct{ X int }{1}}
	if _, err := Encode(e); err == nil {
		t.Fatal("encode accepted unregistered payload type")
	}
}
