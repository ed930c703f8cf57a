package wire

import (
	"errors"
	"testing"

	"ocsml/internal/protocol"
)

// TestPayloadRegistryComplete reads the payload registry out of the codec
// itself: every payload discriminator byte, behind a valid header, goes to
// the decoder, and the codes it does not refuse as unknown must be exactly
// the codes that encoding sampleEnvelopes() produces — stateless, and
// through a PeerEncoder that sends each sample twice, so a repeated
// piggyback takes its one-byte form, then once with a tentSet bit flipped,
// so it takes its delta form where that is shorter. A codec arm that no
// sample exercises fails here, and so does a sample whose payload the
// codec cannot encode.
func TestPayloadRegistryComplete(t *testing.T) {
	var lay layout
	header, err := appendHeader(nil, &protocol.Envelope{Src: 0, Dst: 1}, &lay)
	if err != nil {
		t.Fatal(err)
	}
	decoded := map[byte]bool{}
	for code := 0; code < 256; code++ {
		frame := append(header[:len(header):len(header)], byte(code))
		if _, err := Decode(frame); !errors.Is(err, ErrPayload) {
			decoded[byte(code)] = true
		}
	}

	produced := map[byte]bool{}
	var enc Encoder
	var pe PeerEncoder
	f := AcquireFrame()
	defer f.Release()
	for i, e := range sampleEnvelopes() {
		b, err := Encode(e)
		if err != nil {
			t.Fatalf("sample %d (%s): %v", i, PayloadKind(e.Payload), err)
		}
		h, _ := appendHeader(nil, e, &lay)
		produced[b[len(h)]] = true
		for _, e := range []*protocol.Envelope{e, e, flipped(e)} {
			if err := enc.EncodeFrame(f, e); err != nil {
				t.Fatal(err)
			}
			// Only a piggyback's block can change form on a connection;
			// AppendFrame reports its length, and it ends the frame.
			if b, pb := pe.AppendFrame(nil, f); pb > 0 {
				produced[b[len(b)-pb]] = true
			}
		}
	}

	for code := range decoded {
		if !produced[code] {
			t.Errorf("the decoder accepts payload code %d, but no sample envelope produces it: add one to sampleEnvelopes", code)
		}
	}
	for code := range produced {
		if !decoded[code] {
			t.Errorf("a sample envelope produces payload code %d, which the decoder refuses as unknown", code)
		}
	}
}

// TestCtlTagTable checks the control-tag code table: each tag fits the
// codec's bound, no two entries share a value (handlers dispatch on the
// string, and the decoder interns through the first match), and every
// index fits the header's tag field below the literal escape.
func TestCtlTagTable(t *testing.T) {
	if len(ctlTags) >= tagLiteral {
		t.Fatalf("%d control tags do not fit below the literal code %d", len(ctlTags), tagLiteral)
	}
	seen := map[string]int{}
	for i, tag := range ctlTags {
		if len(tag) > MaxCtlTag {
			t.Errorf("ctlTags[%d] = %q is %d bytes, over MaxCtlTag (%d)", i, tag, len(tag), MaxCtlTag)
		}
		if j, dup := seen[tag]; dup {
			t.Errorf("ctlTags[%d] and ctlTags[%d] are both %q", j, i, tag)
		}
		seen[tag] = i
	}
}
