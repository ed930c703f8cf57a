package wire

import (
	"reflect"
	"testing"
)

// FuzzWireRoundTrip mirrors internal/trace/fuzz_test.go for the binary
// envelope codec: arbitrary input — including truncated and corrupt
// frames — must never panic, and whatever decodes must survive an
// encode/decode cycle unchanged (the codec is canonical).
func FuzzWireRoundTrip(f *testing.F) {
	for _, e := range sampleEnvelopes() {
		b, err := Encode(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		if len(b) > 3 {
			f.Add(b[:len(b)-3]) // truncated frame
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0, 0, 0, ptPiggyback})

	f.Fuzz(func(t *testing.T, raw []byte) {
		e, err := Decode(raw)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		out, err := Encode(e)
		if err != nil {
			t.Fatalf("re-encode of decoded envelope failed: %v (%#v)", err, e)
		}
		again, err := Decode(out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(e, again) {
			t.Fatalf("round trip changed envelope:\n got %#v\nwant %#v", again, e)
		}
	})
}

// FuzzRecordRoundTrip is FuzzWireRoundTrip for the checkpoint-record
// codec: arbitrary input never panics, and whatever decodes survives an
// encode/decode cycle unchanged.
func FuzzRecordRoundTrip(f *testing.F) {
	for _, b := range recordCorpusEntries() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		rec, err := DecodeRecord(raw)
		if err != nil {
			return
		}
		again, err := DecodeRecord(AppendRecord(nil, &rec))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(rec, again) {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", again, rec)
		}
	})
}

// FuzzDecodeV2 is the stream fuzzer of the format: an arbitrary frame
// sequence, each frame behind its uvarint length as on a connection,
// through one stateful Decoder — stream frames, stateless frames, deltas
// and unchanged piggybacks with and without their base, and garbage.
// Nothing panics; the view decoder and an owned decoder fed the same
// frames agree on every frame; whatever decodes is from the connection's
// source to its destination and canonicalizes: a stateless re-encode of
// the owned envelope round-trips.
func FuzzDecodeV2(f *testing.F) {
	for _, s := range corpusEntriesV2(f) {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, stream []byte) {
		viewDec, ownDec := NewDecoder(2, 3), NewDecoder(2, 3)
		for i, frame := range splitStream(stream) {
			v, err := viewDec.Decode(frame)
			e, errOwned := ownDec.DecodeOwned(frame)
			if (err == nil) != (errOwned == nil) {
				t.Fatalf("frame %d: Decode err=%v but DecodeOwned err=%v", i, err, errOwned)
			}
			if err != nil {
				continue
			}
			if e.Src != 2 || e.Dst != 3 {
				t.Fatalf("frame %d: decoded %d -> %d on the connection 2 -> 3", i, e.Src, e.Dst)
			}
			if got := v.Owned(); !reflect.DeepEqual(got, e) {
				t.Fatalf("frame %d: view and owned decodes disagree:\n view %#v\nowned %#v", i, got, e)
			}
			out, err := Encode(e)
			if err != nil {
				t.Fatalf("frame %d: re-encode of decoded envelope failed: %v (%#v)", i, err, e)
			}
			again, err := Decode(out)
			if err != nil {
				t.Fatalf("frame %d: re-decode failed: %v", i, err)
			}
			if want := onWire(e, 0, 0); !reflect.DeepEqual(again, want) {
				t.Fatalf("frame %d: round trip changed envelope:\n got %#v\nwant %#v", i, again, want)
			}
		}
	})
}
