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
	f.Add([]byte{VersionLatest})
	f.Add([]byte{VersionLatest, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})

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

// FuzzDecodeV2 drives the stateful decoder with an arbitrary (base,
// frame) pair: the base may or may not establish a delta base, the frame
// may be absolute, a delta, or garbage. Nothing panics; whatever decodes
// must canonicalize — the zero-copy view, the owned copy, and a
// stateless re-encode of the owned copy all agree — and carries the one
// supported version byte.
func FuzzDecodeV2(f *testing.F) {
	for _, p := range corpusEntriesV2(f) {
		f.Add(p[0], p[1])
	}

	f.Fuzz(func(t *testing.T, base, frame []byte) {
		dec := new(Decoder)
		dec.Decode(base) // errors are fine; it may seed a delta base
		view, err := dec.Decode(frame)

		// The owned decode over an identical chain must agree exactly.
		own := new(Decoder)
		own.Decode(base)
		owned, errOwned := own.DecodeOwned(frame)
		if (err == nil) != (errOwned == nil) {
			t.Fatalf("Decode err=%v but DecodeOwned err=%v", err, errOwned)
		}
		if err == nil {
			bare := *view
			bare.Payload = nil
			bareOwned := *owned
			bareOwned.Payload = nil
			if !reflect.DeepEqual(bare, bareOwned) {
				t.Fatalf("view and owned headers disagree:\n view %#v\nowned %#v", bare, bareOwned)
			}
			// The owned envelope is canonical: a re-encode round-trips.
			out, err := Encode(owned)
			if err != nil {
				t.Fatalf("re-encode of decoded envelope failed: %v (%#v)", err, owned)
			}
			again, err := Decode(out)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !reflect.DeepEqual(owned, again) {
				t.Fatalf("round trip changed envelope:\n got %#v\nwant %#v", again, owned)
			}
		}

		if err == nil && frame[0] != VersionLatest {
			t.Fatalf("decoder accepted a frame with version byte %d", frame[0])
		}
	})
}
