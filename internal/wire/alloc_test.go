package wire

import (
	"bytes"
	"fmt"
	"testing"

	"ocsml/internal/core"
	"ocsml/internal/protocol"
	"ocsml/internal/reliable"
)

// allocsPerRun asserts a steady-state allocation bound. The exact-zero
// assertions are skipped under the race detector, whose instrumentation
// allocates.
func allocsPerRun(t *testing.T, what string, max float64, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skipf("allocation accounting is not meaningful under -race")
	}
	fn() // warm pools and grow scratch buffers before measuring
	if n := testing.AllocsPerRun(200, fn); n > max {
		t.Errorf("%s: %.1f allocs/op, want <= %.0f", what, n, max)
	}
}

// TestEveryPayloadZeroAlloc is the message path's allocation gate. For
// every envelope shape the protocols emit (sampleEnvelopes, which
// TestPayloadRegistryComplete keeps at one per payload arm of the codec
// or more) and every record shape fsstore persists, each steady-state call
// performs zero allocations: the encode into a pooled frame, the
// per-connection rewrite on its delta path and its full path, the size
// dry run, the decode of a stateless and of a stream frame, and the
// record append. A payload arm that allocates fails on its own row.
//
// Every piggyback row comes twice: as the value and as the *core.Piggyback
// snapshot a sender attaches, whose stateless bytes must be the value's.
func TestEveryPayloadZeroAlloc(t *testing.T) {
	set := protocol.NewProcSet(64)
	set.Add(5)
	wide := set.Clone()
	wide.Add(41)
	envs := append(sampleEnvelopes(),
		pbEnvelope(1, 0, core.Piggyback{Csn: 12, Stat: core.Tentative, TentSet: set}),
		pbEnvelope(1, 0, core.Piggyback{Csn: 12, Stat: core.Tentative, TentSet: wide}))
	for _, e := range envs {
		if pb, ok := e.Payload.(core.Piggyback); ok {
			ptr := *e
			ptr.Payload = &pb
			want, _ := Encode(e)
			if got, err := Encode(&ptr); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Encode of *core.Piggyback = %x, %v; the value form encodes %x", got, err, want)
			}
			envs = append(envs, &ptr)
		}
	}
	for i, e := range envs {
		t.Run(fmt.Sprintf("%d_%s", i, PayloadKind(e.Payload)), func(t *testing.T) {
			var enc Encoder
			var pe PeerEncoder
			f := AcquireFrame()
			defer f.Release()
			allocsPerRun(t, "Encoder.EncodeFrame", 0, func() {
				if err := enc.EncodeFrame(f, e); err != nil {
					t.Fatal(err)
				}
			})
			// g differs from f in one tentSet bit when e carries a
			// piggyback, so alternating the two runs the delta path with a
			// flip to code; for any other payload g repeats f.
			g := AcquireFrame()
			defer g.Release()
			if err := enc.EncodeFrame(g, flipped(e)); err != nil {
				t.Fatal(err)
			}
			var wbuf []byte
			allocsPerRun(t, "PeerEncoder.AppendFrame(delta)", 0, func() {
				wbuf, _ = pe.AppendFrame(wbuf[:0], f)
				wbuf, _ = pe.AppendFrame(wbuf[:0], g)
			})
			allocsPerRun(t, "PeerEncoder.AppendFrame(full)", 0, func() {
				pe.Reset()
				wbuf, _ = pe.AppendFrame(wbuf[:0], f)
			})
			allocsPerRun(t, "PeerEncoder.EncodedSize", 0, func() { pe.EncodedSize(f) })

			stateless, err := Encode(e)
			if err != nil {
				t.Fatal(err)
			}
			// The second stream frame repeats the first, so its deltas are
			// zero and every decode of it leaves the base where it was.
			pe.Reset()
			first, _ := pe.AppendFrame(nil, f)
			stream, _ := pe.AppendFrame(nil, f)
			for _, c := range []struct {
				what  string
				frame []byte
			}{{"Decoder.Decode(stateless)", stateless}, {"Decoder.Decode(stream)", stream}} {
				dec := new(Decoder)
				if _, err := dec.Decode(first); err != nil {
					t.Fatal(err)
				}
				allocsPerRun(t, c.what, 0, func() {
					if _, err := dec.Decode(c.frame); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
	for i, rec := range sampleRecords() {
		t.Run(fmt.Sprintf("record_%d", i), func(t *testing.T) {
			var buf []byte
			allocsPerRun(t, "AppendRecord", 0, func() { buf = AppendRecord(buf[:0], &rec) })
		})
	}
}

// TestEncodeFrameZeroAlloc: steady-state encode of an app-message frame
// (the hot path: one per application send) performs zero allocations.
func TestEncodeFrameZeroAlloc(t *testing.T) {
	set := protocol.NewProcSet(64)
	set.Add(5)
	set.Add(41)
	e := pbEnvelope(1, 0, core.Piggyback{Csn: 12, Stat: core.Tentative, TentSet: set})
	var enc Encoder
	f := AcquireFrame()
	defer f.Release()
	allocsPerRun(t, "Encoder.EncodeFrame(app+piggyback)", 0, func() {
		if err := enc.EncodeFrame(f, e); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAppendFrameZeroAlloc: the per-connection delta rewrite (one per
// frame actually written) performs zero allocations in steady state,
// both on the delta path and on the full-block path.
func TestAppendFrameZeroAlloc(t *testing.T) {
	set := protocol.NewProcSet(64)
	set.Add(5)
	e := pbEnvelope(1, 0, core.Piggyback{Csn: 12, Stat: core.Tentative, TentSet: set})
	var enc Encoder
	var pe PeerEncoder
	f := AcquireFrame()
	defer f.Release()
	if err := enc.EncodeFrame(f, e); err != nil {
		t.Fatal(err)
	}
	var wbuf []byte
	allocsPerRun(t, "PeerEncoder.AppendFrame(delta)", 0, func() {
		wbuf, _ = pe.AppendFrame(wbuf[:0], f)
	})
	allocsPerRun(t, "PeerEncoder.AppendFrame(full)", 0, func() {
		pe.Reset()
		wbuf, _ = pe.AppendFrame(wbuf[:0], f)
	})
}

// flipped returns e with bit 0 of its piggyback's tentSet toggled, in the
// same payload form, or e itself when it carries no piggyback.
func flipped(e *protocol.Envelope) *protocol.Envelope {
	pb, ok := core.AsPiggyback(e.Payload)
	if !ok {
		return e
	}
	pb.TentSet = pb.TentSet.Clone()
	pb.TentSet.Toggle(0)
	c := *e
	c.Payload = pb
	if _, ptr := e.Payload.(*core.Piggyback); ptr {
		c.Payload = &pb
	}
	return &c
}

// TestDecodeZeroAlloc: steady-state decode of app-message frames — full
// piggyback blocks, delta blocks, unchanged piggybacks, and ACK control
// frames — performs zero allocations with the view-returning Decode.
func TestDecodeZeroAlloc(t *testing.T) {
	full, delta, same := v2ChainFrames(t)
	dec := new(Decoder)
	if _, err := dec.Decode(full); err != nil {
		t.Fatal(err)
	}
	allocsPerRun(t, "Decoder.Decode(full piggyback)", 0, func() {
		if _, err := dec.Decode(full); err != nil {
			t.Fatal(err)
		}
	})
	allocsPerRun(t, "Decoder.Decode(piggyback delta)", 0, func() {
		if _, err := dec.Decode(delta); err != nil {
			t.Fatal(err)
		}
	})
	allocsPerRun(t, "Decoder.Decode(unchanged piggyback)", 0, func() {
		if _, err := dec.Decode(same); err != nil {
			t.Fatal(err)
		}
	})
	ack, err := Encode(&protocol.Envelope{
		ID: 7, Src: 0, Dst: 1, Kind: protocol.KindCtl, CtlTag: reliable.AckTag,
		Link: protocol.Link{Ack: 42, Mask: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	allocsPerRun(t, "Decoder.Decode(ack)", 0, func() {
		if _, err := dec.Decode(ack); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAppendRecordZeroAlloc: encoding a checkpoint record into a buffer
// that already has room (fsstore's batch buffer) performs no allocations.
func TestAppendRecordZeroAlloc(t *testing.T) {
	rec := sampleRecords()[1]
	buf := make([]byte, 0, 256)
	allocsPerRun(t, "AppendRecord(record with a selective log)", 0, func() {
		buf = AppendRecord(buf[:0], &rec)
	})
}
