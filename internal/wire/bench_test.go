package wire

import (
	"testing"

	"ocsml/internal/core"
	"ocsml/internal/protocol"
)

// benchEnvelope is the steady-state hot-path shape: an application
// message carrying a piggyback over an N=64 cluster.
func benchEnvelope() *protocol.Envelope {
	set := protocol.NewProcSet(64)
	set.Add(5)
	set.Add(41)
	return pbEnvelope(1, 0, core.Piggyback{Csn: 12, Stat: core.Tentative, TentSet: set})
}

// BenchmarkWireEncode contrasts the legacy allocating encode with the
// pooled v2 hot path — the headline allocs/msg numbers.
func BenchmarkWireEncode(b *testing.B) {
	e := benchEnvelope()

	b.Run("v1-alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Encode(e); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("v2-pooled", func(b *testing.B) {
		var enc Encoder
		f := AcquireFrame()
		defer f.Release()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := enc.EncodeFrame(f, e); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(f.Len()))
	})

	b.Run("v2-delta", func(b *testing.B) {
		var enc Encoder
		var pe PeerEncoder
		f := AcquireFrame()
		defer f.Release()
		var wbuf []byte
		var n int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := enc.EncodeFrame(f, e); err != nil {
				b.Fatal(err)
			}
			wbuf, _ = pe.AppendFrame(wbuf[:0], f)
			n = len(wbuf)
		}
		b.SetBytes(int64(n))
	})
}

// BenchmarkWireDecode measures the stateful decoder on full and delta
// frames, view-returning (hot path) and owned (engine boundary).
func BenchmarkWireDecode(b *testing.B) {
	full, delta := v2ChainFrames(b)

	b.Run("view-full", func(b *testing.B) {
		dec := new(Decoder)
		b.ReportAllocs()
		b.SetBytes(int64(len(full)))
		for i := 0; i < b.N; i++ {
			if _, err := dec.Decode(full); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("view-delta", func(b *testing.B) {
		dec := new(Decoder)
		if _, err := dec.Decode(full); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.SetBytes(int64(len(delta)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dec.Decode(delta); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("owned-full", func(b *testing.B) {
		dec := new(Decoder)
		b.ReportAllocs()
		b.SetBytes(int64(len(full)))
		for i := 0; i < b.N; i++ {
			if _, err := dec.DecodeOwned(full); err != nil {
				b.Fatal(err)
			}
		}
	})
}
