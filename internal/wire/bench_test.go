package wire

import (
	"math/rand"
	"testing"

	"ocsml/internal/core"
	"ocsml/internal/des"
	"ocsml/internal/protocol"
	"ocsml/internal/reliable"
)

// benchEnvelope is the steady-state hot-path shape: an application
// message carrying a piggyback over an N=64 cluster.
func benchEnvelope() *protocol.Envelope {
	set := protocol.NewProcSet(64)
	set.Add(5)
	set.Add(41)
	return pbEnvelope(1, 0, core.Piggyback{Csn: 12, Stat: core.Tentative, TentSet: set})
}

// BenchmarkWireEncode contrasts the allocating stateless encode with the
// pooled hot path — the headline allocs/msg numbers — and reports, per
// frame kind, what a connection's writer spends and writes per frame
// (EncodeFrame + AppendFrame, B/frame without the length prefix).
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

	for _, kind := range frameKinds {
		b.Run("stream-"+kind, func(b *testing.B) {
			envs := kindTraffic(kind)
			var enc Encoder
			var pe PeerEncoder
			f := AcquireFrame()
			defer f.Release()
			var wbuf []byte
			var total int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%len(envs) == 0 {
					pe = PeerEncoder{} // the traffic starts over: a new connection
				}
				if err := enc.EncodeFrame(f, envs[i%len(envs)]); err != nil {
					b.Fatal(err)
				}
				wbuf, _ = pe.AppendFrame(wbuf[:0], f)
				total += len(wbuf)
			}
			b.ReportMetric(float64(total)/float64(b.N), "B/frame")
		})
	}

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
// frames, view-returning (hot path) and owned (engine boundary), and per
// frame kind on one connection's stream.
func BenchmarkWireDecode(b *testing.B) {
	full, delta, _ := v2ChainFrames(b)

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

	for _, kind := range frameKinds {
		b.Run("stream-"+kind, func(b *testing.B) {
			frames := streamFrames(b, kindTraffic(kind)...)
			dec := new(Decoder)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%len(frames) == 0 {
					dec = new(Decoder)
				}
				if _, err := dec.Decode(frames[i%len(frames)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

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

// frameKinds are the kinds of frame a connection carries at N = 4:
// application messages with their piggyback, transport ACKs, checkpoint
// control (CK_*) and the recovery handshake (RB_*).
var frameKinds = []string{"app", "ack", "ck", "rb"}

// kindTraffic returns 4096 consecutive envelopes of one kind as one
// connection of an N = 4 cluster carries them: IDs from the sender's
// counter, which its other sends also advance; SentAt a millisecond or
// two apart (tens for CK_* and RB_*); seqs and acknowledged IDs advancing
// by one or a few.
func kindTraffic(kind string) []*protocol.Envelope {
	rng := rand.New(rand.NewSource(4))
	pb := core.Piggyback{Csn: 40, Stat: core.Tentative, TentSet: protocol.NewProcSet(4)}
	var id, floor, seq, lseq int64
	now := des.Time(12e9)
	envs := make([]*protocol.Envelope, 4096)
	for i := range envs {
		id += 1 + rng.Int63n(6)
		now += des.Time(5e5 + rng.Int63n(2e6))
		e := &protocol.Envelope{ID: 1<<40 | id, Src: 0, Dst: 1, SentAt: now, Epoch: 0}
		switch kind {
		case "app":
			seq++
			if rng.Intn(20) == 0 {
				pb.Csn++
			}
			if rng.Intn(4) == 0 {
				pb.TentSet.Toggle(rng.Intn(4))
			}
			e.Kind, e.Bytes = protocol.KindApp, 256+6
			e.App = protocol.AppMsg{Seq: seq, Bytes: 256, Tag: uint64(now) - uint64(rng.Int63n(5e4))}
			e.Payload = core.Piggyback{Csn: pb.Csn, Stat: pb.Stat, TentSet: pb.TentSet.Clone()}
			lseq++
			floor += rng.Int63n(3)
			e.Link = protocol.Link{Seq: lseq, Ack: floor}
		case "ack":
			floor += 1 + rng.Int63n(6)
			e.Kind, e.CtlTag, e.Bytes = protocol.KindCtl, reliable.AckTag, 12
			e.Link = protocol.Link{Ack: floor}
		case "ck":
			now += 25e6
			pb.Csn++
			e.Kind, e.CtlTag, e.Bytes = protocol.KindCtl, []string{core.TagBGN, core.TagREQ, core.TagEND}[i%3], 8
			e.Payload = core.CtlMsg{Csn: pb.Csn}
		case "rb":
			now += 25e6
			e.Kind, e.CtlTag = protocol.KindCtl, []string{protocol.TagRbBegin, protocol.TagRbLine, protocol.TagRbCommit, protocol.TagRbAck}[i%4]
			e.Payload = protocol.RbMsg{Round: int64(now), Line: 12, Epoch: 1, Seqs: []int{12, 13, 14}}
		}
		envs[i] = e
	}
	return envs
}

// streamFrames encodes envs the way one connection's writer does, through
// one Encoder and one PeerEncoder.
func streamFrames(t testing.TB, envs ...*protocol.Envelope) [][]byte {
	t.Helper()
	var enc Encoder
	var pe PeerEncoder
	f := AcquireFrame()
	defer f.Release()
	var frames [][]byte
	for _, e := range envs {
		if err := enc.EncodeFrame(f, e); err != nil {
			t.Fatal(err)
		}
		b, _ := pe.AppendFrame(nil, f)
		frames = append(frames, b)
	}
	return frames
}
