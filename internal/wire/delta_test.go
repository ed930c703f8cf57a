package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"ocsml/internal/core"
	"ocsml/internal/des"
	"ocsml/internal/protocol"
	"ocsml/internal/reliable"
)

// pbEnvelope builds a deterministic app envelope carrying pb.
func pbEnvelope(id int, epoch int, pb core.Piggyback) *protocol.Envelope {
	return &protocol.Envelope{
		ID: int64(id), Src: 0, Dst: 1, Kind: protocol.KindApp,
		Bytes: 1024 + 6, SentAt: 99, Epoch: epoch,
		App:     protocol.AppMsg{Seq: int64(id), Bytes: 1024, Tag: 7},
		Payload: pb,
	}
}

// TestDeltaChainMatchesAbsolute is the delta-chain property test: an
// arbitrary sequence of piggybacks pushed through the delta path
// (Encoder -> PeerEncoder -> stateful Decoder), with reconnects, epoch
// bumps, and universe changes interleaved, must decode to exactly the
// absolute envelopes that the stateless codec round-trips, on the
// connection's ends — and PeerEncoder.EncodedSize must predict every
// appended frame's length, full-block fallbacks included.
func TestDeltaChainMatchesAbsolute(t *testing.T) {
	rng := rand.New(rand.NewSource(9157))
	var enc Encoder
	var pe PeerEncoder
	dec := NewDecoder(0, 1)
	f := AcquireFrame()
	defer f.Release()

	n := 24
	pb := core.Piggyback{TentSet: protocol.NewProcSet(n)}
	epoch := 0
	deltas, sames, fulls := 0, 0, 0
	var stream []byte
	for i := 0; i < 500; i++ {
		switch ev := rng.Intn(20); {
		case ev == 0: // reconnect: both sides restart
			pe.Reset()
			dec = NewDecoder(0, 1)
		case ev == 1: // cluster-wide rollback bumps the epoch
			epoch++
		case ev == 2: // membership change: new universe, no delta exists
			n = 8 + rng.Intn(60)
			fresh := protocol.NewProcSet(n)
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					fresh.Add(j)
				}
			}
			pb.TentSet = fresh
		}
		// Evolve the protocol state the way OCSML does: slow csn growth,
		// a status bit, a handful of tentSet flips.
		pb.Csn += rng.Intn(2)
		pb.Stat = core.Status(rng.Intn(2))
		for k := rng.Intn(3); k > 0; k-- {
			pb.TentSet.Toggle(rng.Intn(n))
		}

		e := pbEnvelope(i, epoch, core.Piggyback{
			Csn: pb.Csn, Stat: pb.Stat, TentSet: pb.TentSet.Clone(),
		})
		if err := enc.EncodeFrame(f, e); err != nil {
			t.Fatalf("step %d: encode: %v", i, err)
		}
		want := pe.EncodedSize(f)
		var pbLen int
		stream, pbLen = pe.AppendFrame(stream[:0], f)
		if len(stream) != want {
			t.Fatalf("step %d: EncodedSize predicted %d, AppendFrame wrote %d", i, want, len(stream))
		}
		switch {
		case pbLen == 1:
			sames++
		case len(stream) < f.Len():
			deltas++
		default:
			fulls++
		}

		got, err := dec.DecodeOwned(stream)
		if err != nil {
			t.Fatalf("step %d: decode: %v", i, err)
		}
		if want := onWire(e, 0, 1); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: chain decode mismatch:\n got %#v\nwant %#v", i, got, want)
		}
		// The same envelope through the stateless v1 codec must agree.
		v1, err := Encode(e)
		if err != nil {
			t.Fatalf("step %d: v1 encode: %v", i, err)
		}
		abs, err := Decode(v1)
		if err != nil {
			t.Fatalf("step %d: v1 decode: %v", i, err)
		}
		if want := onWire(abs, 0, 1); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: delta chain and v1 disagree:\n got %#v\nwant %#v", i, got, want)
		}
	}
	if deltas == 0 || sames == 0 {
		t.Fatalf("%d delta frames, %d unchanged piggybacks; the chain never exercised a stream form", deltas, sames)
	}
	if fulls == 0 {
		t.Fatal("no full-block fallback seen; reconnect/epoch events did not fire")
	}
	t.Logf("chain: %d delta frames, %d unchanged piggybacks, %d full frames", deltas, sames, fulls)
}

// TestStreamChainMatchesAbsolute is TestDeltaChainMatchesAbsolute for the
// header deltas: one connection's traffic — app frames with piggybacks,
// ACKs, control and recovery frames — reordered, duplicated and
// retransmitted upstream of the writer, so that IDs, App.Seq and
// acknowledged IDs go backwards, with raw stateless frames interleaved,
// resets at random points, and truncated copies of frames fed to the
// decoder first. Every frame must decode to exactly the stateless round
// trip of its envelope (so a truncated frame moved no base),
// PeerEncoder.EncodedSize must predict every append, and no append may
// outgrow the frame's stateless length by more than MaxStreamGrowth.
func TestStreamChainMatchesAbsolute(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	envs := connectionTraffic(rng, 2000)
	var backwards [4]int // ID, App.Seq, link seq, link floor
	var last header
	for i := 1; i < len(envs); i++ {
		e := envs[i]
		if e.ID < last.id {
			backwards[0]++
		}
		last.id = e.ID
		if e.App != (protocol.AppMsg{}) {
			if e.App.Seq < last.seq {
				backwards[1]++
			}
			last.seq = e.App.Seq
		}
		if e.Link != (protocol.Link{}) {
			if e.Link.Seq != 0 {
				if e.Link.Seq < last.linkSeq {
					backwards[2]++
				}
				last.linkSeq = e.Link.Seq
			}
			if e.Link.Ack < last.linkAck {
				backwards[3]++
			}
			last.linkAck = e.Link.Ack
		}
	}
	for field, n := range backwards {
		if n == 0 {
			t.Fatalf("field %d never went backwards; the traffic does not exercise negative deltas", field)
		}
	}

	var enc Encoder
	var pe PeerEncoder
	dec := new(Decoder)
	f := AcquireFrame()
	defer f.Release()
	var out []byte
	resets, raws, truncs := 0, 0, 0
	for i, e := range envs {
		want, err := Encode(e)
		if err != nil {
			t.Fatalf("step %d: encode: %v", i, err)
		}
		abs, err := Decode(want)
		if err != nil {
			t.Fatalf("step %d: stateless decode: %v", i, err)
		}
		switch ev := rng.Intn(40); {
		case ev == 0: // reconnect: both sides restart
			pe.Reset()
			dec = new(Decoder)
			resets++
		case ev < 4: // a stateless producer's frame on the same connection
			out, _ = pe.AppendFrame(out[:0], RawFrame(want))
			if !bytes.Equal(out, want) {
				t.Fatalf("step %d: raw frame rewritten", i)
			}
			if got, err := dec.DecodeOwned(out); err != nil || !reflect.DeepEqual(got, abs) {
				t.Fatalf("step %d: raw frame mid-stream decodes to %#v, %v", i, got, err)
			}
			raws++
			continue
		}
		if err := enc.EncodeFrame(f, e); err != nil {
			t.Fatalf("step %d: EncodeFrame: %v", i, err)
		}
		size := pe.EncodedSize(f)
		out, _ = pe.AppendFrame(out[:0], f)
		if len(out) != size {
			t.Fatalf("step %d: EncodedSize predicted %d, AppendFrame wrote %d", i, size, len(out))
		}
		if len(out) > f.Len()+MaxStreamGrowth {
			t.Fatalf("step %d: stream frame of %d bytes outgrew its stateless %d by more than %d", i, len(out), f.Len(), MaxStreamGrowth)
		}
		if rng.Intn(10) == 0 {
			if _, err := dec.Decode(out[:rng.Intn(len(out))]); err == nil {
				t.Fatalf("step %d: a truncated stream frame decoded", i)
			}
			truncs++
		}
		got, err := dec.DecodeOwned(out)
		if err != nil {
			t.Fatalf("step %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, abs) {
			t.Fatalf("step %d: stream decode and the stateless round trip disagree:\n got %#v\nwant %#v", i, got, abs)
		}
	}
	if resets == 0 || raws == 0 || truncs == 0 {
		t.Fatalf("resets %d, raw frames %d, truncations %d: an event never fired", resets, raws, truncs)
	}
}

// connectionTraffic returns n envelopes the way one connection's writer
// can receive them: a process's app and control frames with evolving
// piggybacks and link blocks, standalone ACKs of the peer's messages,
// recovery frames, then
// reordered in adjacent pairs, with earlier envelopes sent again
// (retransmits, duplicates) and now and then one with arbitrary fields.
func connectionTraffic(rng *rand.Rand, n int) []*protocol.Envelope {
	const idBase = 1 << 40
	pb := core.Piggyback{TentSet: protocol.NewProcSet(4)}
	var id, floor, seq, lseq, epoch int64
	link := func(tracked bool) protocol.Link {
		floor += rng.Int63n(3)
		l := protocol.Link{Ack: floor}
		if rng.Intn(5) == 0 {
			l.Mask = 1 + uint64(rng.Int63n(1<<12))
		}
		if tracked {
			lseq++
			l.Seq = lseq
		}
		return l
	}
	var now des.Time = 1 << 34
	var envs []*protocol.Envelope
	for len(envs) < n {
		id++
		now += des.Time(rng.Int63n(3e6))
		e := &protocol.Envelope{ID: idBase + id, Src: 0, Dst: 1, SentAt: now, Epoch: int(epoch)}
		switch k := rng.Intn(20); {
		case k < 10:
			seq++
			pb.Csn += rng.Intn(2)
			pb.Stat = core.Status(rng.Intn(2))
			pb.TentSet.Toggle(rng.Intn(4))
			e.Kind, e.Bytes = protocol.KindApp, 262
			e.App = protocol.AppMsg{Seq: seq, Bytes: 256, Tag: uint64(now) - uint64(rng.Int63n(1e5))}
			e.Payload = core.Piggyback{Csn: pb.Csn, Stat: pb.Stat, TentSet: pb.TentSet.Clone()}
			e.Link = link(true)
		case k < 17:
			e.Kind, e.CtlTag, e.Bytes = protocol.KindCtl, reliable.AckTag, 12
			e.Link = link(false)
		case k < 19:
			e.Kind, e.CtlTag, e.Bytes = protocol.KindCtl, core.TagREQ, 8
			e.Payload = core.CtlMsg{Csn: pb.Csn}
			e.Link = link(true)
		case rng.Intn(4) == 0:
			epoch++
			e.Kind, e.CtlTag = protocol.KindCtl, protocol.TagRbLine
			e.Payload = protocol.RbMsg{Round: rng.Int63(), Line: pb.Csn, Epoch: int(epoch), Seqs: []int{1, 2, 3}}
		default:
			e = randomEnvelope(rng)
		}
		envs = append(envs, e)
		if len(envs) > 8 && rng.Intn(8) == 0 {
			envs = append(envs, envs[len(envs)-1-rng.Intn(8)])
		}
	}
	for i := 0; i+1 < len(envs); i++ {
		if rng.Intn(6) == 0 {
			envs[i], envs[i+1] = envs[i+1], envs[i]
			i++
		}
	}
	return envs[:n]
}

// TestDeltaIsChangedBitsNotUniverse pins the acceptance bound: at N=64,
// a steady-state piggyback delta costs O(changed bits), not O(N) — the
// absolute block carries an 8-byte bitmap, the delta a couple of bytes.
func TestDeltaIsChangedBitsNotUniverse(t *testing.T) {
	var enc Encoder
	var pe PeerEncoder
	f := AcquireFrame()
	defer f.Release()

	set := protocol.NewProcSet(64)
	set.Add(3)
	first := pbEnvelope(1, 0, core.Piggyback{Csn: 9, Stat: core.Tentative, TentSet: set})
	if err := enc.EncodeFrame(f, first); err != nil {
		t.Fatal(err)
	}
	if _, pbLen := pe.AppendFrame(nil, f); pbLen < 12 {
		// 1 discriminator + 1 csn + 1 stat + 1 universe + 8 bitmap bytes.
		t.Fatalf("absolute block = %d bytes, want >= 12 at N=64", pbLen)
	}

	next := set.Clone()
	next.Add(17) // one changed bit
	second := pbEnvelope(2, 0, core.Piggyback{Csn: 9, Stat: core.Tentative, TentSet: next})
	if err := enc.EncodeFrame(f, second); err != nil {
		t.Fatal(err)
	}
	if _, pbLen := pe.AppendFrame(nil, f); pbLen > 5 {
		// 1 discriminator + 1 dcsn + 1 stat + 1 count + 1 gap index.
		t.Fatalf("one-bit delta block = %d bytes, want <= 5", pbLen)
	}
}

// TestEncoderMatchesPackageEncode: an Encoder must emit byte-identical
// frames to the stateless package Encode, and a PeerEncoder at the zero
// base must rewrite them into stream frames that differ from those bytes
// in the stream flag alone, while still accounting their piggyback bytes.
func TestEncoderMatchesPackageEncode(t *testing.T) {
	var enc Encoder
	var pe PeerEncoder
	f := AcquireFrame()
	defer f.Release()
	for i, e := range sampleEnvelopes() {
		want, err := Encode(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.EncodeFrame(f, e); err != nil {
			t.Fatalf("envelope %d: EncodeFrame: %v", i, err)
		}
		if !bytes.Equal(f.Bytes(), want) {
			t.Fatalf("envelope %d: EncodeFrame differs from Encode:\n got %x\nwant %x", i, f.Bytes(), want)
		}
		pe.Reset()
		out, pbLen := pe.AppendFrame(nil, f)
		stream := append([]byte(nil), want...)
		stream[0] |= flagStream
		if !bytes.Equal(out, stream) {
			t.Fatalf("envelope %d: AppendFrame at the zero base:\n got %x\nwant %x", i, out, stream)
		}
		if got, err := new(Decoder).DecodeOwned(out); err != nil || !reflect.DeepEqual(got, onWire(e, 0, 0)) {
			t.Fatalf("envelope %d: stream frame decodes to %#v, %v", i, got, err)
		}
		if _, ok := e.Payload.(core.Piggyback); ok {
			p, err := PayloadSize(e)
			if err != nil {
				t.Fatal(err)
			}
			if pbLen != p {
				t.Fatalf("envelope %d: piggyback accounting %d, want payload size %d", i, pbLen, p)
			}
		} else if pbLen != 0 {
			t.Fatalf("envelope %d: non-piggyback frame accounted %d piggyback bytes", i, pbLen)
		}
	}
}

// TestDeltaNeedsBase: a delta frame and an unchanged piggyback are
// undecodable without the preceding full block — by a fresh stateful
// decoder, after an epoch change, and by the stateless package Decode.
func TestDeltaNeedsBase(t *testing.T) {
	full, delta, same := v2ChainFrames(t)

	for name, frame := range map[string][]byte{"delta": delta, "unchanged": same} {
		if _, err := new(Decoder).Decode(frame); !errors.Is(err, ErrDeltaBase) {
			t.Fatalf("%s, fresh decoder: err = %v, want ErrDeltaBase", name, err)
		}
		if _, err := Decode(frame); !errors.Is(err, ErrDeltaBase) {
			t.Fatalf("%s, stateless Decode: err = %v, want ErrDeltaBase", name, err)
		}
	}

	// A base from another epoch is not a base.
	var enc Encoder
	var pe PeerEncoder
	f := AcquireFrame()
	defer f.Release()
	set := protocol.NewProcSet(8)
	if err := enc.EncodeFrame(f, pbEnvelope(1, 5, core.Piggyback{Csn: 1, TentSet: set})); err != nil {
		t.Fatal(err)
	}
	baseE5, _ := pe.AppendFrame(nil, f)
	dec := new(Decoder)
	if _, err := dec.Decode(baseE5); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(delta); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("cross-epoch delta: err = %v, want ErrDeltaBase", err)
	}
	if _, err := dec.Decode(same); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("cross-epoch unchanged piggyback: err = %v, want ErrDeltaBase", err)
	}
	if _, err := new(Decoder).Decode(full); err != nil {
		t.Fatalf("full frame needs no base, got %v", err)
	}
}

// TestEpochBumpForcesFullBlock: the sender side of the epoch rule — a
// piggyback after an epoch change travels as a full block even though the
// delta base is present and the universe unchanged.
func TestEpochBumpForcesFullBlock(t *testing.T) {
	var enc Encoder
	var pe PeerEncoder
	f := AcquireFrame()
	defer f.Release()
	set := protocol.NewProcSet(32)
	set.Add(1)
	full := func(e *protocol.Envelope) int {
		t.Helper()
		n, err := PayloadSize(e)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	first := pbEnvelope(1, 0, core.Piggyback{Csn: 1, TentSet: set})
	if err := enc.EncodeFrame(f, first); err != nil {
		t.Fatal(err)
	}
	pe.AppendFrame(nil, f)

	bumped := pbEnvelope(2, 1, core.Piggyback{Csn: 1, TentSet: set})
	if err := enc.EncodeFrame(f, bumped); err != nil {
		t.Fatal(err)
	}
	if _, pb := pe.AppendFrame(nil, f); pb != full(bumped) {
		t.Fatalf("post-epoch-bump piggyback took %d bytes, want the full block's %d", pb, full(bumped))
	}

	// Same epoch again: deltas resume.
	again := pbEnvelope(3, 1, core.Piggyback{Csn: 2, TentSet: set})
	if err := enc.EncodeFrame(f, again); err != nil {
		t.Fatal(err)
	}
	if _, pb := pe.AppendFrame(nil, f); pb >= full(again) {
		t.Fatal("delta encoding did not resume after the base caught up with the epoch")
	}
}

// v2ChainFrames returns the first three stream frames one PeerEncoder
// emits: a full piggyback frame, one whose piggyback is a delta against
// it, and one that repeats the second's piggyback in one byte.
func v2ChainFrames(t testing.TB) (full, delta, same []byte) {
	t.Helper()
	var enc Encoder
	var pe PeerEncoder
	f := AcquireFrame()
	defer f.Release()

	set := protocol.NewProcSet(16)
	set.Add(2)
	if err := enc.EncodeFrame(f, pbEnvelope(1, 0, core.Piggyback{Csn: 3, Stat: core.Tentative, TentSet: set})); err != nil {
		t.Fatal(err)
	}
	full, _ = pe.AppendFrame(nil, f)

	next := set.Clone()
	next.Add(9)
	if err := enc.EncodeFrame(f, pbEnvelope(2, 0, core.Piggyback{Csn: 4, Stat: core.Tentative, TentSet: next})); err != nil {
		t.Fatal(err)
	}
	delta, _ = pe.AppendFrame(nil, f)
	if len(delta) >= len(full) {
		t.Fatalf("second frame (%d bytes) was not delta-encoded against the first (%d bytes)", len(delta), len(full))
	}
	if err := enc.EncodeFrame(f, pbEnvelope(3, 0, core.Piggyback{Csn: 4, Stat: core.Tentative, TentSet: next})); err != nil {
		t.Fatal(err)
	}
	same, pb := pe.AppendFrame(nil, f)
	if pb != 1 {
		t.Fatalf("third frame carries a %d-byte piggyback block, want the unchanged piggyback's 1", pb)
	}
	return full, delta, same
}
