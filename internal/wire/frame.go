package wire

import (
	"sync"

	"ocsml/internal/core"
)

// Frame is one encoded envelope in flight between an Encoder and the
// peer link that writes it. The frame's bytes always hold the stateless
// encoding; the per-connection stream rewrite happens only at write time,
// in PeerEncoder.AppendFrame, because only the writer knows what the
// previous frame on that connection carried.
//
// A Frame also carries the encode-time sidecar AppendFrame needs for the
// rewrite — where the parts it copies start, the header fields it
// delta-codes, and the absolute piggyback — so the write path never
// re-decodes its own bytes.
type Frame struct {
	data []byte

	coded  bool   // the sidecar below is valid (false: a RawFrame)
	lay    layout // where data's parts start
	hdr    header // ID, App.Seq, link seq and floor, absolute
	mask   uint64 // the link block's mask
	epoch  int
	pb     core.Piggyback // absolute piggyback (storage reused across encodes)
	pooled bool
}

// Bytes returns the frame's stateless encoding. The slice aliases the
// frame's internal buffer: it is invalidated by the next EncodeFrame into
// this frame and by Release.
func (f *Frame) Bytes() []byte { return f.data }

// Len returns the stateless encoding's length in bytes. The stream
// rewrite of PeerEncoder.AppendFrame usually shortens a frame, but can
// lengthen it by up to MaxStreamGrowth bytes when a header field lies far
// from its base (an ID, seq or link field that went backwards
// upstream of the writer).
func (f *Frame) Len() int { return len(f.data) }

// RawFrame wraps already-encoded bytes — the pass-through for producers
// that hold finished wire bytes (the storage GC's reports, tests,
// fault-injection hooks replaying captures). Raw frames are written
// verbatim: never rewritten, never pooled (Release is a no-op). They must
// hold stateless encodings, which move no base on either side of the
// connection.
func RawFrame(b []byte) *Frame {
	return &Frame{data: b}
}

var framePool = sync.Pool{New: func() any { return new(Frame) }}

// AcquireFrame returns a reusable frame for Encoder.EncodeFrame. Hand
// it back with Release once the write path is done with it; the
// buffers (frame bytes, piggyback tentSet words) survive the pool
// round-trip, which is what makes the steady-state hot path
// allocation-free.
func AcquireFrame() *Frame {
	f := framePool.Get().(*Frame)
	f.pooled = true
	return f
}

// Release returns an acquired frame to the pool. Raw frames ignore it,
// so an owner may Release unconditionally. The frame must not be used
// after Release.
func (f *Frame) Release() {
	if !f.pooled {
		return
	}
	f.data = f.data[:0]
	f.coded = false
	f.pooled = false
	framePool.Put(f)
}
