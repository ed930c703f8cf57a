package wire

import (
	"sync"

	"ocsml/internal/core"
)

// Frame is one encoded envelope in flight between an Encoder and the
// peer link that writes it. The frame's bytes always hold a
// self-contained encoding (for piggyback frames, the absolute payload
// block); the per-connection delta rewrite happens only at
// write time, in PeerEncoder.AppendFrame, because only the writer knows
// what the previous frame on that connection carried.
//
// A Frame also carries the encode-time sidecar AppendFrame needs to
// compute the delta — the absolute piggyback and where its block starts
// — so the write path never re-decodes its own bytes.
type Frame struct {
	data []byte

	hasPB  bool
	pbOff  int // offset of the piggyback payload block in data
	epoch  int
	pb     core.Piggyback // absolute piggyback (storage reused across encodes)
	pooled bool
}

// Bytes returns the frame's self-contained encoding. The slice aliases
// the frame's internal buffer: it is invalidated by the next
// EncodeFrame into this frame and by Release.
func (f *Frame) Bytes() []byte { return f.data }

// Len returns the self-contained encoding's length in bytes. A delta
// rewrite by PeerEncoder.AppendFrame can only shrink it.
func (f *Frame) Len() int { return len(f.data) }

// RawFrame wraps already-encoded bytes — the pass-through for producers
// that hold finished wire bytes (the recovery coordinator, tests,
// fault-injection hooks replaying captures). Raw frames are written
// verbatim: never delta-rewritten, never pooled (Release is a no-op).
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
	f.hasPB = false
	f.pbOff = 0
	f.epoch = 0
	f.pooled = false
	framePool.Put(f)
}
