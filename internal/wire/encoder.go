package wire

import (
	"encoding/binary"

	"ocsml/internal/core"
	"ocsml/internal/protocol"
)

// Encoder serializes envelopes into reusable Frames. Unlike the
// package-level Encode, which always produces a fresh buffer, an
// Encoder reuses the frame's storage (allocation-free in steady state)
// and records the piggyback sidecar the per-connection PeerEncoder
// needs to rewrite the frame into a delta at write time.
//
// An Encoder is not safe for concurrent use; the transport runs one per
// node, on the node's loop goroutine. The zero Encoder is ready to use.
type Encoder struct{}

// EncodeFrame serializes e into f, reusing f's storage. The frame holds
// a self-contained encoding (absolute piggyback block) plus the sidecar
// PeerEncoder.AppendFrame needs to delta-rewrite it per connection. On
// error the frame is left empty.
//
//ocsml:hotpath
func (enc *Encoder) EncodeFrame(f *Frame, e *protocol.Envelope) error {
	f.hasPB = false
	buf, err := appendHeader(f.data[:0], e)
	if err != nil {
		f.data = f.data[:0]
		return err
	}
	if pb, ok := e.Payload.(core.Piggyback); ok {
		f.hasPB = true
		f.pbOff = len(buf)
		f.epoch = e.Epoch
		f.pb.Csn = pb.Csn
		f.pb.Stat = pb.Stat
		f.pb.TentSet.CopyFrom(pb.TentSet)
	}
	buf, err = appendPayload(buf, e.Payload)
	if err != nil {
		f.data = f.data[:0]
		f.hasPB = false
		return err
	}
	f.data = buf
	return nil
}

// PeerEncoder is the delta state of one peer connection: the last
// piggyback written on it. It rewrites piggyback frames into delta
// blocks when that is strictly smaller, and must be Reset on every
// (re)connect so the first piggyback of a connection always travels as
// a full block — the receiving Decoder starts with no base.
//
// The state advances only on AppendFrame, i.e. only for bytes actually
// handed to the connection's writer, so dropped or re-sent frames
// upstream of the writer cannot desynchronize the two sides.
type PeerEncoder struct {
	has     bool
	epoch   int
	pb      core.Piggyback
	delta   core.PiggybackDelta
	scratch []byte
}

// Reset forgets the delta base. Call when (re)establishing the
// connection this encoder writes to.
func (pe *PeerEncoder) Reset() { pe.has = false }

// AppendFrame appends f's wire encoding onto dst — rewriting the
// piggyback block into a delta against the previous piggyback written
// through this PeerEncoder when that is smaller — and returns the
// extended buffer plus the number of payload-block bytes written (the
// piggyback overhead accounting for this frame; 0 for frames without
// a piggyback).
//
//ocsml:hotpath
func (pe *PeerEncoder) AppendFrame(dst []byte, f *Frame) ([]byte, int) {
	if !f.hasPB {
		return append(dst, f.data...), 0
	}
	full := len(f.data) - f.pbOff
	if delta, ok := pe.tryDelta(f); ok && len(delta) < full {
		dst = append(dst, f.data[:f.pbOff]...)
		dst = append(dst, delta...)
		pe.commit(f)
		return dst, len(delta)
	}
	dst = append(dst, f.data...)
	pe.commit(f)
	return dst, full
}

// EncodedSize returns the exact number of bytes the next
// AppendFrame(dst, f) would append, without advancing the delta state.
//
//ocsml:hotpath
func (pe *PeerEncoder) EncodedSize(f *Frame) int {
	if !f.hasPB {
		return len(f.data)
	}
	full := len(f.data) - f.pbOff
	if delta, ok := pe.tryDelta(f); ok && len(delta) < full {
		return f.pbOff + len(delta)
	}
	return len(f.data)
}

// tryDelta encodes f's piggyback as a delta block into pe.scratch. It
// fails (full block required) when there is no base, the epoch changed,
// or the universes differ.
func (pe *PeerEncoder) tryDelta(f *Frame) ([]byte, bool) {
	if !pe.has || pe.epoch != f.epoch {
		return nil, false
	}
	if !pe.delta.From(pe.pb, f.pb) {
		return nil, false
	}
	buf := append(pe.scratch[:0], ptPiggybackDelta)
	buf = binary.AppendVarint(buf, int64(pe.delta.DCsn))
	buf = append(buf, byte(pe.delta.Stat))
	buf = binary.AppendUvarint(buf, uint64(len(pe.delta.Flips)))
	// Gap encoding: first index absolute, then (gap-1) to the next —
	// ascending runs of flipped bits cost one byte each.
	prev := -1
	for _, fl := range pe.delta.Flips {
		if prev < 0 {
			buf = binary.AppendUvarint(buf, uint64(fl))
		} else {
			buf = binary.AppendUvarint(buf, uint64(fl-prev-1))
		}
		prev = fl
	}
	pe.scratch = buf
	return buf, true
}

func (pe *PeerEncoder) commit(f *Frame) {
	pe.has = true
	pe.epoch = f.epoch
	pe.pb.Csn = f.pb.Csn
	pe.pb.Stat = f.pb.Stat
	pe.pb.TentSet.CopyFrom(f.pb.TentSet)
}
