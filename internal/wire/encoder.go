package wire

import (
	"encoding/binary"

	"ocsml/internal/core"
	"ocsml/internal/protocol"
)

// Encoder serializes envelopes into reusable Frames. Unlike the
// package-level Encode, which always produces a fresh buffer, an
// Encoder reuses the frame's storage (allocation-free in steady state)
// and records the sidecar the per-connection PeerEncoder needs to
// rewrite the frame into a stream frame at write time.
//
// An Encoder is not safe for concurrent use; the transport runs one per
// node, on the node's loop goroutine. The zero Encoder is ready to use.
type Encoder struct{}

// EncodeFrame serializes e into f, reusing f's storage. The frame holds
// the stateless encoding plus the sidecar PeerEncoder.AppendFrame needs
// to rewrite it per connection. On error the frame is left empty.
func (enc *Encoder) EncodeFrame(f *Frame, e *protocol.Envelope) error {
	f.coded = false
	buf, err := appendHeader(f.data[:0], e, &f.lay)
	if err != nil {
		f.data = f.data[:0]
		return err
	}
	f.hdr = header{id: e.ID, seq: e.App.Seq, linkSeq: e.Link.Seq, linkAck: e.Link.Ack}
	f.mask = e.Link.Mask
	var pb *core.Piggyback
	switch p := e.Payload.(type) {
	case core.Piggyback:
		pb = &p
	case *core.Piggyback:
		pb = p
	}
	if pb != nil {
		f.epoch = e.Epoch
		f.pb.Csn = pb.Csn
		f.pb.Stat = pb.Stat
		f.pb.TentSet.CopyFrom(pb.TentSet)
		buf, err = appendPiggyback(buf, pb)
	} else {
		buf, err = appendPayload(buf, e.Payload)
	}
	if err != nil {
		f.data = f.data[:0]
		return err
	}
	f.data = buf
	f.coded = true
	return nil
}

// PeerEncoder is the stream state of one peer connection: the header
// fields and the piggyback of the last frame written on it. It rewrites
// every encoded frame into a stream frame — header fields as deltas
// against that base, the piggyback as one byte when it equals the base's
// and as a delta block when that is strictly smaller — and must be Reset
// on every (re)connect, because the receiving Decoder starts from the
// zero base.
//
// The state advances only on AppendFrame, i.e. only for bytes actually
// handed to the connection's writer, so dropped, duplicated or reordered
// frames upstream of the writer cannot desynchronize the two sides.
type PeerEncoder struct {
	base    header
	has     bool // base piggyback valid
	epoch   int
	pb      core.Piggyback
	delta   core.PiggybackDelta
	scratch []byte // EncodedSize's dry run
}

// Reset returns to the zero base. Call when (re)establishing the
// connection this encoder writes to.
func (pe *PeerEncoder) Reset() {
	pe.base = header{}
	pe.has = false
}

// AppendFrame appends f's stream encoding onto dst and returns the
// extended buffer plus the number of payload-block bytes written (the
// piggyback overhead accounting for this frame; 0 for frames without a
// piggyback). A RawFrame is appended verbatim and moves no base.
func (pe *PeerEncoder) AppendFrame(dst []byte, f *Frame) ([]byte, int) {
	if !f.coded {
		return append(dst, f.data...), 0
	}
	dst, pb := pe.appendStream(dst, f)
	pe.base.move(f.hdr, f.data[0]&flagApp != 0, f.data[0]&flagLink != 0)
	if f.data[f.lay.pay] == ptPiggyback {
		pe.has = true
		pe.epoch = f.epoch
		pe.pb.Csn = f.pb.Csn
		pe.pb.Stat = f.pb.Stat
		pe.pb.TentSet.CopyFrom(f.pb.TentSet)
	}
	return dst, pb
}

// EncodedSize returns the exact number of bytes the next
// AppendFrame(dst, f) would append, without advancing the stream state.
func (pe *PeerEncoder) EncodedSize(f *Frame) int {
	if !f.coded {
		return len(f.data)
	}
	pe.scratch, _ = pe.appendStream(pe.scratch[:0], f)
	return len(pe.scratch)
}

// appendStream appends f's stream encoding — its stateless bytes with the
// stream flag set and the header fields (the link block's included) as
// deltas against the base, the piggyback as one byte when it equals the
// base's and as a delta block when that is smaller — and returns the
// piggyback bytes it wrote. It does not move the base.
func (pe *PeerEncoder) appendStream(dst []byte, f *Frame) ([]byte, int) {
	b, lay := f.data, f.lay
	start := len(dst)
	dst = append(dst, b[:lay.vary]...)
	dst[start] |= flagStream
	dst = binary.AppendVarint(dst, f.hdr.id-pe.base.id)
	if b[0]&flagApp != 0 {
		dst = binary.AppendVarint(dst, f.hdr.seq-pe.base.seq)
		dst = append(dst, b[lay.app:lay.link]...)
	}
	if b[0]&flagLink != 0 {
		dst = appendLink(dst, f.hdr.linkSeq, f.hdr.linkAck, f.mask, pe.base)
	}
	if b[lay.pay] == ptPiggyback {
		full := len(b) - lay.pay
		mark := len(dst)
		if pe.has && pe.epoch == f.epoch && pe.delta.From(pe.pb, f.pb) {
			if pe.delta.DCsn == 0 && pe.delta.Stat == pe.pb.Stat && len(pe.delta.Flips) == 0 {
				return append(dst, ptPiggybackSame), 1
			}
			dst = pe.appendDelta(dst)
			if n := len(dst) - mark; n < full {
				return dst, n
			}
			dst = dst[:mark]
		}
		return append(dst, b[lay.pay:]...), full
	}
	return append(dst, b[lay.pay:]...), 0
}

// appendDelta appends pe.delta as a ptPiggybackDelta block.
func (pe *PeerEncoder) appendDelta(dst []byte) []byte {
	dst = append(dst, ptPiggybackDelta)
	dst = binary.AppendVarint(dst, int64(pe.delta.DCsn))
	dst = append(dst, byte(pe.delta.Stat))
	dst = binary.AppendUvarint(dst, uint64(len(pe.delta.Flips)))
	// Gap encoding: first index absolute, then (gap-1) to the next —
	// ascending runs of flipped bits cost one byte each.
	prev := -1
	for _, fl := range pe.delta.Flips {
		if prev < 0 {
			dst = binary.AppendUvarint(dst, uint64(fl))
		} else {
			dst = binary.AppendUvarint(dst, uint64(fl-prev-1))
		}
		prev = fl
	}
	return dst
}
