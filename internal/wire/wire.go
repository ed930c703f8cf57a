// Package wire is the versioned binary codec for protocol.Envelope — the
// serialization layer of the real-network runtime (internal/transport).
//
// The simulator accounts wire traffic with the synthetic Envelope.Bytes
// field; this package produces the actual bytes, so piggyback overhead can
// finally be measured on a real wire. The encoding is compact (varints
// everywhere, one bit per process in the tentSet) and versioned: the first
// byte of every frame is the format version, so a node rejects a frame
// of any other version instead of misinterpreting it.
//
// Invariants:
//
//   - Decode(Encode(e)) reproduces e exactly (deep equality), for every
//     envelope the protocols in this repository can emit.
//   - Decode never panics: truncated, corrupt or oversized input returns
//     an error.
//   - EncodedSize(e) == len(Encode(e)), and PayloadSize(e) is the exact
//     number of encoded bytes attributable to the protocol payload (the
//     OCSML piggyback block, a control message body, or a transport ACK).
//
// Payloads are polymorphic (Envelope.Payload is `any`); the codec knows
// the concrete types the in-tree protocols use: core.Piggyback,
// core.CtlMsg, reliable.Ack and protocol.RbMsg (the recovery
// coordinator's handshake). Foreign payload types are an encode-time
// error — a protocol that wants to run on the TCP mesh must register its
// payload here.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"

	"ocsml/internal/core"
	"ocsml/internal/protocol"
	"ocsml/internal/reliable"
)

// VersionLatest is the frame format version, the first byte of every
// encoded envelope. It is the only version ever emitted, and a decoder
// rejects every other version byte with ErrVersion. Frames are
// self-contained except for the ptPiggybackDelta payload block, which
// encodes a piggyback as the difference against the previous piggyback
// written on the same connection (see Encoder/PeerEncoder/Decoder); the
// package-level Encode/Append never produce it, so stateless producers
// (tests, the recovery coordinator) decode anywhere.
const VersionLatest = 2

// MaxCtlTag bounds the control-tag string length on the wire.
const MaxCtlTag = 64

// Payload type discriminators.
const (
	ptNone           = 0 // Payload == nil
	ptPiggyback      = 1 // core.Piggyback, absolute
	ptCtlMsg         = 2 // core.CtlMsg
	ptAck            = 3 // reliable.Ack
	ptRb             = 4 // protocol.RbMsg (recovery coordinator)
	ptPiggybackDelta = 5 // core.Piggyback as a delta against the connection's base
)

// maxRbSeqs bounds the manifest length an RB_LINE report may carry.
const maxRbSeqs = 1 << 20

// Decode errors. All decode failures wrap one of these (or describe a
// structural violation); none panic.
var (
	ErrTruncated = errors.New("wire: truncated frame")
	ErrVersion   = errors.New("wire: unsupported frame version")
	ErrPayload   = errors.New("wire: unknown payload type")
	ErrTrailing  = errors.New("wire: trailing bytes after envelope")
	// ErrDeltaBase rejects a piggyback-delta frame arriving before any
	// full piggyback established the connection's base state (or through
	// the stateless Decode, which never has one).
	ErrDeltaBase = errors.New("wire: piggyback delta without a base frame")
)

// PayloadKind names a payload's kind: "nil" for the empty payload,
// otherwise the package-qualified type name ("core.Piggyback"). The
// names line up with the //ocsml:wirepayload registry that
// cmd/ocsmlvet's wireexhaustive analyzer checks against the corpus.
func PayloadKind(payload any) string {
	if payload == nil {
		return "nil"
	}
	return reflect.TypeOf(payload).String()
}

// errf builds a corrupt-input or misconfiguration error. Every call is
// an abort path — a failed encode or decode discards the whole frame —
// so the formatting allocations (and the boxing of the operands) are
// off the steady-state path by construction.
//
//ocsml:alloc error construction, abort paths only
func errf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

// Encode serializes the envelope into a fresh buffer.
func Encode(e *protocol.Envelope) ([]byte, error) {
	return Append(nil, e)
}

// Append serializes the envelope onto buf, returning the extended buffer.
func Append(buf []byte, e *protocol.Envelope) ([]byte, error) {
	buf, err := appendHeader(buf, e)
	if err != nil {
		return nil, err
	}
	return appendPayload(buf, e.Payload)
}

// appendHeader writes the version byte and the envelope header (all
// fields up to but excluding the payload block).
func appendHeader(buf []byte, e *protocol.Envelope) ([]byte, error) {
	if e.Src < 0 || e.Dst < 0 {
		return nil, errf("wire: negative endpoint %d->%d", e.Src, e.Dst)
	}
	if len(e.CtlTag) > MaxCtlTag {
		return nil, errf("wire: control tag %q exceeds %d bytes", e.CtlTag, MaxCtlTag)
	}
	if e.Epoch < 0 {
		return nil, errf("wire: negative epoch %d", e.Epoch)
	}
	buf = append(buf, VersionLatest, byte(e.Kind))
	buf = binary.AppendVarint(buf, e.ID)
	buf = binary.AppendUvarint(buf, uint64(e.Src))
	buf = binary.AppendUvarint(buf, uint64(e.Dst))
	buf = binary.AppendVarint(buf, e.Bytes)
	buf = binary.AppendVarint(buf, int64(e.SentAt))
	buf = binary.AppendUvarint(buf, uint64(e.Epoch))
	buf = binary.AppendUvarint(buf, uint64(len(e.CtlTag)))
	buf = append(buf, e.CtlTag...)
	buf = binary.AppendVarint(buf, e.App.Seq)
	buf = binary.AppendVarint(buf, e.App.Bytes)
	buf = binary.AppendUvarint(buf, e.App.Tag)
	return buf, nil
}

func appendPayload(buf []byte, payload any) ([]byte, error) {
	switch p := payload.(type) {
	case nil:
		return append(buf, ptNone), nil
	case core.Piggyback:
		if p.Csn < 0 {
			return nil, errf("wire: negative piggyback csn %d", p.Csn)
		}
		buf = append(buf, ptPiggyback)
		buf = binary.AppendUvarint(buf, uint64(p.Csn))
		buf = append(buf, byte(p.Stat))
		return p.TentSet.AppendBinary(buf), nil
	case core.CtlMsg:
		if p.Csn < 0 {
			return nil, errf("wire: negative control csn %d", p.Csn)
		}
		buf = append(buf, ptCtlMsg)
		return binary.AppendUvarint(buf, uint64(p.Csn)), nil
	case reliable.Ack:
		buf = append(buf, ptAck)
		return binary.AppendVarint(buf, p.ID), nil
	case protocol.RbMsg:
		if p.Line < 0 || p.Epoch < 0 {
			return nil, errf("wire: negative recovery line %d or epoch %d", p.Line, p.Epoch)
		}
		if len(p.Seqs) > maxRbSeqs {
			return nil, errf("wire: recovery report with %d seqs exceeds %d", len(p.Seqs), maxRbSeqs)
		}
		buf = append(buf, ptRb)
		buf = binary.AppendVarint(buf, p.Round)
		buf = binary.AppendUvarint(buf, uint64(p.Line))
		buf = binary.AppendUvarint(buf, uint64(p.Epoch))
		buf = binary.AppendUvarint(buf, uint64(len(p.Seqs)))
		for _, q := range p.Seqs {
			if q < 0 {
				return nil, errf("wire: negative recovery seq %d", q)
			}
			buf = binary.AppendUvarint(buf, uint64(q))
		}
		return buf, nil
	default:
		return nil, errf("wire: unregistered payload type %T", payload)
	}
}

// EncodedSize returns the exact length Encode would produce.
func EncodedSize(e *protocol.Envelope) (int, error) {
	b, err := Encode(e)
	if err != nil {
		return 0, err
	}
	return len(b), nil
}

// PayloadSize returns the exact number of encoded bytes the protocol
// payload occupies on the wire (discriminator byte included) — the real
// piggyback overhead of an application message, or the body size of a
// control message.
func PayloadSize(e *protocol.Envelope) (int, error) {
	b, err := appendPayload(nil, e.Payload)
	if err != nil {
		return 0, err
	}
	return len(b), nil
}

// reader is a bounds-checked cursor over an encoded frame.
type reader struct {
	b   []byte
	off int
}

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, ErrTruncated
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, k := binary.Uvarint(r.b[r.off:])
	if k <= 0 {
		return 0, ErrTruncated
	}
	r.off += k
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, k := binary.Varint(r.b[r.off:])
	if k <= 0 {
		return 0, ErrTruncated
	}
	r.off += k
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || len(r.b)-r.off < n {
		return nil, ErrTruncated
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v, nil
}

// Decode parses one envelope from data. The entire input must be consumed:
// trailing bytes are an error (frames are already delimited by the
// transport's length prefix). Corrupt input returns an error, never
// panics.
//
// Decode is stateless, so it accepts any self-contained frame but
// rejects delta frames with ErrDeltaBase; those need the
// connection-scoped Decoder that tracked the base. Payloads come back in
// their canonical value forms.
func Decode(data []byte) (*protocol.Envelope, error) {
	var d Decoder
	return d.DecodeOwned(data)
}
