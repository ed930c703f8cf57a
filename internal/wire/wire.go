// Package wire is the binary codec for protocol.Envelope — the
// serialization layer of the real-network runtime (internal/transport).
//
// A frame carries only what its receiver reads. The connection supplies
// the rest: the format version is named once, by the hello that opens the
// connection, and Src and Dst are the connection's two ends, which the
// Decoder of that connection fills in. The simulator's accounting fields
// (Envelope.Bytes, SentAt) are not encoded; no receiver on the wire reads
// them. The encoding is compact (varints everywhere, one bit per process
// in the tentSet, control tags as a code in the header byte). The field
// table is DESIGN.md §13.1.
//
// A frame is stateless (Encode, Encoder.EncodeFrame: decodable anywhere)
// or a stream frame, which a PeerEncoder writes onto one connection with
// ID, App.Seq, the link block's seq and acknowledged floor, and the
// piggyback coded as deltas against that connection's previous frames
// (an unchanged piggyback as one byte); only the connection's stateful
// Decoder reads it. The link block (protocol.Link, the reliable layer's
// per-link header) is flagged by a header bit, so an envelope without one
// spends no byte on it.
//
// Invariants:
//
//   - Decode(Encode(e)) reproduces e (deep equality) except for the
//     connection fields Src and Dst, which come back as the decoder's
//     (0 and 0 for the stateless Decode and the zero Decoder), and the
//     simulator fields Bytes and SentAt, which come back 0; this holds for
//     every envelope the protocols in this repository can emit.
//   - Decode never panics: truncated, corrupt or oversized input returns
//     an error.
//   - PayloadSize(e) is the exact number of encoded bytes attributable to
//     the protocol payload (the OCSML piggyback block or a control
//     message body).
//   - A PeerEncoder's frames decode, through the Decoder of the same
//     connection, to exactly what that Decoder returns for Encode(e),
//     whatever was dropped, duplicated or reordered before the encoder
//     and with stateless frames interleaved: only stream frames move a
//     base, the encoder's when appended, the decoder's once decoded in
//     full.
//   - PeerEncoder.EncodedSize(f) is exactly what the next AppendFrame(dst,
//     f) appends, and at most f.Len()+MaxStreamGrowth.
//
// Payloads are polymorphic (Envelope.Payload is `any`); the codec knows
// the concrete types the in-tree protocols use: core.Piggyback (by value,
// or as the *core.Piggyback snapshot a sender attaches; both encode the
// same bytes), core.CtlMsg and protocol.RbMsg (the recovery coordinator's
// handshake). Foreign payload types are an encode-time error — a protocol
// that wants to run on the TCP mesh must register its payload here.
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

// VersionLatest is the frame format version. Frames do not carry it: the
// hello that opens a connection does, and a peer whose hello names any
// other version is refused before any of its frames is read. There is no
// compatibility reader (DESIGN.md §13.1).
const VersionLatest = 5

// MaxCtlTag bounds the control-tag string length on the wire.
const MaxCtlTag = 64

// The header byte, first in every frame.
const (
	flagCtl    = 1 << 0 // Kind is KindCtl (else KindApp)
	flagStream = 1 << 1 // a stream frame: deltas against the connection's base
	flagApp    = 1 << 2 // the App block follows (else App is zero)
	flagLink   = 1 << 3 // the link block follows (else Link is zero)
	tagShift   = 4      // bits 4..7: the control tag's index in ctlTags, or tagLiteral
	tagLiteral = 15     // the tag follows as a uvarint length and its bytes
)

// The link block's lead uvarint: the acknowledged floor, zig-zag coded,
// above two presence bits for the fields that may follow it.
const (
	linkHasMask = 1 << 0 // the mask follows as a uvarint (else it is 0)
	linkHasSeq  = 1 << 1 // the seq follows as a varint (else it is 0)
	linkShift   = 2
	// maxLinkSeq bounds a link seq or floor on the wire.
	maxLinkSeq = 1 << 40
)

// ctlTags is the control-tag code table: a tag in it travels as its index
// in the header byte, any other as tagLiteral and its bytes. The decoder
// interns through it, so no frame carrying one of these tags allocates
// its tag. The codes are part of the format: changing the table changes
// VersionLatest.
var ctlTags = [...]string{
	"", reliable.AckTag, core.TagBGN, core.TagREQ, core.TagEND,
	protocol.TagRbBegin, protocol.TagRbLine, protocol.TagRbCommit, protocol.TagRbAck,
	protocol.TagDSN,
}

// MaxStreamGrowth bounds how many bytes PeerEncoder.AppendFrame can add to
// a frame's stateless length. Each of the four delta-coded fields (ID,
// App.Seq, the link seq and the link's acknowledged floor) is a
// varint of 1 to 10 bytes either way, so a delta against a base far from
// the value costs at most 9 bytes more than the value; the link block's
// presence bits and mask are the same bytes in both encodings, and the
// piggyback rewrite only shrinks.
const MaxStreamGrowth = 4 * (binary.MaxVarintLen64 - 1)

// Payload type discriminators.
const (
	ptNone           = 0 // Payload == nil
	ptPiggyback      = 1 // core.Piggyback, absolute
	ptCtlMsg         = 2 // core.CtlMsg
	ptRb             = 4 // protocol.RbMsg (recovery coordinator)
	ptPiggybackDelta = 5 // core.Piggyback as a delta against the connection's base
	ptPiggybackSame  = 6 // core.Piggyback equal to the connection's base
)

// maxRbSeqs bounds the manifest length an RB_LINE report may carry.
const maxRbSeqs = 1 << 20

// Decode errors. All decode failures wrap one of these (or describe a
// structural violation); none panic.
var (
	ErrTruncated = errors.New("wire: truncated frame")
	ErrPayload   = errors.New("wire: unknown payload type")
	ErrTrailing  = errors.New("wire: trailing bytes after envelope")
	// ErrDeltaBase rejects a frame that needs a base the decoder does not
	// have: any stream frame through the stateless Decode, and a piggyback
	// delta or unchanged piggyback before a piggyback of the same epoch
	// established the connection's base.
	ErrDeltaBase = errors.New("wire: delta frame without its base")
)

// PayloadKind names a payload's kind: "nil" for the empty payload,
// otherwise the package-qualified type name ("core.Piggyback"), as the
// allocation gate's subtest names print it.
func PayloadKind(payload any) string {
	if payload == nil {
		return "nil"
	}
	return reflect.TypeOf(payload).String()
}

// errf builds a corrupt-input or misconfiguration error. It is
// deliberately cold: every call is an abort path — a failed encode or
// decode discards the whole frame — so the formatting allocations (and
// the boxing of the operands) are off the steady-state path by
// construction.
func errf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

// Encode serializes the envelope into a fresh buffer.
func Encode(e *protocol.Envelope) ([]byte, error) {
	return Append(nil, e)
}

// Append serializes the envelope onto buf, returning the extended buffer.
func Append(buf []byte, e *protocol.Envelope) ([]byte, error) {
	var lay layout
	buf, err := appendHeader(buf, e, &lay)
	if err != nil {
		return nil, err
	}
	return appendPayload(buf, e.Payload)
}

// header holds the fields a stream frame codes as deltas, as values or as
// a connection's base: ID, App.Seq, and the link block's seq and
// acknowledged floor.
type header struct {
	id, seq, linkSeq, linkAck int64
}

// move advances a base past a stream frame carrying v: ID always, App.Seq only with an App block, the link's floor only with a
// link block and its seq only when the block has one. The encoder and the
// decoder of a connection both move theirs through it, so they cannot
// disagree on the rule.
func (b *header) move(v header, app, link bool) {
	b.id = v.id
	if app {
		b.seq = v.seq
	}
	if link {
		b.linkAck = v.linkAck
		if v.linkSeq != 0 {
			b.linkSeq = v.linkSeq
		}
	}
}

// layout locates, in a stateless encoding, the parts PeerEncoder copies
// around the fields it delta-codes: [0, vary) is everything before ID,
// [app, link) is App.Bytes and App.Tag, [link, pay) the link block and
// [pay, end) the payload block.
type layout struct {
	vary, app, link, pay int
}

// appendLink writes a link block of seq, floor ack and mask against base
// (the zero base in a stateless frame).
func appendLink(buf []byte, seq, ack int64, mask uint64, base header) []byte {
	d := ack - base.linkAck
	lead := (uint64(d<<1) ^ uint64(d>>63)) << linkShift
	if seq != 0 {
		lead |= linkHasSeq
	}
	if mask != 0 {
		lead |= linkHasMask
	}
	buf = binary.AppendUvarint(buf, lead)
	if seq != 0 {
		buf = binary.AppendVarint(buf, seq-base.linkSeq)
	}
	if mask != 0 {
		buf = binary.AppendUvarint(buf, mask)
	}
	return buf
}

// appendHeader writes the envelope header (all fields up to but excluding
// the payload block) against the zero base, and records where its parts
// start in lay.
func appendHeader(buf []byte, e *protocol.Envelope, lay *layout) ([]byte, error) {
	if e.Kind > protocol.KindCtl {
		return nil, errf("wire: invalid kind %d", e.Kind)
	}
	if len(e.CtlTag) > MaxCtlTag {
		return nil, errf("wire: control tag %q exceeds %d bytes", e.CtlTag, MaxCtlTag)
	}
	if e.Epoch < 0 {
		return nil, errf("wire: negative epoch %d", e.Epoch)
	}
	if l := e.Link; l.Seq < 0 || l.Seq > maxLinkSeq || l.Ack < 0 || l.Ack > maxLinkSeq {
		return nil, errf("wire: link seq %d or floor %d out of range", l.Seq, l.Ack)
	}
	start := len(buf)
	code := tagLiteral
	for i, t := range ctlTags {
		if t == e.CtlTag {
			code = i
			break
		}
	}
	flags := byte(code<<tagShift) | byte(e.Kind)
	if e.App != (protocol.AppMsg{}) {
		flags |= flagApp
	}
	if e.Link != (protocol.Link{}) {
		flags |= flagLink
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(e.Epoch))
	if code == tagLiteral {
		buf = binary.AppendUvarint(buf, uint64(len(e.CtlTag)))
		buf = append(buf, e.CtlTag...)
	}
	lay.vary = len(buf) - start
	buf = binary.AppendVarint(buf, e.ID)
	if flags&flagApp != 0 {
		buf = binary.AppendVarint(buf, e.App.Seq)
		lay.app = len(buf) - start
		buf = binary.AppendVarint(buf, e.App.Bytes)
		buf = binary.AppendUvarint(buf, e.App.Tag)
	}
	lay.link = len(buf) - start
	if flags&flagLink != 0 {
		buf = appendLink(buf, e.Link.Seq, e.Link.Ack, e.Link.Mask, header{})
	}
	lay.pay = len(buf) - start
	return buf, nil
}

func appendPayload(buf []byte, payload any) ([]byte, error) {
	switch p := payload.(type) {
	case nil:
		return append(buf, ptNone), nil
	case core.Piggyback:
		return appendPiggyback(buf, &p)
	case *core.Piggyback:
		return appendPiggyback(buf, p)
	case core.CtlMsg:
		if p.Csn < 0 {
			return nil, errf("wire: negative control csn %d", p.Csn)
		}
		buf = append(buf, ptCtlMsg)
		return binary.AppendUvarint(buf, uint64(p.Csn)), nil
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

// appendPiggyback writes an absolute piggyback block. Both forms of the
// payload reach it by pointer: dereferencing a *core.Piggyback into an any
// would box it again.
func appendPiggyback(buf []byte, p *core.Piggyback) ([]byte, error) {
	if p.Csn < 0 {
		return nil, errf("wire: negative piggyback csn %d", p.Csn)
	}
	buf = append(buf, ptPiggyback)
	buf = binary.AppendUvarint(buf, uint64(p.Csn))
	buf = append(buf, byte(p.Stat))
	return p.TentSet.AppendBinary(buf), nil
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
// Decode is stateless, so it accepts any stateless frame but rejects
// stream frames with ErrDeltaBase; those need the connection-scoped
// Decoder that tracked the base. It knows no connection, so Src and Dst
// come back 0. Payloads come back in their canonical value forms.
func Decode(data []byte) (*protocol.Envelope, error) {
	d := Decoder{stateless: true}
	return d.DecodeOwned(data)
}
