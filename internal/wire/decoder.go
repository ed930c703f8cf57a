package wire

import (
	"ocsml/internal/core"
	"ocsml/internal/protocol"
)

// Decoder parses the frames of one connection. Every envelope it returns
// takes Src and Dst from the connection's two ends, which frames do not
// carry. It keeps the per-connection base stream frames decode against
// (the header fields of the last stream frame and the last piggyback it
// carried) and reuses its own storage across calls, so the steady-state
// decode of an application frame performs no allocations.
//
// Decode returns a view: the envelope and its payload point into the
// decoder and stay valid only until the next Decode/DecodeOwned call.
// DecodeOwned returns an independent envelope with the canonical value
// payloads the protocols assert on. A Decoder is not safe for
// concurrent use; the transport runs one per inbound connection.
//
// The zero Decoder is ready to use; its envelopes read 0 -> 0.
type Decoder struct {
	src, dst int

	r    reader
	env  protocol.Envelope
	cur  core.Piggyback
	ctl  core.CtlMsg
	rb   protocol.RbMsg
	seqs []int

	flips []int
	delta core.PiggybackDelta

	// Stream base: the header fields of the last stream frame decoded on
	// this connection, and the last piggyback one carried.
	base      header
	prevOK    bool
	prevEpoch int
	prev      core.Piggyback

	stateless bool // the package-level Decode: no base, stream frames refused
}

// NewDecoder returns the Decoder of a connection from process src to
// process dst.
func NewDecoder(src, dst int) *Decoder {
	return &Decoder{src: src, dst: dst}
}

// Decode parses one envelope from data. The entire input must be
// consumed: trailing bytes are an error (frames are already delimited
// by the transport's length prefix). Corrupt input returns an error,
// never panics; only a stream frame that decoded in full moves the base.
//
// The returned envelope is a zero-allocation view into the decoder:
// it, its payload pointer, and any slices they carry are invalidated by
// the next Decode/DecodeOwned call. Callers that retain the envelope
// must use DecodeOwned.
func (d *Decoder) Decode(data []byte) (*protocol.Envelope, error) {
	d.r = reader{b: data}
	r := &d.r
	flags, err := r.byte()
	if err != nil {
		return nil, err
	}
	// A stream frame's deltas are against the connection's base, any other
	// frame's against the zero base.
	stream := flags&flagStream != 0
	var base header
	if stream {
		if d.stateless {
			return nil, errf("%w: a stream frame needs its connection's Decoder", ErrDeltaBase)
		}
		base = d.base
	}
	e := &d.env
	*e = protocol.Envelope{Src: d.src, Dst: d.dst, Kind: protocol.Kind(flags & flagCtl)}
	epoch, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if epoch > 1<<30 {
		return nil, errf("wire: epoch %d out of range", epoch)
	}
	e.Epoch = int(epoch)
	switch code := int(flags >> tagShift); {
	case code < len(ctlTags):
		e.CtlTag = ctlTags[code]
	case code == tagLiteral:
		tagLen, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if tagLen > MaxCtlTag {
			return nil, errf("wire: control tag length %d exceeds %d", tagLen, MaxCtlTag)
		}
		tag, err := r.bytes(int(tagLen))
		if err != nil {
			return nil, err
		}
		e.CtlTag = internTag(tag)
	default:
		return nil, errf("wire: unknown control tag code %d", code)
	}
	id, err := r.varint()
	if err != nil {
		return nil, err
	}
	e.ID = base.id + id
	app := flags&flagApp != 0
	if app {
		seq, err := r.varint()
		if err != nil {
			return nil, err
		}
		e.App.Seq = base.seq + seq
		if e.App.Bytes, err = r.varint(); err != nil {
			return nil, err
		}
		if e.App.Tag, err = r.uvarint(); err != nil {
			return nil, err
		}
	}
	link := flags&flagLink != 0
	if link {
		if e.Link, err = decodeLink(r, base); err != nil {
			return nil, err
		}
	}
	if e.Payload, err = decodePayload(r, d, stream); err != nil {
		return nil, err
	}
	if r.off != len(data) {
		return nil, errf("%w: %d byte(s)", ErrTrailing, len(data)-r.off)
	}
	if !stream {
		return e, nil
	}
	// The stream frame decoded in full: it becomes the connection's base,
	// and so does its piggyback (absolute or reconstructed from a delta).
	d.base.move(header{id: e.ID, seq: e.App.Seq, linkSeq: e.Link.Seq, linkAck: e.Link.Ack}, app, link)
	if _, ok := e.Payload.(*core.Piggyback); ok {
		d.prev.Csn = d.cur.Csn
		d.prev.Stat = d.cur.Stat
		d.prev.TentSet.CopyFrom(d.cur.TentSet)
		d.prevEpoch = e.Epoch
		d.prevOK = true
	}
	return e, nil
}

// DecodeOwned decodes like Decode but returns an independent envelope
// whose payload is in its canonical value form — core.Piggyback with a
// cloned tentSet, value core.CtlMsg / protocol.RbMsg
// (nil Seqs when empty) — exactly what Encode produced on the far side.
// Use it wherever the envelope outlives the next decode; the zero-copy
// Decode is for hot paths that finish with the envelope immediately.
func (d *Decoder) DecodeOwned(data []byte) (*protocol.Envelope, error) {
	v, err := d.Decode(data)
	if err != nil {
		return nil, err
	}
	return v.Owned(), nil
}

// decodeLink parses a link block against base (the zero base in a
// stateless frame). Only the canonical form decodes: a present seq or
// mask is nonzero, and the block is not empty.
func decodeLink(r *reader, base header) (protocol.Link, error) {
	var l protocol.Link
	lead, err := r.uvarint()
	if err != nil {
		return l, err
	}
	zz := lead >> linkShift
	l.Ack = base.linkAck + (int64(zz>>1) ^ -int64(zz&1))
	if l.Ack < 0 || l.Ack > maxLinkSeq {
		return l, errf("wire: link floor %d out of range", l.Ack)
	}
	if lead&linkHasSeq != 0 {
		d, err := r.varint()
		if err != nil {
			return l, err
		}
		if l.Seq = base.linkSeq + d; l.Seq < 1 || l.Seq > maxLinkSeq {
			return l, errf("wire: link seq %d out of range", l.Seq)
		}
	}
	if lead&linkHasMask != 0 {
		if l.Mask, err = r.uvarint(); err != nil {
			return l, err
		}
		if l.Mask == 0 {
			return l, errf("wire: link block with an empty mask")
		}
	}
	if l == (protocol.Link{}) {
		return l, errf("wire: empty link block")
	}
	return l, nil
}

// decodePayload parses the payload block into the decoder's reusable
// payload storage and returns a pointer view of it. In a stream frame the
// delta block and the unchanged-piggyback byte reconstruct an absolute
// piggyback from the connection's base.
func decodePayload(r *reader, d *Decoder, stream bool) (any, error) {
	pt, err := r.byte()
	if err != nil {
		return nil, err
	}
	switch pt {
	case ptNone:
		return nil, nil
	case ptPiggyback:
		csn, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if csn > 1<<40 {
			return nil, errf("wire: piggyback csn %d out of range", csn)
		}
		stat, err := r.byte()
		if err != nil {
			return nil, err
		}
		if stat > byte(core.Tentative) {
			return nil, errf("wire: invalid piggyback status %d", stat)
		}
		set := d.cur.TentSet
		k, err := set.DecodeInto(r.b[r.off:])
		if err != nil {
			return nil, err
		}
		r.off += k
		d.cur = core.Piggyback{Csn: int(csn), Stat: core.Status(stat), TentSet: set}
		return &d.cur, nil
	case ptCtlMsg:
		csn, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if csn > 1<<40 {
			return nil, errf("wire: control csn %d out of range", csn)
		}
		d.ctl = core.CtlMsg{Csn: int(csn)}
		return &d.ctl, nil
	case ptRb:
		round, err := r.varint()
		if err != nil {
			return nil, err
		}
		line, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if line > 1<<40 {
			return nil, errf("wire: recovery line %d out of range", line)
		}
		epoch, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if epoch > 1<<30 {
			return nil, errf("wire: recovery epoch %d out of range", epoch)
		}
		count, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if count > maxRbSeqs {
			return nil, errf("wire: recovery report length %d out of range", count)
		}
		d.seqs = d.seqs[:0]
		for i := uint64(0); i < count; i++ {
			q, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if q > 1<<40 {
				return nil, errf("wire: recovery seq %d out of range", q)
			}
			d.seqs = append(d.seqs, int(q))
		}
		seqs := d.seqs
		if len(seqs) == 0 {
			seqs = nil
		}
		d.rb = protocol.RbMsg{Round: round, Line: int(line), Epoch: int(epoch), Seqs: seqs}
		return &d.rb, nil
	case ptPiggybackSame:
		if err := d.hasBase(stream); err != nil {
			return nil, err
		}
		d.cur.Csn = d.prev.Csn
		d.cur.Stat = d.prev.Stat
		d.cur.TentSet.CopyFrom(d.prev.TentSet)
		return &d.cur, nil
	case ptPiggybackDelta:
		if err := d.hasBase(stream); err != nil {
			return nil, err
		}
		dcsn, err := r.varint()
		if err != nil {
			return nil, err
		}
		if dcsn < -(1<<40) || dcsn > 1<<40 {
			return nil, errf("wire: piggyback csn delta %d out of range", dcsn)
		}
		stat, err := r.byte()
		if err != nil {
			return nil, err
		}
		if stat > byte(core.Tentative) {
			return nil, errf("wire: invalid piggyback status %d", stat)
		}
		count, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		n := d.prev.TentSet.Universe()
		if count > uint64(n) {
			return nil, errf("wire: piggyback delta flips %d bits in universe %d", count, n)
		}
		// Gap-decoded ascending indices; bounds-checked against the
		// base's universe so Apply below cannot fail on range.
		d.flips = d.flips[:0]
		idx := -1
		for i := uint64(0); i < count; i++ {
			g, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if g > uint64(n) {
				return nil, errf("wire: piggyback delta gap %d out of range", g)
			}
			if idx < 0 {
				idx = int(g)
			} else {
				idx += 1 + int(g)
			}
			if idx >= n {
				return nil, errf("wire: piggyback delta flips bit %d outside universe [0,%d)", idx, n)
			}
			d.flips = append(d.flips, idx)
		}
		d.delta.DCsn = int(dcsn)
		d.delta.Stat = core.Status(stat)
		d.delta.Flips = d.flips
		d.cur.Csn = d.prev.Csn
		d.cur.Stat = d.prev.Stat
		d.cur.TentSet.CopyFrom(d.prev.TentSet)
		if err := d.delta.Apply(&d.cur); err != nil {
			return nil, err
		}
		if d.cur.Csn > 1<<40 {
			return nil, errf("wire: piggyback csn %d out of range", d.cur.Csn)
		}
		return &d.cur, nil
	default:
		return nil, errf("%w: %d", ErrPayload, pt)
	}
}

// hasBase refuses a piggyback coded against the connection's base unless
// the frame is a stream frame and the base is a piggyback of its epoch.
func (d *Decoder) hasBase(stream bool) error {
	if !stream || !d.prevOK {
		return ErrDeltaBase
	}
	if d.env.Epoch != d.prevEpoch {
		return errf("%w: base epoch %d, frame epoch %d", ErrDeltaBase, d.prevEpoch, d.env.Epoch)
	}
	return nil
}

// internTag maps a literal control tag onto its constant in ctlTags, so
// decoding it does not allocate. Unknown tags fall back to a fresh string.
func internTag(b []byte) string {
	for _, t := range ctlTags {
		if string(b) == t { // comparison-only conversion, not materialized by the compiler
			return t
		}
	}
	return string(b)
}
