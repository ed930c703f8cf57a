package wire

import (
	"encoding/binary"

	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
)

// minLogEntry is the fewest bytes one encoded log entry occupies: one
// per varint (key, ID, Bytes, AppSeq) and eight for the tag. A count the
// remaining input could not hold is refused before anything is allocated.
const minLogEntry = 1 + 1 + 1 + 8 + 1

// AppendRecord appends the encoding of a finalized checkpoint
// C_{i,k} = CT_{i,k} ∪ logSet_{i,k} onto buf — the durable form
// internal/fsstore frames into its segment log — and returns the extended
// buffer. Fields go in declaration order: integers and times as zig-zag
// varints, the hashes (Fold, CFEFold, a log entry's Tag) as fixed u64le,
// and the log as a uvarint count followed by its entries. An entry is a
// varint key peer<<2 | dir<<1, peer being the endpoint that is not
// rec.Proc (or, for an entry not of rec.Proc or a peer beyond 62 bits,
// dir<<1 | 1 followed by Src and Dst); ID as a delta from the previous
// entry on its link's slot (links); Bytes; Tag; AppSeq as a delta like
// ID. It cannot fail, and DecodeRecord gives rec back exactly (an empty
// log as nil) when every Dir is Sent or Received.
func AppendRecord(buf []byte, rec *checkpoint.Record) []byte {
	buf = binary.AppendVarint(buf, int64(rec.Proc))
	buf = binary.AppendVarint(buf, int64(rec.Seq))
	buf = binary.AppendVarint(buf, int64(rec.TakenAt))
	buf = binary.AppendVarint(buf, rec.StateBytes)
	buf = binary.LittleEndian.AppendUint64(buf, rec.Fold)
	buf = binary.AppendVarint(buf, rec.Work)
	buf = binary.AppendVarint(buf, rec.Progress)
	buf = binary.AppendVarint(buf, int64(rec.FlushedAt))
	buf = binary.AppendVarint(buf, rec.JoinedBy)
	buf = binary.AppendVarint(buf, int64(rec.FinalizedAt))
	buf = binary.LittleEndian.AppendUint64(buf, rec.CFEFold)
	buf = binary.AppendVarint(buf, rec.CFEWork)
	buf = binary.AppendVarint(buf, rec.CFEProgress)
	buf = binary.AppendVarint(buf, int64(rec.StableAt))
	buf = binary.AppendUvarint(buf, uint64(len(rec.Log)))
	var t links
	for i := range rec.Log {
		m := &rec.Log[i]
		var dir int64
		own, peer := m.Src, m.Dst
		if m.Dir != checkpoint.Sent {
			dir, own, peer = 1, m.Dst, m.Src
		}
		if key := int64(peer)<<2 | dir<<1; own == rec.Proc && key>>2 == int64(peer) {
			buf = binary.AppendVarint(buf, key)
		} else {
			buf = binary.AppendVarint(buf, dir<<1|1)
			buf = binary.AppendVarint(buf, int64(m.Src))
			buf = binary.AppendVarint(buf, int64(m.Dst))
		}
		l := t.slot(m.Src, m.Dst, checkpoint.Direction(dir))
		buf = binary.AppendVarint(buf, m.ID-l.id)
		buf = binary.AppendVarint(buf, m.Bytes)
		buf = binary.LittleEndian.AppendUint64(buf, m.Tag)
		buf = binary.AppendVarint(buf, m.AppSeq-l.appSeq)
		l.id, l.appSeq = m.ID, m.AppSeq
	}
	return buf
}

// linkSlots is the size of the table of delta bases. A process of a
// cluster of up to 8 has a slot per link (Src, Dst, Dir); beyond, links
// share slots, which costs bytes, not correctness.
const linkSlots = 16

// links holds, per slot, the ID and AppSeq of the latest entry whose link
// maps to it (zero before the first). AppendRecord and DecodeRecord update
// it in step, so a lookup is one probe whatever the log holds.
type links [linkSlots]struct{ id, appSeq int64 }

// slot returns the delta bases of link (src, dst, dir).
func (t *links) slot(src, dst int, dir checkpoint.Direction) *struct{ id, appSeq int64 } {
	return &t[(uint(src+dst)*2+uint(dir))%linkSlots]
}

// DecodeRecord parses one record AppendRecord encoded. The whole input
// must be consumed. Truncated input, trailing bytes and a log count the
// input is too short to hold are errors; nothing panics. Every key
// decodes: in an explicit key the peer bits are not read.
func DecodeRecord(data []byte) (checkpoint.Record, error) {
	r := reader{b: data}
	var err error
	// Once a read fails every later one is a no-op returning zero, so the
	// fields read in the order AppendRecord wrote them — Go evaluates the
	// calls of a composite literal left to right — and err is checked once.
	vint := func() (v int64) {
		if err == nil {
			v, err = r.varint()
		}
		return v
	}
	u64 := func() (v uint64) {
		if err == nil {
			v, err = r.u64()
		}
		return v
	}
	rec := checkpoint.Record{
		Tentative: checkpoint.Tentative{Proc: int(vint()), Seq: int(vint()), TakenAt: des.Time(vint()),
			StateBytes: vint(), Fold: u64(), Work: vint(), Progress: vint(), FlushedAt: des.Time(vint()), JoinedBy: vint()},
		FinalizedAt: des.Time(vint()), CFEFold: u64(), CFEWork: vint(), CFEProgress: vint(), StableAt: des.Time(vint()),
	}
	var count uint64
	if err == nil {
		count, err = r.uvarint()
	}
	if err == nil && count > uint64(len(data)-r.off)/minLogEntry {
		err = errf("wire: record log of %d entries in %d bytes", count, len(data)-r.off)
	}
	if err == nil && count > 0 {
		rec.Log = make([]checkpoint.LoggedMsg, count)
	}
	var t links
	for i := range rec.Log {
		m := &rec.Log[i]
		key := vint()
		m.Dir = checkpoint.Direction(key >> 1 & 1)
		switch {
		case key&1 == 1:
			m.Src, m.Dst = int(vint()), int(vint())
		case m.Dir == checkpoint.Sent:
			m.Src, m.Dst = rec.Proc, int(key>>2)
		default:
			m.Src, m.Dst = int(key>>2), rec.Proc
		}
		l := t.slot(m.Src, m.Dst, m.Dir)
		m.ID = l.id + vint()
		m.Bytes = vint()
		m.Tag = u64()
		m.AppSeq = l.appSeq + vint()
		l.id, l.appSeq = m.ID, m.AppSeq
	}
	if err == nil && r.off != len(data) {
		err = errf("%w: %d byte(s) after the record", ErrTrailing, len(data)-r.off)
	}
	if err != nil {
		return checkpoint.Record{}, err
	}
	return rec, nil
}
