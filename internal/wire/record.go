package wire

import (
	"encoding/binary"

	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
)

// minLogEntry is the fewest bytes one encoded log entry occupies: one per
// varint and the direction byte, eight for the tag. A count that the
// remaining input could not hold is refused before anything is allocated.
const minLogEntry = 8 + 8

// AppendRecord appends the encoding of a finalized checkpoint
// C_{i,k} = CT_{i,k} ∪ logSet_{i,k} onto buf — the durable form
// internal/fsstore frames into its segment log — and returns the extended
// buffer. Fields go in declaration order: integers and times as zig-zag
// varints, a logged message's LoggedAt as a delta from its SentAt, the
// hashes (Fold, CFEFold, a log entry's Tag) as fixed u64le, and the log
// as a uvarint count followed by its entries. It cannot fail, and
// DecodeRecord gives rec back exactly (an empty log as nil).
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
	for i := range rec.Log {
		m := &rec.Log[i]
		buf = binary.AppendVarint(buf, m.ID)
		buf = binary.AppendVarint(buf, int64(m.Src))
		buf = binary.AppendVarint(buf, int64(m.Dst))
		buf = append(buf, byte(m.Dir))
		buf = binary.AppendVarint(buf, int64(m.SentAt))
		buf = binary.AppendVarint(buf, int64(m.LoggedAt-m.SentAt))
		buf = binary.AppendVarint(buf, m.Bytes)
		buf = binary.LittleEndian.AppendUint64(buf, m.Tag)
		buf = binary.AppendVarint(buf, m.AppSeq)
	}
	return buf
}

// DecodeRecord parses one record AppendRecord encoded. The whole input
// must be consumed. Truncated input, trailing bytes, a log direction
// other than sent or received, and a log count the input is too short
// to hold are errors; nothing panics.
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
	dir := func() (b byte) {
		if err == nil {
			if b, err = r.byte(); err == nil && b > byte(checkpoint.Received) {
				err = errf("wire: logged message of direction %d", b)
			}
		}
		return b
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
	for i := range rec.Log {
		m := checkpoint.LoggedMsg{ID: vint(), Src: int(vint()), Dst: int(vint()), Dir: checkpoint.Direction(dir()),
			SentAt: des.Time(vint()), LoggedAt: des.Time(vint()), Bytes: vint(), Tag: u64(), AppSeq: vint()}
		m.LoggedAt += m.SentAt
		rec.Log[i] = m
	}
	if err == nil && r.off != len(data) {
		err = errf("%w: %d byte(s) after the record", ErrTrailing, len(data)-r.off)
	}
	if err != nil {
		return checkpoint.Record{}, err
	}
	return rec, nil
}
