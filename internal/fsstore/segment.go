package fsstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"ocsml/internal/checkpoint"
	"ocsml/internal/wire"
)

// The segmented append-only log: the only durable description of what
// a process has finalized. Records are framed and appended to numbered
// segment files:
//
//	<datadir>/p<id>/seg_000001.wal
//
// Each file starts with a fixed header (magic, owning proc, segment
// index), which is the owner check — a log whose header names another
// process is refused, untouched — and then carries CRC-framed records:
//
//	[u32le payload length][u32le CRC-32 (IEEE) of payload][payload]
//
// A payload is a kind byte and then, for a full record, the uvarint seq
// and the checkpoint in wire's record encoding (wire.AppendRecord), or,
// for a truncation record, the line as a fixed u64le. A full record is a
// self-contained checkpoint and binds its seq to that frame; a
// truncation record unbinds every seq above its line (and since a commit
// only extends the store's last seq, a full record implies the same of
// its own). Replaying the files in index order, each up to its first
// frame that fails to verify, therefore reproduces the history of commits
// and rollbacks with nothing else to consult. A commit cuts the file to
// end at its last frame before the one fsync, so whatever lies beyond the
// last verifying frame is an interrupted commit: never acknowledged,
// overwritten by the next commit, cut away on Open. Nothing else lives
// beside the segments: Open and every poller read the log itself.

const (
	segMagic       = "OCSMSEG2"
	segHeaderSize  = len(segMagic) + 8 // magic + u32 proc + u32 index
	frameHeader    = 8                 // u32 length + u32 crc
	maxFrameLength = 1 << 30
	// prevSegMagic headed the segments of builds that framed JSON records.
	// This build refuses them (errPreviousFormat); it never reads them.
	prevSegMagic = "OCSMSEG1"
)

// The record kinds, the first byte of every payload. A build that meets
// a kind it does not know refuses the directory, untouched
// (errRecordKind), so a kind can be added without a new magic. A change
// to the checkpoint encoding takes a new full kind: kind 1 held records
// without Tentative.JoinedBy, kind 3 log entries with two timestamps and
// absolute IDs and sequence numbers, and this build refuses both as
// unknown, as a build of kind 3 refuses kind 4.
const (
	kindTruncate byte = 2
	kindFull     byte = 4
)

// errRecordKind marks a CRC-valid frame whose kind this build does not
// read. It is a refusal, not a tear: Open returns it and repairs nothing.
var errRecordKind = errors.New("unsupported record kind")

// errPreviousFormat marks a whole segment header of the previous format.
// Like errRecordKind it is a refusal: the segment holds acknowledged
// checkpoints, so it must not be swept as debris.
var errPreviousFormat = errors.New("segment of the previous format")

// SegmentFile returns the path of segment index inside a process's
// store directory (dir is ProcDir(datadir, proc)). Exported for the
// chaos runner, which plants torn-segment crash debris from outside the
// package.
func SegmentFile(dir string, index int) string {
	return filepath.Join(dir, fmt.Sprintf("seg_%06d.wal", index))
}

// parseSegmentName extracts the index from a segment file name.
func parseSegmentName(name string) (index int, ok bool) {
	if _, err := fmt.Sscanf(name, "seg_%06d.wal", &index); err != nil {
		return 0, false
	}
	return index, true
}

// segmentHeader encodes the fixed file header.
func segmentHeader(proc, index int) []byte {
	h := make([]byte, segHeaderSize)
	copy(h, segMagic)
	binary.LittleEndian.PutUint32(h[len(segMagic):], uint32(proc))
	binary.LittleEndian.PutUint32(h[len(segMagic)+4:], uint32(index))
	return h
}

// appendFullFrame frames rec onto buf as a full record, encoding it in
// place: no payload is built apart from buf.
func appendFullFrame(buf []byte, rec *checkpoint.Record) []byte {
	buf, start := openFrame(buf, kindFull)
	buf = binary.AppendUvarint(buf, uint64(rec.Seq))
	return sealFrame(wire.AppendRecord(buf, rec), start)
}

// appendTruncateFrame frames a rollback to line onto buf.
func appendTruncateFrame(buf []byte, line int) []byte {
	buf, start := openFrame(buf, kindTruncate)
	return sealFrame(binary.LittleEndian.AppendUint64(buf, uint64(line)), start)
}

// openFrame starts a frame of kind at the end of buf with its header left
// blank. The payload is appended behind the kind byte, and sealFrame(buf,
// start) then fills the header in.
func openFrame(buf []byte, kind byte) (_ []byte, start int) {
	var h [frameHeader]byte
	return append(append(buf, h[:]...), kind), len(buf)
}

// sealFrame fills in the header of the frame that starts at buf[start]
// and runs to the end of buf: length and CRC of the payload behind it.
func sealFrame(buf []byte, start int) []byte {
	payload := buf[start+frameHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// parseFrame splits a CRC-verified payload into its kind, its seq (a full
// record's own, a truncation record's line) and, for a full record, the
// record's encoding. ok is false for a payload no writer produces, which
// the scan treats like a frame that fails to verify; a payload of a kind
// this build does not know parses, and the caller refuses it.
func parseFrame(payload []byte) (kind byte, seq int, body []byte, ok bool) {
	if len(payload) == 0 {
		return 0, 0, nil, false
	}
	kind, rest := payload[0], payload[1:]
	switch kind {
	case kindFull:
		q, n := binary.Uvarint(rest)
		if n <= 0 || int(q) < 0 {
			return kind, 0, nil, false
		}
		return kind, int(q), rest[n:], true
	case kindTruncate:
		if len(rest) != 8 {
			return kind, 0, nil, false
		}
		return kind, int(int64(binary.LittleEndian.Uint64(rest))), nil, true
	}
	return kind, 0, nil, true
}

// recLoc locates one checkpoint record inside the segmented log.
type recLoc struct {
	seg  int   // segment index
	off  int64 // frame offset within the file
	size int64 // frame length including the frame header
}

// scannedFrame is what a segment scan reports of one frame: where it sits
// and what replay needs of its payload (the checkpoint itself is read
// back by Load).
type scannedFrame struct {
	loc  recLoc
	seq  int
	kind byte
}

// bind applies one frame to seqs, what the log binds so far (ascending),
// and returns the result. Every seq above the frame's seq — a full
// record's own, a truncation record's line — is unbound: a commit only
// ever extends the store's last seq, so whatever the log still binds above
// a committed seq had been rolled back or collected by then. A full record
// then binds its seq, which ends the result (a re-finalized seq's later
// frame wins). Open's replay and the pollers' scan both go through here,
// so they agree frame for frame.
func bind(seqs []int, fr scannedFrame) []int {
	for len(seqs) > 0 && seqs[len(seqs)-1] > fr.seq {
		seqs = seqs[:len(seqs)-1]
	}
	if fr.kind == kindFull && (len(seqs) == 0 || seqs[len(seqs)-1] != fr.seq) {
		seqs = append(seqs, fr.seq)
	}
	return seqs
}

// errForeignSegment marks a whole segment header that names another
// process: a log moved into the wrong directory. Like errPreviousFormat
// it is a refusal, since the segment holds another process's acknowledged
// checkpoints and sweeping it as debris would destroy them.
var errForeignSegment = errors.New("segment of another process")

// scanSegment streams one segment file, src, through r, reporting its
// frames in order to each up to the first that fails to verify (short,
// CRC mismatch, a payload no writer produces), and returns the length of
// the verified prefix. A header that is torn, or names this process but
// another index, reports no frames. Only the end of the file makes a
// header or a frame short: any other read error fails the scan, since a
// file that could not be read says nothing about what it holds. Three
// things fail the scan too, as durable data that is not this log's to
// repair: a whole header of another process (errForeignSegment) or of the
// previous format (errPreviousFormat), and a frame that verifies but is
// of no kind this build reads (errRecordKind). r is the caller's, reset
// to src here, so a scan of many files allocates no buffer per file or
// per frame; path names src in errors.
func scanSegment(r *bufio.Reader, src io.Reader, path string, proc, index int, each func(scannedFrame)) (valid int64, err error) {
	r.Reset(src)
	off := int64(0)
	// short ends the scan at a read that came up short: at the end of the
	// file that is a torn header or tail, anything else is an error.
	short := func(err error) (int64, error) {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return off, nil
		}
		return off, fmt.Errorf("fsstore: %s offset %d: %w", path, off, err)
	}
	h, err := r.Peek(segHeaderSize)
	if err != nil {
		return short(err)
	}
	p := int(binary.LittleEndian.Uint32(h[len(segMagic):]))
	idx := int(binary.LittleEndian.Uint32(h[len(segMagic)+4:]))
	switch {
	case string(h[:len(prevSegMagic)]) == prevSegMagic:
		return 0, fmt.Errorf("fsstore: %s: %w %q (JSON records; this build reads only %q segments, and the directory is left untouched)",
			path, errPreviousFormat, prevSegMagic, segMagic)
	case string(h[:len(segMagic)]) != segMagic:
		return 0, nil // torn header
	case p != proc:
		return 0, fmt.Errorf("fsstore: %s: %w: its header names P%d, not P%d (the directory is left untouched)",
			path, errForeignSegment, p, proc)
	case idx != index:
		return 0, nil // a copy of another segment of this log
	}
	r.Discard(segHeaderSize)
	off = int64(segHeaderSize)
	for {
		fh, err := r.Peek(frameHeader)
		if err != nil {
			return short(err)
		}
		n, sum := int64(binary.LittleEndian.Uint32(fh)), binary.LittleEndian.Uint32(fh[4:])
		if n > maxFrameLength {
			return off, nil
		}
		r.Discard(frameHeader)
		// The kind and the seq sit in the payload's first bytes (a kind
		// byte, then a uvarint or a truncation's 8-byte line); the CRC
		// covers all of it, read a buffer at a time.
		head, err := r.Peek(int(min(n, 1+binary.MaxVarintLen64)))
		if err != nil {
			return short(err)
		}
		kind, seq, _, ok := parseFrame(head)
		crc := uint32(0)
		for left := n; left > 0; {
			chunk, err := r.Peek(int(min(left, int64(r.Size()))))
			if err != nil {
				return short(err)
			}
			crc = crc32.Update(crc, crc32.IEEETable, chunk)
			r.Discard(len(chunk))
			left -= int64(len(chunk))
		}
		if crc != sum || !ok {
			return off, nil
		}
		if kind != kindFull && kind != kindTruncate {
			return off, fmt.Errorf("fsstore: %s offset %d: %w %d (this build reads only full (%d) and truncation (%d) records; the directory was written by another build and is left untouched)",
				path, off, errRecordKind, kind, kindFull, kindTruncate)
		}
		size := frameHeader + n
		each(scannedFrame{loc: recLoc{seg: index, off: off, size: size}, seq: seq, kind: kind})
		off += size
	}
}

// readFrame re-reads one frame from disk, verifies it as scanSegment did
// and returns its payload.
func (s *Store) readFrame(loc recLoc) ([]byte, error) {
	f, err := os.Open(SegmentFile(s.dir, loc.seg))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, loc.size)
	if _, err := f.ReadAt(buf, loc.off); err != nil {
		return nil, fmt.Errorf("fsstore: P%d segment %d offset %d: %w", s.proc, loc.seg, loc.off, err)
	}
	payload, ok := frameAt(buf)
	if !ok || len(payload) != len(buf)-frameHeader {
		return nil, fmt.Errorf("fsstore: P%d segment %d offset %d: the frame no longer verifies (length or CRC changed under the index)", s.proc, loc.seg, loc.off)
	}
	return payload, nil
}

// frameAt returns the payload of the frame b starts with, or ok false if
// b does not start with a whole frame whose CRC verifies.
func frameAt(b []byte) (payload []byte, ok bool) {
	if len(b) < frameHeader {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxFrameLength || int64(frameHeader)+int64(n) > int64(len(b)) {
		return nil, false
	}
	payload = b[frameHeader : frameHeader+int(n)]
	return payload, crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(b[4:])
}
