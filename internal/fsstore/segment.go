package fsstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"ocsml/internal/checkpoint"
)

// The segmented append-only log: the only durable description of what
// a process has finalized. Records are framed and appended to numbered
// segment files:
//
//	<datadir>/p<id>/seg_000001.wal
//
// Each file starts with a fixed header (magic, owning proc, segment
// index) and then carries CRC-framed records:
//
//	[u32le payload length][u32le CRC-32 (IEEE) of payload][JSON payload]
//
// A frame is one of two kinds of segRecord. A full record is a
// self-contained checkpoint and binds its seq to that frame; a
// truncation record carries a rollback's line and unbinds every seq
// above it (and since a commit only extends the store's last seq, a
// full record implies the same of its own). Replaying the files in
// index order, each up to its first frame that fails to verify,
// therefore reproduces the history of commits and rollbacks with nothing
// else to consult. A commit cuts the file to end at its last frame
// before the one fsync, so whatever lies beyond the last verifying frame
// is an interrupted commit: never acknowledged, overwritten by the next
// commit, cut away on Open.
//
// MANIFEST.json beside the segments is a hint published after each
// commit for pollers of a live datadir. It is not synced and Open does
// not trust it for what is durable (see the package comment).

const (
	segMagic       = "OCSMSEG1"
	segHeaderSize  = len(segMagic) + 8 // magic + u32 proc + u32 index
	frameHeader    = 8                 // u32 length + u32 crc
	maxFrameLength = 1 << 30
)

// The record kinds. segFull's field and value are what every build since
// the segmented log has written for a full record, so no format version
// is needed. segTruncate is newer: a build that predates it refuses a
// directory holding one, untouched, exactly as this build refuses the
// delta kind older builds interleaved (errRecordKind).
const (
	segFull     = "full"
	segTruncate = "truncate"
)

// errRecordKind marks a CRC-valid frame whose kind this build does not
// read. It is a refusal, not a tear: Open returns it and repairs nothing.
var errRecordKind = errors.New("unsupported record kind")

// segRecord is one framed entry of a segment. A full record is a
// finalized checkpoint's state and its message log; the log always
// travels complete — selective logging already minimized it, and replay
// needs the exact entries. A truncation record has neither, and its Seq
// is the line: the highest seq the rollback kept.
type segRecord struct {
	Seq   int                    `json:"seq"`
	Kind  string                 `json:"kind"`
	State *ckptState             `json:"state,omitempty"`
	Log   []checkpoint.LoggedMsg `json:"log,omitempty"`
}

// record rehydrates the checkpoint a frame holds, checking the frame is
// whole: a state, and as many log entries as the state counted.
func (sr *segRecord) record() (checkpoint.Record, error) {
	if sr.Kind != segFull || sr.State == nil {
		return checkpoint.Record{}, fmt.Errorf("seq %d: frame is not a full record with state (kind %q)", sr.Seq, sr.Kind)
	}
	rec := recordOf(*sr.State, sr.Log)
	if len(rec.Log) != sr.State.LogEntries {
		return rec, fmt.Errorf("seq %d log has %d entries, checkpoint state says %d",
			sr.Seq, len(rec.Log), sr.State.LogEntries)
	}
	return rec, nil
}

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

// parseSegmentHeader validates a file header against the expected
// owner and index.
func parseSegmentHeader(b []byte, proc, index int) error {
	if len(b) < segHeaderSize || string(b[:len(segMagic)]) != segMagic {
		return fmt.Errorf("fsstore: segment %d: bad or torn header", index)
	}
	p := int(binary.LittleEndian.Uint32(b[len(segMagic):]))
	idx := int(binary.LittleEndian.Uint32(b[len(segMagic)+4:]))
	if p != proc || idx != index {
		return fmt.Errorf("fsstore: segment %d: header claims P%d seg %d", index, p, idx)
	}
	return nil
}

// appendFrame frames payload onto buf: length, CRC, bytes.
func appendFrame(buf, payload []byte) []byte {
	var h [frameHeader]byte
	binary.LittleEndian.PutUint32(h[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[4:], crc32.ChecksumIEEE(payload))
	buf = append(buf, h[:]...)
	return append(buf, payload...)
}

// recLoc locates one checkpoint record inside the segmented log.
type recLoc struct {
	seg  int   // segment index
	off  int64 // frame offset within the file
	size int64 // frame length including the frame header
}

// scannedFrame is what a segment scan keeps of one frame: where it sits
// and what replay needs of its payload (the checkpoint itself is read
// back by Load).
type scannedFrame struct {
	loc  recLoc
	seq  int
	kind string
}

// scanSegment reads one segment file and decodes its frames up to the
// first that fails to verify (short, CRC mismatch, not JSON), reporting
// the length of the verified prefix. A header that is torn or names
// another proc or index yields no frames. A frame that verifies but is
// of no kind this build reads fails the scan with errRecordKind: it is
// durable data of another build, never a tear.
func scanSegment(path string, proc, index int) (frames []scannedFrame, valid int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if parseSegmentHeader(data, proc, index) != nil {
		return nil, 0, nil
	}
	off := int64(segHeaderSize)
	for off < int64(len(data)) {
		rest := data[off:]
		if len(rest) < frameHeader {
			break
		}
		n := binary.LittleEndian.Uint32(rest[0:])
		crc := binary.LittleEndian.Uint32(rest[4:])
		if n > maxFrameLength || int64(frameHeader)+int64(n) > int64(len(rest)) {
			break
		}
		payload := rest[frameHeader : frameHeader+int(n)]
		if crc32.ChecksumIEEE(payload) != crc {
			break
		}
		var rec struct {
			Seq  int    `json:"seq"`
			Kind string `json:"kind"`
		}
		if json.Unmarshal(payload, &rec) != nil {
			break
		}
		if rec.Kind != segFull && rec.Kind != segTruncate {
			return nil, off, fmt.Errorf("fsstore: %s offset %d: %w %q (this build reads only %q and %q records; the directory was written by another build and is left untouched)",
				path, off, errRecordKind, rec.Kind, segFull, segTruncate)
		}
		size := int64(frameHeader) + int64(n)
		frames = append(frames, scannedFrame{loc: recLoc{seg: index, off: off, size: size}, seq: rec.Seq, kind: rec.Kind})
		off += size
	}
	return frames, off, nil
}

// readSegRecord re-reads one framed record from disk and verifies its
// CRC — the Load-time counterpart of scanSegment for a single frame.
func (s *Store) readSegRecord(loc recLoc) (segRecord, error) {
	var rec segRecord
	f, err := os.Open(SegmentFile(s.dir, loc.seg))
	if err != nil {
		return rec, err
	}
	defer f.Close()
	buf := make([]byte, loc.size)
	if _, err := f.ReadAt(buf, loc.off); err != nil {
		return rec, fmt.Errorf("fsstore: P%d segment %d offset %d: %w", s.proc, loc.seg, loc.off, err)
	}
	n := binary.LittleEndian.Uint32(buf[0:])
	crc := binary.LittleEndian.Uint32(buf[4:])
	if int64(frameHeader)+int64(n) != loc.size {
		return rec, fmt.Errorf("fsstore: P%d segment %d offset %d: frame length changed under the index", s.proc, loc.seg, loc.off)
	}
	payload := buf[frameHeader:]
	if crc32.ChecksumIEEE(payload) != crc {
		return rec, fmt.Errorf("fsstore: P%d segment %d offset %d: frame CRC mismatch", s.proc, loc.seg, loc.off)
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("fsstore: P%d segment %d offset %d: %w", s.proc, loc.seg, loc.off, err)
	}
	return rec, nil
}
