// Package transport is the real-network runtime: it drives the same
// process host (internal/host) and protocol state machines as
// internal/engine (deterministic simulator), but on real time, with
// envelopes delivered over actual TCP connections between processes,
// serialized with the internal/wire codec and persisted with
// internal/fsstore.
//
// Three layers:
//
//   - frame.go: length-prefixed framing over a TCP stream.
//   - mesh.go: the peer mesh — one listener plus N−1 dialed connections
//     per process, per-peer writer goroutines, reconnect with jittered
//     exponential backoff.
//   - node.go / cluster.go: protocol.Env hosts on real time, and the
//     Cluster that hosts k of the N of them in one OS process — one
//     process of a deployment (ocsmld -id/-peers) or the whole cluster
//     talking to itself over localhost TCP (ocsmld -spawn-all).
package transport

import (
	"encoding/binary"
	"fmt"
	"io"
)

// MaxFrame bounds a frame's payload size; a peer announcing a larger
// frame is corrupt (or hostile) and the connection is dropped rather
// than the memory allocated.
const MaxFrame = 1 << 20

// frameHeader is the length prefix size (big-endian uint32).
const frameHeader = 4

// appendFrame appends the 4-byte length prefix and the payload to buf.
func appendFrame(buf, payload []byte) ([]byte, error) {
	if len(payload) > MaxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds max %d", len(payload), MaxFrame)
	}
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...), nil
}

// writeFrame writes one length-prefixed frame to w.
func writeFrame(w io.Writer, payload []byte) error {
	buf, err := appendFrame(nil, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// readFrame reads one length-prefixed frame from r. It returns io.EOF
// cleanly only when the stream ends exactly on a frame boundary.
func readFrame(r io.Reader) ([]byte, error) {
	return readFrameInto(r, nil)
}

// readFrameInto reads one length-prefixed frame from r into buf's
// storage, growing it only when the frame doesn't fit — the
// allocation-free read path of a connection's reader loop. The returned
// slice aliases buf (when capacity sufficed) and is valid until the
// next readFrameInto with the same buffer.
func readFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return buf, fmt.Errorf("transport: incoming frame of %d bytes exceeds max %d", n, MaxFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, err
	}
	return buf, nil
}
