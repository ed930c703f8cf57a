// Package transport is the real-network runtime: it drives the same
// process host (internal/host) and protocol state machines as
// internal/engine (deterministic simulator), but on real time, with
// envelopes delivered over actual TCP connections between processes,
// serialized with the internal/wire codec and persisted with
// internal/fsstore.
//
// Three layers:
//
//   - frame.go: uvarint-length-prefixed framing over a TCP stream.
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

// MaxFrame bounds a frame's body size; a peer announcing a larger
// frame is corrupt (or hostile) and the connection is dropped rather
// than the memory allocated.
const MaxFrame = 1 << 20

// maxPrefix is the longest length prefix: a uvarint up to MaxFrame takes
// three bytes, so a fourth is a corrupt stream.
const maxPrefix = 3

// appendFrame appends the payload's length as a uvarint, then the
// payload, to buf.
func appendFrame(buf, payload []byte) ([]byte, error) {
	if len(payload) > MaxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds max %d", len(payload), MaxFrame)
	}
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
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
	frame, _, err := readFrameInto(r, nil)
	return frame, err
}

// readFrameInto reads one frame from r into buf's storage, growing it
// only when the frame doesn't fit — the allocation-free read path of a
// connection's reader loop — and returns it with the number of bytes it
// took off the stream, prefix included. The prefix comes off r a byte at
// a time, so a frame under 128 bytes (every app frame and ACK) costs a
// 1-byte read and a body read with no buffer between socket and decoder;
// a prefix longer than maxPrefix or announcing more than MaxFrame is
// refused before any of the body is read or allocated. The returned slice
// aliases buf (when capacity sufficed) and is valid until the next
// readFrameInto with the same buffer.
func readFrameInto(r io.Reader, buf []byte) ([]byte, int, error) {
	if cap(buf) == 0 {
		buf = make([]byte, 0, 64)
	}
	buf = buf[:1]
	var n uint64
	prefix := 0
	for {
		if prefix == maxPrefix {
			return buf, prefix, fmt.Errorf("transport: frame length prefix longer than %d bytes", maxPrefix)
		}
		if _, err := io.ReadFull(r, buf); err != nil {
			if prefix > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, prefix, err
		}
		n |= uint64(buf[0]&0x7f) << (7 * prefix)
		prefix++
		if buf[0] < 0x80 {
			break
		}
	}
	if n > MaxFrame {
		return buf, prefix, fmt.Errorf("transport: incoming frame of %d bytes exceeds max %d", n, MaxFrame)
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
		return buf, prefix, err
	}
	return buf, prefix + int(n), nil
}
