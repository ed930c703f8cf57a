package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ocsml/internal/checkpoint"
	"ocsml/internal/fsstore"
	"ocsml/internal/protocol"
	"ocsml/internal/wire"
)

// The replays below run one layer at a time, on this goroutine alone,
// over what the live run actually carried or wrote. They give the costs
// a live run cannot attribute: ns and allocations per operation of one
// codec or one store, free of scheduling and of the other layers.

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// fsyncProbe times 50 rounds of a 4 KiB write + fsync in dir and returns
// the median in µs: what one durable write costs on this disk, before the
// store's own work.
func fsyncProbe(dir string) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	path := filepath.Join(dir, "fsync.probe")
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer f.Close()
	buf := make([]byte, 4096)
	var us []float64
	for i := 0; i < 50; i++ {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(start))/1e3)
	}
	return median(us), nil
}

// wireCost is the codec replay's result, per frame.
type wireCost struct {
	frames                 int
	encodeNs, encodeAllocs float64
	decodeNs, decodeAllocs float64
	bytesPerFrame          float64
	decodeErrors           int
}

// replayWire pushes the envelopes each process received, in arrival order,
// back through the codec the way the mesh does: Encoder.EncodeFrame into a
// pooled frame, then one PeerEncoder per connection (so piggybacks are
// delta-encoded against the same predecessor they had live), then one
// stateful Decoder per connection.
func replayWire(captured [][]protocol.Envelope) wireCost {
	var cost wireCost
	var enc wire.Encoder
	var frames [][]byte // encoded frames, grouped by connection below
	var conn []int      // frames[i] travelled on connection conn[i]
	encode := func(keep bool) {
		pes := make([]wire.PeerEncoder, clusterN*clusterN)
		var buf []byte
		for dst, envs := range captured {
			for i := range envs {
				e := &envs[i]
				f := wire.AcquireFrame()
				if err := enc.EncodeFrame(f, e); err != nil {
					f.Release()
					continue
				}
				c := e.Src*clusterN + dst
				buf, _ = pes[c].AppendFrame(buf[:0], f)
				f.Release()
				if keep {
					frames = append(frames, append([]byte(nil), buf...))
					conn = append(conn, c)
				}
			}
		}
	}
	encode(true) // warms the frame pool and keeps the bytes for decoding
	cost.frames = len(frames)
	if cost.frames == 0 {
		return cost
	}
	m0, t0 := mallocs(), time.Now()
	encode(false)
	cost.encodeNs = float64(time.Since(t0)) / float64(cost.frames)
	cost.encodeAllocs = float64(mallocs()-m0) / float64(cost.frames)

	decs := make([]wire.Decoder, clusterN*clusterN)
	var total int
	m0, t0 = mallocs(), time.Now()
	for i, fr := range frames {
		if _, err := decs[conn[i]].Decode(fr); err != nil {
			cost.decodeErrors++
		}
		total += len(fr)
	}
	cost.decodeNs = float64(time.Since(t0)) / float64(cost.frames)
	cost.decodeAllocs = float64(mallocs()-m0) / float64(cost.frames)
	cost.bytesPerFrame = float64(total) / float64(cost.frames)
	return cost
}

// storeCost is the fsstore replays' result.
type storeCost struct {
	records                    int
	finalizeUs, finalizeAllocs float64 // per record, real fsyncs included
	reopenMs                   float64
	loadUs                     float64 // per record
	recordsAtRecovery          int
}

// maxReplayRecords bounds the finalize replay (each batch pays real
// fsyncs).
const maxReplayRecords = 400

// replayFinalize writes one process's finalized records into a fresh store
// under dir through FinalizeBatch, depth records per group commit — the
// depth the live run averaged.
func replayFinalize(recs []checkpoint.Record, depth int, dir string) (storeCost, error) {
	var cost storeCost
	defer os.RemoveAll(dir)
	var in []checkpoint.Record
	for _, r := range recs {
		if r.Seq > 0 && len(in) < maxReplayRecords {
			in = append(in, r)
		}
	}
	if len(in) == 0 {
		return cost, nil
	}
	fs, err := fsstore.OpenWith(dir, 0, clusterN, fsstore.DefaultOptions())
	if err != nil {
		return cost, err
	}
	for i := range in {
		in[i].Proc = 0
	}
	m0, t0 := mallocs(), time.Now()
	for i := 0; i < len(in); i += depth {
		batch := in[i:min(i+depth, len(in))]
		if n, err := fs.FinalizeBatch(batch); err != nil || n != len(batch) {
			return cost, fmt.Errorf("finalize replay committed %d of %d: %v", n, len(batch), err)
		}
	}
	cost.records = len(in)
	cost.finalizeUs = float64(time.Since(t0)) / 1e3 / float64(len(in))
	cost.finalizeAllocs = float64(mallocs()-m0) / float64(len(in))
	return cost, nil
}

// replayReopen copies one process's store directory from datadir to dir
// and times what a restart does with it: OpenWith, then Load of every
// manifested record.
func replayReopen(datadir string, proc int, dir string) (storeCost, error) {
	var cost storeCost
	defer os.RemoveAll(dir)
	src, dst := fsstore.ProcDir(datadir, proc), fsstore.ProcDir(dir, proc)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return cost, err
	}
	names, err := os.ReadDir(src)
	if err != nil {
		return cost, err
	}
	for _, de := range names {
		raw, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			return cost, err
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), raw, 0o644); err != nil {
			return cost, err
		}
	}
	t0 := time.Now()
	fs, err := fsstore.OpenWith(dir, proc, clusterN, fsstore.DefaultOptions())
	if err != nil {
		return cost, err
	}
	cost.reopenMs = float64(time.Since(t0)) / 1e6
	seqs := fs.Manifest().Seqs
	sort.Ints(seqs)
	t0 = time.Now()
	for _, seq := range seqs {
		if _, err := fs.Load(seq); err != nil {
			return cost, fmt.Errorf("load S_%d of the copy: %w", seq, err)
		}
	}
	cost.recordsAtRecovery = len(seqs)
	cost.loadUs = ratio(float64(time.Since(t0))/1e3, float64(len(seqs)))
	return cost, nil
}
