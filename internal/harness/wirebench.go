package harness

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ocsml/internal/core"
	"ocsml/internal/protocol"
	"ocsml/internal/transport"
	"ocsml/internal/wire"
)

// wireEnvelope is the hot-path message shape the wire benchmarks
// measure: an application message carrying a piggyback over an
// n-process cluster.
func wireEnvelope(n int) *protocol.Envelope {
	set := protocol.NewProcSet(n)
	set.Add(5 % n)
	return &protocol.Envelope{
		ID: 1, Src: 0, Dst: 1, Kind: protocol.KindApp,
		Bytes: 256 + 6, SentAt: 1,
		App:     protocol.AppMsg{Seq: 1, Bytes: 256, Tag: 7},
		Payload: core.Piggyback{Csn: 3, Stat: core.Tentative, TentSet: set},
	}
}

// W1 measures the wire codec's per-message cost on the app-message hot
// path: allocations per encode/decode and piggyback bytes per message,
// the allocating stateless Encode against the pooled delta path (rows
// keep their v1/v2 labels, which BENCH files key on). Allocation counts
// and byte counts are exact, so the table is deterministic.
func W1() Experiment {
	return Experiment{
		ID:    "W1",
		Title: "Wire codec hot path: allocs/msg and piggyback B/msg (N=64)",
		Claim: "steady-state encode and decode of an app-message frame allocate nothing, and the v2 delta rewrite shrinks the piggyback block from O(N) bitmap bytes to O(changed bits)",
		Run: func(s Scale) *Table {
			const N = 64
			tab := &Table{Columns: []string{"path", "allocs_per_msg", "pb_bytes_per_msg"}}

			e := wireEnvelope(N)
			v1Allocs := testing.AllocsPerRun(200, func() {
				if _, err := wire.Encode(e); err != nil {
					panic(err)
				}
			})
			fullPB, err := wire.PayloadSize(e)
			if err != nil {
				panic(err)
			}
			tab.AddRow("encode-v1", F(v1Allocs), I(fullPB))

			// The v2 path in its steady state: one tentSet bit changes per
			// message, the PeerEncoder rewrites the block into a delta.
			var enc wire.Encoder
			var pe wire.PeerEncoder
			f := wire.AcquireFrame()
			defer f.Release()
			var buf []byte
			flip := 0
			encodeOnce := func() int {
				pb := e.Payload.(core.Piggyback)
				pb.TentSet.Toggle(flip % N)
				flip++
				if err := enc.EncodeFrame(f, e); err != nil {
					panic(err)
				}
				var pbLen int
				buf, pbLen = pe.AppendFrame(buf[:0], f)
				return pbLen
			}
			encodeOnce() // first frame travels full: establishes the base
			deltaPB := encodeOnce()
			v2Allocs := testing.AllocsPerRun(200, func() { encodeOnce() })
			tab.AddRow("encode-v2-delta", F(v2Allocs), I(deltaPB))

			frame, err := wire.Encode(e)
			if err != nil {
				panic(err)
			}
			ownedAllocs := testing.AllocsPerRun(200, func() {
				if _, err := wire.Decode(frame); err != nil {
					panic(err)
				}
			})
			tab.AddRow("decode-owned", F(ownedAllocs), "-")

			dec := new(wire.Decoder)
			viewAllocs := testing.AllocsPerRun(200, func() {
				if _, err := dec.Decode(frame); err != nil {
					panic(err)
				}
			})
			tab.AddRow("decode-view", F(viewAllocs), "-")

			tab.Note("N=%d universe; steady state flips one tentSet bit per message", N)
			tab.Note("full piggyback block is %d B (O(N) bitmap), delta block %d B (O(changed bits))", fullPB, deltaPB)
			return tab
		},
	}
}

// W2 measures the live transport: sustained app-message throughput
// between two TCP processes on loopback, through the pooled encoder,
// the batched vectored writer, and the stateful delta decoder. The
// rate row is wall-clock measured and varies run to run.
func W2() Experiment {
	return Experiment{
		ID:    "W2",
		Title: "Live mesh throughput: batched writes + delta piggybacks",
		Claim: "the transport sustains hundreds of thousands of msgs/sec/node with piggyback wire cost independent of cluster size",
		Run: func(s Scale) *Table {
			total := 150000
			if s.Quick {
				total = 30000
			}
			rate, bpm, pbpm := runMeshThroughput(total)
			tab := &Table{Columns: []string{"msgs", "msgs_per_s_per_node", "bytes_per_msg", "pb_bytes_per_msg"}}
			tab.AddRow(I(total), F(rate), F(bpm), F(pbpm))
			tab.Note("2 live TCP processes on loopback, N=64 universe, one tentSet flip per 32 msgs")
			tab.Note("msgs_per_s_per_node is wall-clock measured and machine-dependent")
			return tab
		},
	}
}

// runMeshThroughput pushes total app messages through a 2-process
// loopback mesh and reports the sustained rate and per-message wire
// cost.
func runMeshThroughput(total int) (rate, bytesPerMsg, pbPerMsg float64) {
	const n = 64
	listeners := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(fmt.Sprintf("harness: wire bench listen: %v", err))
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	var delivered atomic.Int64
	accept := func(src int) func(frame []byte) {
		dec := new(wire.Decoder)
		return func(frame []byte) {
			if _, err := dec.Decode(frame); err != nil {
				panic(fmt.Sprintf("harness: wire bench decode: %v", err))
			}
			delivered.Add(1)
		}
	}
	sender, err := transport.NewMesh(transport.MeshConfig{ID: 0, Addrs: addrs, Seed: 1},
		listeners[0], func(int) func([]byte) { return func([]byte) {} })
	if err != nil {
		panic(err)
	}
	receiver, err := transport.NewMesh(transport.MeshConfig{ID: 1, Addrs: addrs, Seed: 2},
		listeners[1], accept)
	if err != nil {
		panic(err)
	}
	sender.Start()
	receiver.Start()
	defer sender.Close()
	defer receiver.Close()

	e := wireEnvelope(n)
	var enc wire.Encoder
	send := func() {
		f := wire.AcquireFrame()
		if err := enc.EncodeFrame(f, e); err != nil {
			panic(err)
		}
		sender.Send(1, f)
	}
	// Establish the connection before timing.
	send()
	deadline := time.Now().Add(60 * time.Second) //ocsml:wallclock live benchmark deadline
	for delivered.Load() < 1 {
		if time.Now().After(deadline) { //ocsml:wallclock live benchmark deadline
			panic("harness: wire bench connection never delivered")
		}
		time.Sleep(time.Millisecond)
	}

	base := sender.Stats()
	basePB := sender.PiggybackBytes()
	baseDelivered := delivered.Load()
	start := time.Now() //ocsml:wallclock live benchmark timing
	pb := e.Payload.(core.Piggyback)
	for i := 0; i < total; i++ {
		if i%32 == 0 {
			// Evolve the piggyback at a realistic cadence so deltas carry
			// an occasional flip rather than always being empty.
			pb.TentSet.Toggle(i / 32 % n)
		}
		// Window the sender below the 8192-frame queue so nothing drops.
		for int64(i)-(delivered.Load()-baseDelivered) > 4096 {
			time.Sleep(50 * time.Microsecond)
		}
		send()
	}
	for delivered.Load()-baseDelivered < int64(total) {
		if time.Now().After(deadline) { //ocsml:wallclock live benchmark deadline
			panic("harness: wire bench delivery stalled")
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start) //ocsml:wallclock live benchmark timing

	st := sender.Stats()
	msgs := float64(st.FramesSent - base.FramesSent)
	rate = msgs / elapsed.Seconds()
	bytesPerMsg = float64(st.BytesSent-base.BytesSent) / msgs
	pbPerMsg = float64(sender.PiggybackBytes()-basePB) / msgs
	return rate, bytesPerMsg, pbPerMsg
}
