package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ocsml/internal/core"
	"ocsml/internal/protocol"
	"ocsml/internal/wire"
)

// frameSizes straddle every prefix length: 1, 2 and 3 bytes, up to MaxFrame.
var frameSizes = []int{0, 1, 127, 128, 16383, 16384, MaxFrame}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	for _, n := range frameSizes {
		if err := writeFrame(&buf, bytes.Repeat([]byte{0xab}, n)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range frameSizes {
		got, took, err := readFrameInto(&buf, nil)
		if err != nil {
			t.Fatalf("frame of %d bytes: %v", n, err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{0xab}, n)) {
			t.Fatalf("frame of %d bytes mismatch", n)
		}
		if want := len(binary.AppendUvarint(nil, uint64(n))) + n; took != want {
			t.Fatalf("frame of %d bytes took %d bytes off the stream, want %d", n, took, want)
		}
	}
}

// TestFrameOversizedRejected: a frame over MaxFrame is refused on write.
// On read, a prefix the format cannot carry — a fourth continuation byte,
// a length over MaxFrame — is refused before any of the body is read or
// allocated, a truncated body errors, and a hello of the retired framing
// (a 4-byte big-endian length) is no hello.
func TestFrameOversizedRejected(t *testing.T) {
	if err := writeFrame(&bytes.Buffer{}, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversized frame accepted on write")
	}
	for name, in := range map[string][]byte{
		"a 4th continuation byte": {0xff, 0xff, 0xff, 0x01},
		"a length above MaxFrame": binary.AppendUvarint(nil, MaxFrame+1),
	} {
		buf := make([]byte, 0, 16)
		got, _, err := readFrameInto(bytes.NewReader(in), buf)
		if err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: err = %v, want the prefix refused", name, err)
		}
		if cap(got) != cap(buf) {
			t.Fatalf("%s: a %d-byte body was allocated", name, cap(got))
		}
	}
	if _, err := readFrame(bytes.NewReader([]byte{10, 1, 2})); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if _, _, err := readHello(bytes.NewReader(oldHello), 2); err == nil {
		t.Fatal("a hello of the retired framing was accepted")
	}
}

// oldHello is what a build of the retired framing opens a connection
// with: a 4-byte big-endian length, hello version 2, id 1, incarnation 7.
var oldHello = []byte{0, 0, 0, 3, 2, 1, 7}

// TestMeshDropsUnreadablePrefix: a connection whose dialer sends a hello
// of the retired framing, or a prefix the format cannot carry after a
// good hello, is closed by the acceptor — without a hello reply in the
// first case — and nothing of it reaches the handler.
func TestMeshDropsUnreadablePrefix(t *testing.T) {
	var handled atomic.Int64
	meshes := meshRig(t, 2, func(int) func(int, []byte) {
		return func(int, []byte) { handled.Add(1) }
	})
	defer meshes[1].Close()
	defer meshes[0].Close()
	for name, tc := range map[string]struct {
		hello bool
		in    []byte
	}{
		"an old 4-byte-prefixed hello": {false, oldHello},
		"a 4th continuation byte":      {true, []byte{0x80, 0x80, 0x80, 0x01}},
		"a length above MaxFrame":      {true, binary.AppendUvarint(nil, MaxFrame+1)},
	} {
		c, err := net.Dial("tcp", meshes[0].cfg.Addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(5 * time.Second))
		if tc.hello {
			if err := writeHello(c, 1, 7); err != nil {
				t.Fatal(err)
			}
			if _, _, err := readHello(c, 2); err != nil {
				t.Fatalf("%s: no hello reply: %v", name, err)
			}
		}
		if _, err := c.Write(tc.in); err != nil {
			t.Fatal(err)
		}
		// EOF, or a reset when the acceptor closed with our bytes unread.
		n, err := c.Read(make([]byte, 64))
		if ne, ok := err.(net.Error); err == nil || ok && ne.Timeout() {
			t.Fatalf("%s: read %d bytes, err %v; want the connection closed", name, n, err)
		}
		c.Close()
	}
	if n := handled.Load(); n != 0 {
		t.Fatalf("%d frames reached the handler", n)
	}
}

// TestMeshByteConservation: after a drained exchange of frames of every
// prefix length, what the meshes counted as sent equals what they counted
// as received — frames and bytes, each prefix at its real length — and
// the bytes are exactly the frames plus their prefixes.
func TestMeshByteConservation(t *testing.T) {
	var frames atomic.Int64
	meshes := meshRig(t, 2, func(int) func(int, []byte) {
		return func(int, []byte) { frames.Add(1) }
	})
	defer meshes[1].Close()
	defer meshes[0].Close()
	var want int64
	for i, m := range meshes {
		for _, n := range frameSizes {
			m.Send(1-i, wire.RawFrame(make([]byte, n)))
			want += int64(len(binary.AppendUvarint(nil, uint64(n))) + n)
		}
	}
	sent := int64(2 * len(frameSizes))
	waitFor(t, 10*time.Second, func() bool { return frames.Load() == sent })
	var s MeshStats
	for _, m := range meshes {
		st := m.Stats()
		s.FramesSent += st.FramesSent
		s.FramesRecv += st.FramesRecv
		s.BytesSent += st.BytesSent
		s.BytesRecv += st.BytesRecv
	}
	if s.FramesSent != sent || s.FramesRecv != sent {
		t.Fatalf("frames sent %d, received %d, want %d each", s.FramesSent, s.FramesRecv, sent)
	}
	if s.BytesSent != want || s.BytesRecv != want {
		t.Fatalf("bytes sent %d, received %d, want %d each", s.BytesSent, s.BytesRecv, want)
	}
}

// TestUnframeableFrameDropped: a frame whose stateless encoding is a few
// bytes under MaxFrame but whose stream encoding is not — its ID lies far
// behind the base the previous frame set — is dropped before the
// connection's base moves, and never written as a frame the reader
// refuses: the frames around it arrive intact on the same connection.
func TestUnframeableFrameDropped(t *testing.T) {
	var mu sync.Mutex
	var got []*protocol.Envelope
	dec := wire.NewDecoder(0, 1) // one connection, 0 -> 1
	meshes := meshRig(t, 2, func(int) func(int, []byte) {
		return func(_ int, frame []byte) {
			e, err := dec.DecodeOwned(frame)
			if err != nil {
				t.Errorf("decode: %v", err)
				return
			}
			mu.Lock()
			got = append(got, e)
			mu.Unlock()
		}
	})
	defer meshes[1].Close()
	defer meshes[0].Close()

	req := func(id int64) *protocol.Envelope {
		return &protocol.Envelope{ID: id, Src: 0, Dst: 1, Kind: protocol.KindCtl,
			CtlTag: core.TagREQ, Payload: core.CtlMsg{Csn: 3}}
	}
	big := &protocol.Envelope{ID: 1, Src: 0, Dst: 1, Kind: protocol.KindCtl, CtlTag: protocol.TagRbLine}
	for seqs := MaxFrame - 64; ; seqs++ {
		big.Payload = protocol.RbMsg{Seqs: make([]int, seqs)}
		if b, err := wire.Encode(big); err != nil {
			t.Fatal(err)
		} else if len(b) >= MaxFrame-2 {
			break
		}
	}
	want := []*protocol.Envelope{req(1 << 62), req(1<<62 + 1), req(1<<62 + 2)}
	var enc wire.Encoder
	for _, e := range []*protocol.Envelope{want[0], big, want[1], want[2]} {
		f := wire.AcquireFrame()
		if err := enc.EncodeFrame(f, e); err != nil {
			t.Fatal(err)
		}
		meshes[0].Send(1, f)
	}
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= len(want)
	})
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("received %v, want %v", got, want)
	}
	if s := meshes[0].Stats(); s.Dropped != 1 || s.Reconnects != 0 {
		t.Fatalf("dropped %d, reconnects %d; want the big frame dropped on a kept connection", s.Dropped, s.Reconnects)
	}
}

// meshRig builds an n-process mesh fabric on localhost.
func meshRig(t *testing.T, n int, handler func(me int) func(src int, frame []byte)) []*Mesh {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	meshes := make([]*Mesh, n)
	for i := 0; i < n; i++ {
		h := handler(i)
		m, err := NewMesh(MeshConfig{ID: i, Addrs: addrs, Seed: 42}, listeners[i],
			func(src int) func(frame []byte) {
				return func(frame []byte) { h(src, frame) }
			})
		if err != nil {
			t.Fatal(err)
		}
		meshes[i] = m
	}
	for _, m := range meshes {
		m.Start()
	}
	return meshes
}

func TestMeshAllPairsDelivery(t *testing.T) {
	const n = 3
	const perPair = 20
	var mu sync.Mutex
	got := map[string]int{} // "src->dst" count
	meshes := meshRig(t, n, func(me int) func(int, []byte) {
		return func(src int, frame []byte) {
			mu.Lock()
			got[fmt.Sprintf("%d->%d:%s", src, me, frame)]++
			mu.Unlock()
		}
	})
	defer func() {
		for _, m := range meshes {
			m.Close()
		}
	}()
	for i, m := range meshes {
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			for k := 0; k < perPair; k++ {
				m.Send(j, wire.RawFrame([]byte(fmt.Sprintf("m%d", k))))
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		total := 0
		for _, c := range got {
			total += c
		}
		mu.Unlock()
		if total == n*(n-1)*perPair {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d frames", total, n*(n-1)*perPair)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for key, c := range got {
		if c != 1 {
			t.Fatalf("frame %s delivered %d times", key, c)
		}
	}
	for _, m := range meshes {
		if s := m.Stats(); s.FramesSent != int64((n-1)*perPair) {
			t.Fatalf("stats framesSent = %d, want %d", s.FramesSent, (n-1)*perPair)
		}
	}
}

func TestMeshReconnect(t *testing.T) {
	// Two processes; P1 dies and is reborn at the same address. P0's
	// writer must reconnect and resume delivery.
	r := newPairRig(t)
	m1 := r.start1()
	r.deliverOne("before")
	m1.Close()
	// One frame, offered once the death is visible, reaches the new
	// incarnation over the re-established connection. The loss that
	// remains is a frame written before the EOF arrived — the recovery
	// tick's and the reliable middleware's job, not the mesh's.
	waitFor(t, time.Second, func() bool { return !r.m0.Peers()[0].Connected })
	r.start1()
	r.deliverOne("after")
	if got := r.m0.Stats().Reconnects; got < 1 {
		t.Fatalf("reconnects = %d, want >= 1", got)
	}
}

// pairRig is a two-process fabric whose P1 can die and be reborn at its
// address: P0 is started and discards what it receives, P1's incarnations
// (start1) append to recv.
type pairRig struct {
	t     *testing.T
	addrs []string
	m0    *Mesh
	mu    sync.Mutex
	recv  []string
}

func newPairRig(t *testing.T) *pairRig {
	t.Helper()
	r := &pairRig{t: t}
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r.addrs = []string{ln0.Addr().String(), ln1.Addr().String()}
	ln1.Close() // reserved: start1 rebinds it, until then it refuses
	r.m0, err = NewMesh(MeshConfig{ID: 0, Addrs: r.addrs, Seed: 1},
		ln0, func(int) func([]byte) { return func([]byte) {} })
	if err != nil {
		t.Fatal(err)
	}
	r.m0.Start()
	t.Cleanup(r.m0.Close)
	return r
}

// start1 binds P1's address and starts an incarnation of it there.
func (r *pairRig) start1() *Mesh {
	r.t.Helper()
	ln, err := net.Listen("tcp", r.addrs[1])
	if err != nil {
		r.t.Fatal(err)
	}
	m, err := NewMesh(MeshConfig{ID: 1, Addrs: r.addrs, Seed: 2}, ln, func(int) func([]byte) {
		return func(frame []byte) {
			r.mu.Lock()
			r.recv = append(r.recv, string(frame))
			r.mu.Unlock()
		}
	})
	if err != nil {
		r.t.Fatal(err)
	}
	m.Start()
	r.t.Cleanup(m.Close)
	return m
}

func (r *pairRig) received() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.recv...)
}

// deliverOne sends one frame P0 -> P1 and waits for it.
func (r *pairRig) deliverOne(payload string) {
	r.t.Helper()
	want := len(r.received()) + 1
	r.m0.Send(1, wire.RawFrame([]byte(payload)))
	waitFor(r.t, 5*time.Second, func() bool { return len(r.received()) >= want })
}

// TestMeshPeerDeathVisible: the liveness bit follows the socket, not the
// traffic. Nothing is sent after the receiver closes, yet the sender's
// PeerInfo.Connected (admin /v1/status, ocsmlctl status) turns false.
func TestMeshPeerDeathVisible(t *testing.T) {
	r := newPairRig(t)
	m1 := r.start1()
	r.deliverOne("before")
	if !r.m0.Peers()[0].Connected {
		t.Fatal("not connected after a delivery")
	}
	m1.Close()
	waitFor(t, time.Second, func() bool { return !r.m0.Peers()[0].Connected })
}

// TestMeshFrameAfterPeerDeathIsCarried: a frame offered after the peer's
// death goes through carry -> redial -> re-encode and arrives exactly once
// at the next incarnation; a write into the dead socket would have
// succeeded in the kernel and lost it.
func TestMeshFrameAfterPeerDeathIsCarried(t *testing.T) {
	r := newPairRig(t)
	m1 := r.start1()
	r.deliverOne("before")
	m1.Close()
	// Bounded, not fatal: TestMeshPeerDeathVisible owns that assertion, and
	// without the death notice this test must fail on the lost frame.
	for i := 0; i < 200 && r.m0.Peers()[0].Connected; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	r.m0.Send(1, wire.RawFrame([]byte("after")))
	r.start1()
	waitFor(t, 5*time.Second, func() bool { return len(r.received()) >= 2 })
	time.Sleep(50 * time.Millisecond) // a duplicate would have followed closely
	if got := r.received(); len(got) != 2 || got[1] != "after" {
		t.Fatalf("received %q, want the carried frame exactly once", got)
	}
	if got := r.m0.Stats().Reconnects; got != 1 {
		t.Fatalf("reconnects = %d, want 1", got)
	}
}

// TestHelloCutsDialBackoff: P1's address refuses until the writer's
// backoff sits at its 2 s cap with a frame queued; P1 then binds and
// dials P0, and its hello — proof of a bound listener — ends the sleep.
func TestHelloCutsDialBackoff(t *testing.T) {
	r := newPairRig(t)
	r.m0.Send(1, wire.RawFrame([]byte("queued")))
	time.Sleep(3 * time.Second)
	start := time.Now()
	r.start1()
	waitFor(t, 5*time.Second, func() bool { return len(r.received()) >= 1 })
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("queued frame delivered %v after the peer started, want <= 250ms", d)
	}
	// A second hello naming P1, as another incarnation, while connected: it
	// is heeded once — at most one redial, answered by the real P1 — and
	// its wake token must not turn into a dial storm.
	c, err := net.Dial("tcp", r.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := writeHello(c, 1, 7); err != nil {
		t.Fatal(err)
	}
	r.deliverOne("second")
	if got := r.m0.Stats().Reconnects; got > 1 {
		t.Fatalf("reconnects = %d, want <= 1", got)
	}
	if got := r.received(); len(got) != 2 {
		t.Fatalf("received %q, want each frame once", got)
	}
}

func waitFor(t testing.TB, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHelloVersion3Refused: a peer of the format-4 or format-3 build frames
// its hello exactly as this one does, with version byte 4 or 3; it is
// refused at the hello, before any of its frames could be misread as
// format 5, which has no version byte of its own.
func TestHelloVersion3Refused(t *testing.T) {
	for ver, ok := range map[byte]bool{wire.VersionLatest: true, 4: false, 3: false} {
		var b bytes.Buffer
		if err := writeFrame(&b, []byte{ver, 1, 7}); err != nil { // id 1, incarnation 7
			t.Fatal(err)
		}
		if _, _, err := readHello(&b, 2); (err == nil) != ok {
			t.Fatalf("hello version %d: err = %v, want accepted %v", ver, err, ok)
		}
	}
}
