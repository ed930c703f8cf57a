package transport

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ocsml/internal/wire"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{0xab}, 1000)}
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range payloads {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
}

func TestFrameOversizedRejected(t *testing.T) {
	if err := writeFrame(&bytes.Buffer{}, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversized frame accepted on write")
	}
	// A corrupt header announcing a huge frame must be rejected before
	// allocation, and a truncated body must error.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("oversized header accepted on read")
	}
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 10, 1, 2})
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("truncated frame accepted on read")
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
	// writer must reconnect with backoff and resume delivery.
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String(), ln1.Addr().String()}

	var mu sync.Mutex
	var recv []string
	handler := func(src int) func(frame []byte) {
		return func(frame []byte) {
			mu.Lock()
			recv = append(recv, string(frame))
			mu.Unlock()
		}
	}
	m0, err := NewMesh(MeshConfig{ID: 0, Addrs: addrs, Seed: 1},
		ln0, func(int) func([]byte) { return func([]byte) {} })
	if err != nil {
		t.Fatal(err)
	}
	m0.Start()
	defer m0.Close()

	m1, err := NewMesh(MeshConfig{ID: 1, Addrs: addrs, Seed: 2}, ln1, handler)
	if err != nil {
		t.Fatal(err)
	}
	m1.Start()

	m0.Send(1, wire.RawFrame([]byte("before")))
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(recv) >= 1
	})

	// Crash P1, then rebind the same address.
	m1.Close()
	ln1b, err := net.Listen("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	m1b, err := NewMesh(MeshConfig{ID: 1, Addrs: addrs, Seed: 3}, ln1b, handler)
	if err != nil {
		t.Fatal(err)
	}
	m1b.Start()
	defer m1b.Close()

	// Keep offering frames until one lands post-restart (the frame in
	// flight at the crash may be lost in the OS buffer; later ones must
	// arrive over the re-established connection).
	waitFor(t, 10*time.Second, func() bool {
		m0.Send(1, wire.RawFrame([]byte("after")))
		time.Sleep(5 * time.Millisecond)
		mu.Lock()
		defer mu.Unlock()
		for _, s := range recv {
			if s == "after" {
				return true
			}
		}
		return false
	})
	if got := m0.Stats().Reconnects; got < 1 {
		t.Fatalf("reconnects = %d, want >= 1", got)
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
