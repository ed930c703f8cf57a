package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ocsml/internal/des"
	"ocsml/internal/protocol"
)

func mkEnv(src, dst int, bytes int64) *protocol.Envelope {
	return &protocol.Envelope{Src: src, Dst: dst, Kind: protocol.KindApp, Bytes: bytes}
}

func TestDeliveryAndIDs(t *testing.T) {
	sim := des.New(1)
	var got []*protocol.Envelope
	nw := New(sim, Config{N: 3, Latency: Fixed{D: des.Millisecond}}, func(e *protocol.Envelope) {
		got = append(got, e)
	})
	nw.Send(mkEnv(0, 1, 100))
	nw.Send(mkEnv(1, 2, 200))
	sim.Run()
	if len(got) != 2 {
		t.Fatalf("delivered %d", len(got))
	}
	if got[0].ID == got[1].ID || got[0].ID == 0 {
		t.Fatal("IDs must be unique and nonzero")
	}
	if got[0].SentAt != 0 {
		t.Fatalf("SentAt = %v", got[0].SentAt)
	}
	if sim.Now() != des.Millisecond {
		t.Fatalf("delivery time = %v", sim.Now())
	}
	if nw.MsgCount.Value() != 2 || nw.ByteCount.Value() != 300 {
		t.Fatal("metrics wrong")
	}
}

// nonFIFOModel gives the first message a huge delay and later ones tiny
// delays, forcing overtaking.
type nonFIFOModel struct{ calls int }

func (m *nonFIFOModel) Delay(src, dst int, bytes int64, rng *rand.Rand) des.Duration {
	m.calls++
	if m.calls == 1 {
		return des.Second
	}
	return des.Millisecond
}

func TestNonFIFOOvertaking(t *testing.T) {
	sim := des.New(1)
	var order []int64
	nw := New(sim, Config{N: 2, Latency: &nonFIFOModel{}}, func(e *protocol.Envelope) {
		order = append(order, e.App.Seq)
	})
	e1 := mkEnv(0, 1, 10)
	e1.App.Seq = 1
	e2 := mkEnv(0, 1, 10)
	e2.App.Seq = 2
	nw.Send(e1)
	nw.Send(e2)
	sim.Run()
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("order = %v, want overtaking [2 1]", order)
	}
}

func TestFIFOPreventsOvertaking(t *testing.T) {
	sim := des.New(1)
	var order []int64
	nw := New(sim, Config{N: 2, FIFO: true, Latency: &nonFIFOModel{}}, func(e *protocol.Envelope) {
		order = append(order, e.App.Seq)
	})
	for i := int64(1); i <= 5; i++ {
		e := mkEnv(0, 1, 10)
		e.App.Seq = i
		nw.Send(e)
	}
	sim.Run()
	for i, seq := range order {
		if seq != int64(i+1) {
			t.Fatalf("FIFO order violated: %v", order)
		}
	}
}

func TestFIFOIsPerChannel(t *testing.T) {
	// FIFO must only order messages on the SAME channel; a slow 0→1
	// message must not delay a fast 2→1 message.
	sim := des.New(1)
	var order []int
	m := &nonFIFOModel{}
	nw := New(sim, Config{N: 3, FIFO: true, Latency: m}, func(e *protocol.Envelope) {
		order = append(order, e.Src)
	})
	nw.Send(mkEnv(0, 1, 10)) // 1s delay
	nw.Send(mkEnv(2, 1, 10)) // 1ms delay, different channel
	sim.Run()
	if len(order) != 2 || order[0] != 2 {
		t.Fatalf("order = %v, want fast channel first", order)
	}
}

func TestSelfSendPanics(t *testing.T) {
	sim := des.New(1)
	nw := New(sim, Config{N: 2}, func(*protocol.Envelope) {})
	defer func() {
		if recover() == nil {
			t.Fatal("self-send should panic")
		}
	}()
	nw.Send(mkEnv(1, 1, 1))
}

func TestDownProcess(t *testing.T) {
	sim := des.New(1)
	var got int
	nw := New(sim, Config{N: 2, Latency: Fixed{D: des.Millisecond}}, func(*protocol.Envelope) { got++ })
	nw.SetDown(1, true)
	nw.Send(mkEnv(0, 1, 1)) // dropped at arrival (dst down)
	sim.Run()
	if got != 0 {
		t.Fatalf("delivered %d to down destination", got)
	}
	nw.SetDown(1, false)
	nw.SetDown(0, true)
	nw.Send(mkEnv(0, 1, 1)) // dropped at source (src down)
	sim.Run()
	if got != 0 {
		t.Fatalf("delivered %d from down source", got)
	}
	// Message in flight when destination goes down is dropped.
	nw.SetDown(0, false)
	nw.Send(mkEnv(0, 1, 1))
	nw.SetDown(1, true) // goes down before the 1ms delivery fires
	sim.Run()
	if got != 0 {
		t.Fatal("in-flight message delivered to down process")
	}
}

// TestSendCopiesEnvelope: an envelope handed to Send is valid only during
// the call. A sender that reuses one envelope for two sends before either
// is delivered gets each delivery its own ID, message and payload.
func TestSendCopiesEnvelope(t *testing.T) {
	sim := des.New(1)
	var got []protocol.Envelope
	nw := New(sim, Config{N: 2, Latency: Fixed{D: des.Millisecond}}, func(e *protocol.Envelope) {
		got = append(got, *e)
	})
	var out protocol.Envelope
	for seq := int64(1); seq <= 2; seq++ {
		out = protocol.Envelope{
			Src: 0, Dst: 1, Kind: protocol.KindApp,
			App: protocol.AppMsg{Seq: seq, Tag: uint64(10 * seq)}, Payload: seq,
		}
		nw.Send(&out)
	}
	sim.Run()
	if len(got) != 2 {
		t.Fatalf("delivered %d of 2", len(got))
	}
	for i, e := range got {
		seq := int64(i + 1)
		if e.ID != seq || e.App.Seq != seq || e.App.Tag != uint64(10*seq) || e.Payload != seq {
			t.Errorf("delivery %d: id %d, %+v, payload %v; want its own send, seq %d", i, e.ID, e.App, e.Payload, seq)
		}
	}
}

// TestSendKeepsID: an envelope that already has an ID (a recovery
// re-send) keeps it.
func TestSendKeepsID(t *testing.T) {
	sim := des.New(1)
	var got *protocol.Envelope
	nw := New(sim, Config{N: 2, Latency: Fixed{D: des.Millisecond}}, func(e *protocol.Envelope) { got = e })
	e := mkEnv(0, 1, 5)
	e.ID = 777
	nw.Send(e)
	sim.Run()
	if got == nil || got.ID != 777 {
		t.Fatalf("Send changed ID: %+v", got)
	}
}

func TestUniformModelBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := Uniform{Min: des.Millisecond, Max: 5 * des.Millisecond}
	for i := 0; i < 1000; i++ {
		d := u.Delay(0, 1, 0, rng)
		if d < des.Millisecond || d > 5*des.Millisecond {
			t.Fatalf("delay %v outside bounds", d)
		}
	}
	// Bandwidth term.
	u2 := Uniform{Min: 0, Max: 0, Bandwidth: 1000}
	if got := u2.Delay(0, 1, 1000, rng); got != des.Second {
		t.Fatalf("bandwidth delay = %v, want 1s", got)
	}
}

func TestMatrixModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	group := []int{0, 0, 1, 1}
	m := Clusters(group, des.Millisecond, 40*des.Millisecond, 0)
	if got := m.Delay(0, 1, 0, rng); got != des.Millisecond {
		t.Fatalf("intra-site delay = %v", got)
	}
	if got := m.Delay(1, 2, 0, rng); got != 40*des.Millisecond {
		t.Fatalf("cross-site delay = %v", got)
	}
	// Jitter stays within bounds.
	mj := Clusters(group, des.Millisecond, 40*des.Millisecond, 2*des.Millisecond)
	for i := 0; i < 200; i++ {
		d := mj.Delay(0, 3, 0, rng)
		if d < 40*des.Millisecond || d > 42*des.Millisecond {
			t.Fatalf("jittered delay %v out of bounds", d)
		}
	}
	// Bandwidth term.
	mb := Matrix{Base: [][]des.Duration{{0, 0}, {0, 0}}, Bandwidth: 1000}
	if got := mb.Delay(0, 1, 500, rng); got != des.Second/2 {
		t.Fatalf("bandwidth delay = %v", got)
	}
}

// Property: with FIFO enabled, per-channel arrival order always matches
// send order, for arbitrary interleaved traffic on multiple channels.
func TestQuickFIFOProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		sim := des.New(77)
		type arrival struct{ ch, seq int }
		var arrivals []arrival
		seqs := map[int]int{}
		nw := New(sim, Config{N: 4, FIFO: true, Latency: Uniform{Min: 0, Max: 10 * des.Millisecond}},
			func(e *protocol.Envelope) {
				arrivals = append(arrivals, arrival{e.Src*4 + e.Dst, int(e.App.Seq)})
			})
		for _, op := range ops {
			src := int(op) % 4
			dst := (src + 1 + int(op/16)%3) % 4
			ch := src*4 + dst
			seqs[ch]++
			e := mkEnv(src, dst, 10)
			e.App.Seq = int64(seqs[ch])
			nw.Send(e)
			sim.RunUntil(sim.Now() + des.Duration(op)*des.Microsecond)
		}
		sim.Run()
		last := map[int]int{}
		for _, a := range arrivals {
			if a.seq != last[a.ch]+1 {
				return false
			}
			last[a.ch] = a.seq
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(61))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
