package workload

import (
	"math/rand"
	"sort"
	"testing"

	"ocsml/internal/des"
	"ocsml/internal/protocol"
)

// fakeCtx is a minimal single-process AppCtx that executes After callbacks
// immediately in FIFO order (a synchronous mini-engine).
type fakeCtx struct {
	id, n   int
	now     des.Time
	rng     *rand.Rand
	sends   []int // destinations
	work    int64
	done    bool
	pending []func()
}

func newFake(id, n int) *fakeCtx {
	return &fakeCtx{id: id, n: n, rng: rand.New(rand.NewSource(1))}
}

func (f *fakeCtx) ID() int          { return f.id }
func (f *fakeCtx) N() int           { return f.n }
func (f *fakeCtx) Now() des.Time    { return f.now }
func (f *fakeCtx) Rand() *rand.Rand { return f.rng }
func (f *fakeCtx) Send(dst int, m protocol.AppMsg) {
	f.sends = append(f.sends, dst)
}
func (f *fakeCtx) After(d des.Duration, fn func()) { f.pending = append(f.pending, fn) }
func (f *fakeCtx) DoWork(units int64)              { f.work += units }
func (f *fakeCtx) Done()                           { f.done = true }

// drain executes pending callbacks until quiescent (bounded).
func (f *fakeCtx) drain(t *testing.T, maxSteps int) {
	t.Helper()
	for i := 0; len(f.pending) > 0; i++ {
		if i > maxSteps {
			t.Fatalf("app did not quiesce after %d steps", maxSteps)
		}
		fn := f.pending[0]
		f.pending = f.pending[1:]
		f.now += des.Millisecond
		fn()
	}
}

func TestSyntheticQuotaAndDone(t *testing.T) {
	cfg := Config{Pattern: UniformRandom, Steps: 25, Think: des.Millisecond, MsgBytes: 64}
	app := Factory(cfg)(0, 4)
	ctx := newFake(0, 4)
	app.Start(ctx)
	ctx.drain(t, 1000)
	if !ctx.done {
		t.Fatal("app never called Done")
	}
	if len(ctx.sends) != 25 {
		t.Fatalf("sends = %d, want 25", len(ctx.sends))
	}
	if ctx.work != 25 {
		t.Fatalf("work = %d, want 25", ctx.work)
	}
	for _, dst := range ctx.sends {
		if dst == 0 || dst < 0 || dst > 3 {
			t.Fatalf("invalid destination %d", dst)
		}
	}
}

func TestRingDestinations(t *testing.T) {
	app := Factory(Config{Pattern: Ring, Steps: 5, Think: des.Millisecond})(2, 4)
	ctx := newFake(2, 4)
	app.Start(ctx)
	ctx.drain(t, 100)
	for _, dst := range ctx.sends {
		if dst != 3 {
			t.Fatalf("ring dest = %d, want 3", dst)
		}
	}
}

func TestClientServerRoles(t *testing.T) {
	cfg := Config{Pattern: ClientServer, Steps: 10, Think: des.Millisecond, ServerReplies: true}
	// Server (P0): quota 0, done immediately, replies to requests.
	server := Factory(cfg)(0, 4)
	sctx := newFake(0, 4)
	server.Start(sctx)
	if !sctx.done {
		t.Fatal("server should be done at start")
	}
	server.OnMessage(sctx, 2, protocol.AppMsg{Bytes: 100})
	if len(sctx.sends) != 1 || sctx.sends[0] != 2 {
		t.Fatalf("server reply sends = %v", sctx.sends)
	}
	// Client: sends only to 0.
	client := Factory(cfg)(3, 4)
	cctx := newFake(3, 4)
	client.Start(cctx)
	cctx.drain(t, 100)
	for _, dst := range cctx.sends {
		if dst != 0 {
			t.Fatalf("client dest = %d", dst)
		}
	}
}

func TestMeshNeighbors(t *testing.T) {
	// 3x3 grid for n=9: process 4 (center) has 4 neighbors.
	nb := meshNeighbors(4, 9)
	sort.Ints(nb)
	want := []int{1, 3, 5, 7}
	if len(nb) != 4 {
		t.Fatalf("center neighbors = %v", nb)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("neighbors = %v, want %v", nb, want)
		}
	}
	// Corner 0: neighbors 1 and 3.
	nb0 := meshNeighbors(0, 9)
	sort.Ints(nb0)
	if len(nb0) != 2 || nb0[0] != 1 || nb0[1] != 3 {
		t.Fatalf("corner neighbors = %v", nb0)
	}
	// Every neighbor relation stays in range for ragged sizes.
	for _, n := range []int{2, 3, 5, 7, 10, 13} {
		for id := 0; id < n; id++ {
			for _, x := range meshNeighbors(id, n) {
				if x < 0 || x >= n || x == id {
					t.Fatalf("n=%d id=%d bad neighbor %d", n, id, x)
				}
			}
			if len(meshNeighbors(id, n)) == 0 {
				t.Fatalf("n=%d id=%d isolated", n, id)
			}
		}
	}
}

func TestBurstyAddsIdleGaps(t *testing.T) {
	cfg := Config{Pattern: Bursty, Steps: 10, Think: des.Millisecond, BurstLen: 3, BurstIdle: des.Second}
	app := Factory(cfg)(1, 4).(*synthetic)
	ctx := newFake(1, 4)
	app.Start(ctx)
	ctx.drain(t, 100)
	if len(ctx.sends) != 10 {
		t.Fatalf("sends = %d", len(ctx.sends))
	}
}

func TestSilent(t *testing.T) {
	app := SilentFactory()(0, 4)
	ctx := newFake(0, 4)
	app.Start(ctx)
	if !ctx.done || len(ctx.sends) != 0 {
		t.Fatal("silent app misbehaved")
	}
	app.OnMessage(ctx, 1, protocol.AppMsg{})
	if len(ctx.sends) != 0 {
		t.Fatal("silent app replied")
	}
}

func TestScripted(t *testing.T) {
	plans := map[int][]ScriptedSend{
		1: {{At: 5 * des.Millisecond, Dst: 2, Bytes: 10}, {At: 9 * des.Millisecond, Dst: 0, Bytes: 10}},
	}
	app := ScriptedFactory(plans)(1, 3)
	ctx := newFake(1, 3)
	app.Start(ctx)
	ctx.drain(t, 100)
	if len(ctx.sends) != 2 || ctx.sends[0] != 2 || ctx.sends[1] != 0 {
		t.Fatalf("sends = %v", ctx.sends)
	}
	if !ctx.done {
		t.Fatal("scripted app never done")
	}
	// Process with no plan: done immediately.
	empty := ScriptedFactory(plans)(0, 3)
	ectx := newFake(0, 3)
	empty.Start(ectx)
	ectx.drain(t, 10)
	if !ectx.done || len(ectx.sends) != 0 {
		t.Fatal("empty scripted app misbehaved")
	}
}

func TestPatternString(t *testing.T) {
	cases := map[Pattern]string{
		UniformRandom: "uniform", Ring: "ring", ClientServer: "client-server",
		Mesh: "mesh", Bursty: "bursty", BSPStencil: "stencil", Pattern(99): "pattern(99)",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Fatalf("%v", p)
		}
		got, err := ParsePattern(want)
		if named := p != 99; named != (err == nil) || named && got != p {
			t.Fatalf("ParsePattern(%q) = %v, %v", want, got, err)
		}
	}
}

func TestTooFewProcessesPanics(t *testing.T) {
	app := Factory(DefaultConfig())(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("n=1 should panic")
		}
	}()
	app.Start(newFake(0, 1))
}

func TestThinkBounds(t *testing.T) {
	a := &synthetic{cfg: Config{Think: 10 * des.Millisecond}}
	ctx := newFake(0, 2)
	for i := 0; i < 200; i++ {
		d := a.think(ctx)
		if d < 5*des.Millisecond || d >= 15*des.Millisecond {
			t.Fatalf("think draw %v outside [T/2, 3T/2)", d)
		}
	}
	// Zero think still progresses.
	z := &synthetic{cfg: Config{}}
	if z.think(ctx) <= 0 {
		t.Fatal("zero think should yield positive duration")
	}
}
