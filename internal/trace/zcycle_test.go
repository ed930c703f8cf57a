package trace

import (
	"reflect"
	"testing"
)

// TestZCycles: a cycle in the interval graph is a Z-cycle only when it
// leads back to an earlier interval of the same process.
func TestZCycles(t *testing.T) {
	iv := func(p, x int) Interval { return Interval{p, x} }
	cases := []struct {
		name  string
		build func(b *builder)
		want  []Interval
	}{{
		// m1 and m2 cross between I(P0,0) and I(P1,0): a cycle of two
		// message edges, but no checkpoint is useless.
		name: "crossing",
		build: func(b *builder) {
			b.send(0, 1, 1)
			b.send(1, 0, 2)
			b.recv(0, 1, 2)
			b.recv(1, 0, 1)
			b.ckpt(0, 1)
			b.ckpt(1, 1)
		},
	}, {
		// m1 leaves I(P0,1) for I(P1,0), whose m2, sent before m1
		// arrived, reached P0 in I(P0,0): C_{0,1} is useless.
		name: "back path through three intervals",
		build: func(b *builder) {
			b.send(1, 0, 2)
			b.recv(0, 1, 2)
			b.ckpt(0, 1)
			b.send(0, 1, 1)
			b.recv(1, 0, 1)
			b.ckpt(1, 1)
		},
		want: []Interval{iv(0, 0), iv(0, 1), iv(1, 0), iv(0, 0)},
	}, {
		// Every cycle the search closes along its path visits each
		// process once (P0→P1→P2→P0 and P0⇄P2); the Z-cycle, through
		// I(P2,0) and I(P2,1), is found from the component they share.
		name: "Z-cycle no back edge closes",
		build: func(b *builder) {
			b.send(0, 1, 1)
			b.send(0, 2, 4)
			b.send(2, 0, 5)
			b.recv(2, 0, 4)
			b.ckpt(2, 1)
			b.recv(1, 0, 1)
			b.send(1, 2, 2)
			b.recv(2, 1, 2)
			b.send(2, 0, 3)
			b.recv(0, 2, 5)
			b.recv(0, 2, 3)
		},
		want: []Interval{iv(2, 0), iv(2, 1), iv(0, 0), iv(2, 0)},
	}}
	for _, c := range cases {
		b := nb()
		c.build(b)
		if got := ZCycles(b.r.Events(), KCheckpoint); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: ZCycles = %v, want %v", c.name, got, c.want)
		}
	}
}
