package core

import (
	"slices"
	"testing"

	"ocsml/internal/protocol"
)

// TestSendPiggybackIsSnapshot: OnAppSend attaches a snapshot of (csn,
// stat, tentSet) that later state changes never reach, so an envelope sent
// before takeTentative or a tentSet merge still reads what it was sent
// with. While the state stands still, the send reuses the snapshot and
// allocates nothing.
func TestSendPiggybackIsSnapshot(t *testing.T) {
	p, _ := mount(t, 0, 3, Options{}, false)
	send := func() *protocol.Envelope {
		e := &protocol.Envelope{ID: 1, Dst: 1, Kind: protocol.KindApp}
		p.OnAppSend(e)
		return e
	}
	before := send()
	p.Initiate() // csn 1, tentative, tentSet {0}
	joined := send()
	set := protocol.NewProcSet(3)
	set.Add(1)
	p.OnDeliver(&protocol.Envelope{
		ID: 7, Src: 1, Dst: 0, Kind: protocol.KindApp,
		Payload: Piggyback{Csn: 1, Stat: Tentative, TentSet: set},
	}) // case 2b: tentSet {0, 1}
	merged := send()

	for _, c := range []struct {
		name    string
		e       *protocol.Envelope
		csn     int
		stat    Status
		members []int
	}{
		{"before takeTentative", before, 0, Normal, nil},
		{"before the merge", joined, 1, Tentative, []int{0}},
		{"after the merge", merged, 1, Tentative, []int{0, 1}},
	} {
		pb, ok := AsPiggyback(c.e.Payload)
		if !ok {
			t.Fatalf("%s: payload %T", c.name, c.e.Payload)
		}
		if got := pb.TentSet.Members(); pb.Csn != c.csn || pb.Stat != c.stat || !slices.Equal(got, c.members) {
			t.Errorf("%s: piggyback csn %d %v %v, want csn %d %v %v", c.name, pb.Csn, pb.Stat, got, c.csn, c.stat, c.members)
		}
	}

	e := &protocol.Envelope{ID: 2, Dst: 2, Kind: protocol.KindApp}
	p.finalize() // back to normal: a send is not logged, so only the piggyback could allocate
	p.OnAppSend(e)
	if n := testing.AllocsPerRun(100, func() { p.OnAppSend(e) }); n != 0 {
		t.Errorf("OnAppSend with the state unchanged: %.1f allocs, want 0", n)
	}
}
