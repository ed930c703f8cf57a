package handshake

import (
	"math/rand"
	"slices"
	"testing"
)

// TestClosedLoop runs the whole handshake — one Coordinator, N−1
// Participants on processes with seeded manifests and epochs — over a
// network that drops, duplicates and reorders frames and disks whose
// truncations land late or fail, with ticks interleaved at random. In some
// seeds the coordinator abandons a first round midway (its frames stay in
// flight) and starts over. No commit may name a line some process lacks,
// no vote a seq its sender has rolled back in memory (it would refuse that
// line), the last round must finish, and when it does the ACKs have to
// mean what the restarted process will rely on: every survivor is at the
// decision's epoch and its truncation for that epoch has landed at the
// decision's line.
func TestClosedLoop(t *testing.T) {
	for n := 2; n <= 4; n++ {
		for seed := int64(1); seed <= 250; seed++ {
			closedLoop(t, n, seed)
		}
	}
}

// packet is a frame in flight to process to; its Peer is the sender.
type packet struct {
	to int
	f  Frame
}

func closedLoop(t *testing.T, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed*31 + int64(n)))
	const self = 0
	manifests := make([][]int, n)
	for i := range manifests {
		for q, top := 1, rng.Intn(6); q <= top; q++ {
			if rng.Intn(8) > 0 { // a manifest may have gaps
				manifests[i] = append(manifests[i], q)
			}
		}
	}
	procs := make([]*proc, n)
	parts := make([]*Participant, n)
	queued := make([][]Frame, n) // per process: commits whose truncation the disk has not served, in order
	for j := 1; j < n; j++ {
		procs[j] = newProc(rng.Intn(4), manifests[j])
		parts[j] = &Participant{Proc: procs[j]}
	}
	ownEpoch := rng.Intn(4)

	var net []packet
	send := func(from int, frames []Frame) {
		for _, f := range frames {
			net = append(net, packet{to: f.Peer, f: Frame{Peer: from, Tag: f.Tag, Msg: f.Msg}})
			for i, seqs := range manifests {
				if line := f.Msg.Line; f.Tag == rbCmt && line != 0 && !slices.Contains(seqs, line) {
					t.Fatalf("N=%d seed %d: RB_CMT for line %d, which is not in P%d's manifest %v", n, seed, line, i, seqs)
				}
			}
			if f.Tag == rbLine && slices.ContainsFunc(f.Msg.Seqs, func(q int) bool { return !slices.Contains(procs[from].mem, q) }) {
				t.Fatalf("N=%d seed %d: P%d votes %v in RB_LINE while its memory is rolled back to %v", n, seed, from, f.Msg.Seqs, procs[from].mem)
			}
		}
	}
	round := int64(1)
	c := NewCoordinator(self, n, round, manifests[self], ownEpoch)
	send(self, c.Tick())
	abandonAt := -1
	if rng.Intn(3) == 0 {
		abandonAt = rng.Intn(40)
	}

	for step := 0; !c.Done(); step++ {
		if step == 20000 {
			t.Fatalf("N=%d seed %d: round %d not done after %d steps, %d frames in flight", n, seed, round, step, len(net))
		}
		if step == abandonAt {
			round++
			c = NewCoordinator(self, n, round, manifests[self], ownEpoch)
			send(self, c.Tick())
		}
		switch k := rng.Intn(10); {
		case k == 0 || len(net) == 0 && k < 5:
			send(self, c.Tick())
		case k < 4: // a disk serves its oldest truncation, or fails it
			j := 1 + rng.Intn(n-1)
			if len(queued[j]) == 0 {
				continue
			}
			f := queued[j][0]
			queued[j] = queued[j][1:]
			ok := rng.Intn(4) > 0
			if ok {
				procs[j].truncate(f)
			}
			send(j, parts[j].Truncated(f, ok))
		case len(net) > 0: // the network delivers, drops or duplicates any frame in flight
			i := rng.Intn(len(net))
			p := net[i]
			switch rng.Intn(6) {
			case 0: // dropped
				net = slices.Delete(net, i, i+1)
				continue
			case 1: // delivered, and once more later
			default:
				net = slices.Delete(net, i, i+1)
			}
			if p.to == self {
				send(self, c.Receive(p.f))
				continue
			}
			out, truncate := parts[p.to].Receive(p.f)
			send(p.to, out)
			if truncate {
				queued[p.to] = append(queued[p.to], p.f)
			}
		}
	}

	line, epoch := c.Decision()
	for j := 1; j < n; j++ {
		if procs[j].epoch != epoch {
			t.Fatalf("N=%d seed %d: done at epoch %d with P%d at epoch %d", n, seed, epoch, j, procs[j].epoch)
		}
		if got, ok := procs[j].landed[epoch]; !ok || got != line {
			t.Fatalf("N=%d seed %d: done at line %d, epoch %d, but P%d's truncation for it landed at %d (%v); disk %v",
				n, seed, line, epoch, j, got, ok, procs[j].disk)
		}
	}
}
