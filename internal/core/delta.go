package core

import (
	"fmt"
)

// PiggybackDelta is the change between two successive piggybacks sent on
// one peer link: what the wire codec's v2 delta block carries instead of
// the full (csn, stat, tentSet) triple. Checkpoint state evolves slowly
// relative to message traffic, so the delta is usually a zero csn
// increment, one status bit, and a handful of flipped tentSet bits —
// O(changed bits) on the wire where the full block is O(N).
//
// The delta is defined against the previous piggyback *written on the
// same connection*, never against protocol state: the sender computes it
// at write time and the receiver reconstructs absolutes in arrival
// order, so retransmissions, reordering across links, and message loss
// cannot desynchronize the two sides. A reconnect resets both sides
// (wire.PeerEncoder.Reset / a fresh wire.Decoder) and the first
// piggyback on the new connection travels as a full block.
type PiggybackDelta struct {
	// DCsn is the csn change since the previous piggyback (usually 0).
	DCsn int
	// Stat is the successor's absolute status — one bit on the wire.
	Stat Status
	// Flips lists the tentSet bit positions that changed, ascending.
	Flips []int
}

// From computes cur − prev into d, reusing d.Flips' storage. It reports
// false — leaving d unspecified — when the two piggybacks span different
// universes, in which case no delta exists and the sender must fall back
// to a full block.
func (d *PiggybackDelta) From(prev, cur Piggyback) bool {
	if prev.TentSet.Universe() != cur.TentSet.Universe() {
		return false
	}
	d.DCsn = cur.Csn - prev.Csn
	d.Stat = cur.Stat
	d.Flips = cur.TentSet.AppendDiffIndices(d.Flips[:0], prev.TentSet)
	return true
}

// Apply advances pb — the previous absolute piggyback — to the successor
// d describes, toggling the flipped bits in place. Deltas arrive from
// the network, so out-of-range flips and a negative resulting csn are
// errors, never panics.
func (d *PiggybackDelta) Apply(pb *Piggyback) error {
	csn := pb.Csn + d.DCsn
	if csn < 0 {
		return fmt.Errorf("core: piggyback delta underflows csn (%d%+d)", pb.Csn, d.DCsn)
	}
	n := pb.TentSet.Universe()
	for _, f := range d.Flips {
		if f < 0 || f >= n {
			return fmt.Errorf("core: piggyback delta flips bit %d outside universe [0,%d)", f, n)
		}
	}
	pb.Csn = csn
	pb.Stat = d.Stat
	for _, f := range d.Flips {
		pb.TentSet.Toggle(f)
	}
	return nil
}

// Own implements protocol.Owner for the decoder's view: a value with its
// own tentSet.
func (p *Piggyback) Own() any {
	return Piggyback{Csn: p.Csn, Stat: p.Stat, TentSet: p.TentSet.Clone()}
}

// Own implements protocol.Owner for the decoder's view.
func (m *CtlMsg) Own() any { return *m }

// AsPiggyback extracts a Piggyback payload in either its canonical value
// form or the pointer form the wire codec's zero-copy decoder hands out.
func AsPiggyback(payload any) (Piggyback, bool) {
	switch p := payload.(type) {
	case Piggyback:
		return p, true
	case *Piggyback:
		return *p, true
	}
	return Piggyback{}, false
}
