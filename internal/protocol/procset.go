package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strings"
)

// ProcSet is a fixed-universe set of process identifiers [0, N), stored as
// a bitset. It implements the paper's tentSet_i ("tentative process set"):
// the set of processes known to have taken a tentative checkpoint with the
// current sequence number. The zero value is unusable; construct with
// NewProcSet.
type ProcSet struct {
	n     int
	words []uint64
}

// NewProcSet returns an empty set over the universe {0, ..., n-1}.
func NewProcSet(n int) ProcSet {
	if n < 0 {
		panic("protocol: negative ProcSet universe")
	}
	return ProcSet{n: n, words: make([]uint64, (n+63)/64)}
}

// Universe returns the universe size N.
func (s ProcSet) Universe() int { return s.n }

// Add inserts process id into the set.
func (s ProcSet) Add(id int) {
	s.check(id)
	s.words[id/64] |= 1 << (uint(id) % 64)
}

// Remove deletes process id from the set.
func (s ProcSet) Remove(id int) {
	s.check(id)
	s.words[id/64] &^= 1 << (uint(id) % 64)
}

// Has reports whether process id is in the set.
func (s ProcSet) Has(id int) bool {
	s.check(id)
	return s.words[id/64]&(1<<(uint(id)%64)) != 0
}

// Toggle flips process id's membership. The wire codec's piggyback delta
// decoder applies changed-bit lists with it.
func (s ProcSet) Toggle(id int) {
	s.check(id)
	s.words[id/64] ^= 1 << (uint(id) % 64)
}

func (s ProcSet) check(id int) {
	if id < 0 || id >= s.n {
		panic(fmt.Sprintf("protocol: process id %d outside universe [0,%d)", id, s.n))
	}
}

// UnionWith adds every member of other to s (s |= other). The universes
// must match.
func (s ProcSet) UnionWith(other ProcSet) {
	if s.n != other.n {
		panic(fmt.Sprintf("protocol: union of mismatched universes %d and %d", s.n, other.n))
	}
	for i := range s.words {
		s.words[i] |= other.words[i]
	}
}

// Count returns the number of members.
func (s ProcSet) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Full reports whether the set equals the whole universe (allPSet in the
// paper).
func (s ProcSet) Full() bool { return s.Count() == s.n }

// Empty reports whether the set has no members.
func (s ProcSet) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all members.
func (s ProcSet) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns an independent copy.
func (s ProcSet) Clone() ProcSet {
	c := ProcSet{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// CopyFrom makes s an exact copy of other, reusing s's backing storage
// when its capacity suffices — the allocation-free alternative to Clone
// on hot paths that keep a long-lived scratch set.
func (s *ProcSet) CopyFrom(other ProcSet) {
	nw := len(other.words)
	if cap(s.words) >= nw {
		s.words = s.words[:nw]
	} else {
		s.words = make([]uint64, nw) // grows only when the universe widens
	}
	copy(s.words, other.words)
	s.n = other.n
}

// AppendDiffIndices appends to dst, in ascending order, every id whose
// membership differs between s and prev — the changed-bit list of the
// wire codec's piggyback delta encoding. The universes must match.
func (s ProcSet) AppendDiffIndices(dst []int, prev ProcSet) []int {
	if s.n != prev.n {
		panic(fmt.Sprintf("protocol: diff of mismatched universes %d and %d", s.n, prev.n))
	}
	for i := range s.words {
		w := s.words[i] ^ prev.words[i]
		for w != 0 {
			dst = append(dst, i*64+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// Equal reports whether two sets over the same universe have identical
// membership.
func (s ProcSet) Equal(other ProcSet) bool {
	if s.n != other.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != other.words[i] {
			return false
		}
	}
	return true
}

// HasBelow reports whether any member has id strictly less than i.
// This implements the paper's CK_BGN suppression test (§3.5.1 case 1):
// P_i stays silent if some P_j ∈ tentSet_i with j < i exists.
func (s ProcSet) HasBelow(i int) bool {
	for id := 0; id < i && id < s.n; id++ {
		if s.Has(id) {
			return true
		}
	}
	return false
}

// NextAbsent returns the smallest id >= from that is NOT in the set, or -1
// if every id in [from, N) is a member. This implements the paper's CK_REQ
// forwarding rule (§3.5.1 case 2): forward to the first process after i not
// yet known to have taken the tentative checkpoint.
func (s ProcSet) NextAbsent(from int) int {
	for id := from; id < s.n; id++ {
		if !s.Has(id) {
			return id
		}
	}
	return -1
}

// Members returns the ids in ascending order.
func (s ProcSet) Members() []int {
	out := make([]int, 0, s.Count())
	for id := 0; id < s.n; id++ {
		if s.Has(id) {
			out = append(out, id)
		}
	}
	return out
}

// String renders the set as {0,3,5}.
func (s ProcSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, id := range s.Members() {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", id)
	}
	b.WriteByte('}')
	return b.String()
}

// ByteSize returns the wire size of the set when piggybacked on a message
// (one bit per process, rounded to bytes). Used for overhead accounting.
func (s ProcSet) ByteSize() int64 { return int64((s.n + 7) / 8) }

// MaxUniverse bounds the universe size DecodeInto accepts, protecting
// decoders from allocating unbounded memory on corrupt input.
const MaxUniverse = 1 << 20

// Decode errors are package-level sentinels so the hot decode path does
// not allocate even when rejecting corrupt input.
var (
	errShortUniverse = errors.New("protocol: short ProcSet universe")
	errShortBits     = errors.New("protocol: short ProcSet bits")
	errExtraBits     = errors.New("protocol: ProcSet bits beyond universe")
)

// AppendBinary appends the set's wire encoding to b: a uvarint universe
// size followed by ⌈n/8⌉ bytes of membership bits (little-endian within
// each byte). The encoding matches ByteSize plus the universe prefix.
func (s ProcSet) AppendBinary(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(s.n))
	for i := 0; i < (s.n+7)/8; i++ {
		b = append(b, byte(s.words[i/8]>>(uint(i%8)*8)))
	}
	return b
}

// DecodeInto decodes a set produced by AppendBinary from the front of b
// into s, reusing s's backing storage when its capacity suffices, and
// returns the number of bytes consumed. On error s is left in an
// unspecified state; the caller must discard it.
func (s *ProcSet) DecodeInto(b []byte) (int, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, errShortUniverse
	}
	if n > MaxUniverse {
		return 0, fmt.Errorf("protocol: ProcSet universe %d exceeds limit", n)
	}
	nb := (int(n) + 7) / 8
	if len(b) < k+nb {
		return 0, errShortBits
	}
	nw := (int(n) + 63) / 64
	if cap(s.words) >= nw {
		s.words = s.words[:nw]
		for i := range s.words {
			s.words[i] = 0
		}
	} else {
		s.words = make([]uint64, nw) // grows only when the universe widens
	}
	s.n = int(n)
	for i := 0; i < nb; i++ {
		s.words[i/8] |= uint64(b[k+i]) << (uint(i%8) * 8)
	}
	// Reject bits beyond the universe: they would silently disappear on
	// re-encode, breaking round-trip equality guarantees.
	if nb > 0 {
		if extra := uint(nb*8 - int(n)); extra > 0 && b[k+nb-1]>>(8-extra) != 0 {
			return 0, errExtraBits
		}
	}
	return k + nb, nil
}
