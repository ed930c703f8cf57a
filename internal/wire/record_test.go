package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
)

// sampleRecords covers the record shapes fsstore persists — an empty log,
// a selective log of both directions — and the extremes of every field.
func sampleRecords() []checkpoint.Record {
	return []checkpoint.Record{
		{ // a baseline protocol's record: no log
			Tentative:   checkpoint.Tentative{Proc: 0, Seq: 1, TakenAt: 1000, StateBytes: 1 << 20, Fold: 7920, Work: 10},
			FinalizedAt: 1000, CFEFold: 7920, CFEWork: 10, StableAt: 1700,
		},
		{ // an OCSML record with its selective log
			Tentative: checkpoint.Tentative{Proc: 3, Seq: 42, TakenAt: 42_000_000, StateBytes: 1 << 20,
				Fold: 0x9e3779b97f4a7c15, Work: 420, Progress: 417, FlushedAt: 42_000_300, JoinedBy: 4199},
			Log: []checkpoint.LoggedMsg{
				{ID: 4200, Src: 3, Dst: 0, Dir: checkpoint.Sent, Bytes: 2048, Tag: 1, AppSeq: 90},
				{ID: 4201, Src: 1, Dst: 3, Dir: checkpoint.Received, Bytes: 64, Tag: math.MaxUint64, AppSeq: 17},
			},
			FinalizedAt: 42_000_500, CFEFold: 0xcbf29ce484222325, CFEWork: 423, CFEProgress: 420, StableAt: 42_000_700,
		},
		{ // extremes: every delta and varint at its limits
			Tentative: checkpoint.Tentative{Proc: math.MaxInt32, Seq: math.MaxInt64, TakenAt: math.MinInt64,
				StateBytes: -1, Fold: math.MaxUint64, Work: math.MinInt64, Progress: math.MaxInt64, FlushedAt: -1,
				JoinedBy: math.MinInt64},
			Log: []checkpoint.LoggedMsg{
				{ID: math.MinInt64, Src: -1, Dst: math.MaxInt64, Dir: checkpoint.Received,
					Bytes: math.MinInt64, AppSeq: math.MaxInt64},
			},
			FinalizedAt: math.MaxInt64, CFEWork: -1, CFEProgress: math.MinInt64, StableAt: des.Time(math.MinInt64),
		},
		{ // entries of Proc at the edges of the peers a key holds (-2^61 fits, 2^61 does not)
			Tentative: checkpoint.Tentative{Proc: 2, Seq: 7},
			Log: []checkpoint.LoggedMsg{
				{ID: 1, Src: 2, Dst: math.MaxInt64, Dir: checkpoint.Sent, AppSeq: 1},
				{ID: 2, Src: math.MinInt64, Dst: 2, Dir: checkpoint.Received, AppSeq: 1},
				{ID: 3, Src: 2, Dst: 1 << 61, Dir: checkpoint.Sent, AppSeq: 2},
				{ID: 4, Src: -1 << 61, Dst: 2, Dir: checkpoint.Received, AppSeq: 3},
			},
		},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for i, rec := range sampleRecords() {
		b := AppendRecord(nil, &rec)
		got, err := DecodeRecord(b)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("record %d changed in a round trip:\n got %+v\nwant %+v", i, got, rec)
		}
		// AppendRecord appends: what buf held stays in front.
		if again := AppendRecord([]byte("prefix"), &rec); string(again[:6]) != "prefix" || string(again[6:]) != string(b) {
			t.Fatalf("record %d: AppendRecord onto a buffer disturbed it", i)
		}
	}
}

// TestDecodeRecordRefuses: hostile or damaged input is an error, never a
// panic and never an allocation sized by what the input claims. (A log
// entry's direction is a bit of its key, so no entry has a direction to
// refuse.)
func TestDecodeRecordRefuses(t *testing.T) {
	rec := sampleRecords()[1]
	good := AppendRecord(nil, &rec)
	// The log count sits right behind the fixed-layout prefix; find it by
	// encoding the record with its log cut off.
	head := len(AppendRecord(nil, &checkpoint.Record{Tentative: rec.Tentative,
		FinalizedAt: rec.FinalizedAt, CFEFold: rec.CFEFold, CFEWork: rec.CFEWork,
		CFEProgress: rec.CFEProgress, StableAt: rec.StableAt})) - 1
	withCount := func(n uint64) []byte {
		return append(binary.AppendUvarint(append([]byte(nil), good[:head]...), n), good[head+1:]...)
	}

	for _, tc := range []struct {
		name string
		in   []byte
		is   error
	}{
		{"empty", nil, ErrTruncated},
		{"cut inside the state", good[:5], ErrTruncated},
		{"cut inside a hash", good[:head-3], ErrTruncated},
		{"cut inside the log", good[:len(good)-1], ErrTruncated},
		{"trailing byte", append(append([]byte(nil), good...), 0), ErrTrailing},
		{"log count one more than encoded", withCount(3), nil},
		{"log count of 2^31", withCount(1 << 31), nil},
		{"log count of 2^64-1", withCount(math.MaxUint64), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := DecodeRecord(tc.in)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("decoded without error")
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Fatalf("err = %v, want %v", err, tc.is)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
				t.Fatalf("refusing %d bytes allocated %d B", len(tc.in), got)
			}
		})
	}
	// Every strict prefix of a valid record is refused.
	for n := 0; n < len(good); n++ {
		if _, err := DecodeRecord(good[:n]); err == nil {
			t.Fatalf("the %d-byte prefix of a %d-byte record decoded", n, len(good))
		}
	}
}

// logShape returns n log entries of process 1 of an N = 4 cluster as the
// TCP runtime logs them, over the links next picks: IDs from each
// sender's counter (idBase, advanced by its other sends too), AppSeq from
// each sender's application counter, the benchmark's 256 B payload and a
// random tag.
func logShape(n int, next func(rng *rand.Rand, i int) (peer int, dir checkpoint.Direction)) []checkpoint.LoggedMsg {
	rng := rand.New(rand.NewSource(43))
	var ctr, seq [4]int64
	log := make([]checkpoint.LoggedMsg, n)
	for i := range log {
		peer, dir := next(rng, i)
		src, dst := 1, peer
		if dir == checkpoint.Received {
			src, dst = peer, 1
		}
		ctr[src] += 1 + rng.Int63n(3)
		seq[src] += 1 + rng.Int63n(2)
		log[i] = checkpoint.LoggedMsg{ID: int64(src+1)<<40 | ctr[src], Src: src, Dst: dst, Dir: dir,
			Bytes: 256, Tag: rng.Uint64(), AppSeq: seq[src]}
	}
	return log
}

// TestRecordBytesPerEntry pins what a logged message costs in a record,
// independent of the host: at most 14 B per entry on the ring (receive
// from the left, send to the right) and on three peers picked uniformly,
// record header included: an entry pays its tag (8 B) and a few bytes of
// key, deltas and size, and no time.
func TestRecordBytesPerEntry(t *testing.T) {
	const n = 100
	for _, tc := range []struct {
		name string
		next func(rng *rand.Rand, i int) (int, checkpoint.Direction)
	}{
		{"ring", func(_ *rand.Rand, i int) (int, checkpoint.Direction) {
			if i%2 == 0 {
				return 0, checkpoint.Received
			}
			return 2, checkpoint.Sent
		}},
		{"three-peer uniform", func(rng *rand.Rand, _ int) (int, checkpoint.Direction) {
			return []int{0, 2, 3}[rng.Intn(3)], checkpoint.Direction(rng.Intn(2))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := sampleRecords()[1]
			rec.Proc = 1
			rec.Log = logShape(n, tc.next)
			b := AppendRecord(nil, &rec)
			if got, err := DecodeRecord(b); err != nil || !reflect.DeepEqual(got, rec) {
				t.Fatalf("round trip: err %v, equal %v", err, reflect.DeepEqual(got, rec))
			}
			per := float64(len(b)) / n
			t.Logf("%.2f B per logged message", per)
			if per > 14 {
				t.Fatalf("%.1f B per logged message, want <= 14", per)
			}
		})
	}
}

// TestRecordManyLinks: a log whose every entry is on a link of its own —
// far more links than the table of delta bases has slots — round-trips,
// its decode is one allocation (the log) and its encode none: a hostile
// record costs one slot lookup per entry, not a map or a history.
func TestRecordManyLinks(t *testing.T) {
	rec := sampleRecords()[1]
	rec.Log = make([]checkpoint.LoggedMsg, 10_000)
	for i := range rec.Log {
		rec.Log[i] = checkpoint.LoggedMsg{ID: int64(i) << 20, Src: rec.Proc, Dst: 1000 + i,
			Dir: checkpoint.Direction(i % 2), Bytes: 64, Tag: uint64(i), AppSeq: int64(i)}
		if i%2 == 1 {
			rec.Log[i].Src, rec.Log[i].Dst = rec.Log[i].Dst, rec.Log[i].Src
		}
	}
	b := AppendRecord(nil, &rec)
	got, err := DecodeRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatal("a log of distinct links changed in a round trip")
	}
	buf := make([]byte, 0, len(b))
	allocsPerRun(t, "AppendRecord(10,000 links)", 0, func() { buf = AppendRecord(buf[:0], &rec) })
	allocsPerRun(t, "DecodeRecord(10,000 links)", 1, func() {
		if _, err := DecodeRecord(b); err != nil {
			t.Fatal(err)
		}
	})
}
