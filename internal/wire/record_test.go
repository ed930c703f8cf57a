package wire

import (
	"encoding/binary"
	"errors"
	"math"
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
				{ID: 4200, Src: 3, Dst: 0, Dir: checkpoint.Sent, SentAt: 42_000_010, LoggedAt: 42_000_010, Bytes: 2048, Tag: 1, AppSeq: 90},
				{ID: 4201, Src: 1, Dst: 3, Dir: checkpoint.Received, SentAt: 41_999_990, LoggedAt: 42_000_020, Bytes: 64, Tag: math.MaxUint64, AppSeq: 17},
			},
			FinalizedAt: 42_000_500, CFEFold: 0xcbf29ce484222325, CFEWork: 423, CFEProgress: 420, StableAt: 42_000_700,
		},
		{ // extremes: every delta and varint at its limits
			Tentative: checkpoint.Tentative{Proc: math.MaxInt32, Seq: math.MaxInt64, TakenAt: math.MinInt64,
				StateBytes: -1, Fold: math.MaxUint64, Work: math.MinInt64, Progress: math.MaxInt64, FlushedAt: -1,
				JoinedBy: math.MinInt64},
			Log: []checkpoint.LoggedMsg{
				{ID: math.MinInt64, Src: -1, Dst: math.MaxInt64, Dir: checkpoint.Received,
					SentAt: math.MaxInt64, LoggedAt: math.MinInt64, Bytes: math.MinInt64, AppSeq: math.MaxInt64},
			},
			FinalizedAt: math.MaxInt64, CFEWork: -1, CFEProgress: math.MinInt64, StableAt: des.Time(math.MinInt64),
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
// panic and never an allocation sized by what the input claims.
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
	badDir := append([]byte(nil), good...)
	dirAt := head + 1 + 2 + 1 + 1 // count, ID 4200, Src 3, Dst 0
	if badDir[dirAt] != byte(checkpoint.Sent) {
		t.Fatalf("direction byte not at offset %d", dirAt)
	}
	badDir[dirAt] = byte(checkpoint.Received) + 1

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
		{"unknown log direction", badDir, nil},
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
