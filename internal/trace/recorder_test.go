package trace

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"ocsml/internal/des"
)

// allocBytes returns the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
}

// TestRecordBytesPerEvent: an event costs its 32-byte slot. A slice of
// Events regrown by append costs about 405 B per event it keeps.
func TestRecordBytesPerEvent(t *testing.T) {
	skipUnderRace(t)
	const n = 100_000
	tags := [...]string{"", "CK_BGN", "CK_REQ"}
	var r *Recorder
	total := allocBytes(func() {
		r = NewRecorder()
		for i := range n {
			r.Record(Event{T: des.Time(i), Kind: Kind(i % len(kindNames)), Proc: i % 4, Peer: -1,
				MsgID: int64(i), Seq: -1, Tag: tags[i%len(tags)]})
		}
	})
	if r.Len() != n {
		t.Fatalf("Len = %d, want %d", r.Len(), n)
	}
	if per := float64(total) / n; per > 40 {
		t.Fatalf("Record allocates %.1f B per event, want at most 40", per)
	}
}

// TestReadsDoNotCopyHistory: CheckGlobals, CountKind and CheckCut read the
// chunks in place. Over histories of checkpoint events only (no message
// for CheckCut to pair), what each allocates must not grow with the
// history.
func TestReadsDoNotCopyHistory(t *testing.T) {
	skipUnderRace(t)
	const n = 4
	history := func(events int) *Recorder {
		r := NewRecorder()
		for i := range events {
			r.Record(Event{Kind: KFinalize, Proc: i % n, Peer: -1, Seq: i / n})
		}
		return r
	}
	small, large := history(16*n), history(5*chunkLen)
	reads := []struct {
		name string
		read func(r *Recorder)
	}{
		{"CheckGlobals", func(r *Recorder) { r.CheckGlobals(n, KFinalize, []int{3}) }},
		{"CountKind", func(r *Recorder) { r.CountKind(KFinalize) }},
		{"CheckCut", func(r *Recorder) { r.CheckCut(Cut{At: []int64{13, 14, 15, 16}}) }},
	}
	for _, rd := range reads {
		rd.read(large)
		s := allocBytes(func() { rd.read(small) })
		l := allocBytes(func() { rd.read(large) })
		if l > s+1024 {
			t.Errorf("%s allocates %d B over %d events and %d B over %d: it copies the history",
				rd.name, l, large.Len(), s, small.Len())
		}
	}
	if a := testing.AllocsPerRun(10, func() { large.CountKind(KFinalize) }); a != 0 {
		t.Errorf("CountKind allocates %.0f times, want 0", a)
	}
}

// TestCheckCutMatchesCheckEvents: the checker reading the recorder in
// place agrees with the checker over the Events() copy, on seeded random
// histories that span several chunks and hold every kind, repeated and
// unmatched message ids, and processes outside the cut.
func TestCheckCutMatchesCheckEvents(t *testing.T) {
	const n = 4
	rng := rand.New(rand.NewSource(35))
	for h := range 3 {
		r := NewRecorder()
		for range 2*chunkLen + rng.Intn(chunkLen) {
			kind := Kind(rng.Intn(2 * len(kindNames)))
			if int(kind) >= len(kindNames) {
				kind %= 2 // half the events are application sends and receives
			}
			r.Record(Event{Kind: kind, Proc: rng.Intn(n+2) - 1, Peer: rng.Intn(n+2) - 1,
				MsgID: rng.Int63n(2000), Seq: rng.Intn(8) - 1})
		}
		events := r.Events()
		for range 20 {
			cut := NewCut(n)
			for p := range cut.At {
				cut.At[p] = rng.Int63n(int64(len(events)) + 1)
			}
			if got, want := r.CheckCut(cut), CheckEvents(events, cut); !reflect.DeepEqual(got, want) {
				t.Fatalf("history %d, cut %v: CheckCut finds %d orphans and %d in flight, CheckEvents %d and %d",
					h, cut.At, len(got.Orphans), len(got.InFlight), len(want.Orphans), len(want.InFlight))
			}
		}
	}
}
