package trace_test

import (
	"math"
	"testing"

	"ocsml/internal/core"
	"ocsml/internal/des"
	"ocsml/internal/protocol"
	"ocsml/internal/reliable"
	"ocsml/internal/trace"
)

// TestRecorderRoundTrip: Events() returns every field of every recorded
// event exactly, through the 32-byte slot: 32-bit extremes and -1 in
// Proc, Peer and Seq, 64-bit extremes in T and MsgID, the empty tag and
// every tag the runtime records, and GSeq 1..n across the first chunk
// boundary (events ChunkLen-1, ChunkLen and ChunkLen+1).
func TestRecorderRoundTrip(t *testing.T) {
	recovery := []string{protocol.TagRbBegin, protocol.TagRbLine, protocol.TagRbCommit, protocol.TagRbAck}
	for _, tag := range recovery {
		if !protocol.IsRecoveryTag(tag) {
			t.Fatalf("%q is not a recovery tag", tag)
		}
	}
	tags := append([]string{"", core.TagBGN, core.TagREQ, core.TagEND, reliable.AckTag}, recovery...)
	narrow := []int{-1, 0, 1, math.MaxInt32, math.MinInt32}
	wide := []int64{-1, 0, 1, math.MaxInt64, math.MinInt64, 1 << 40}

	r := trace.NewRecorder()
	var want []trace.Event
	for i := range trace.ChunkLen + 2 {
		e := trace.Event{
			GSeq: -7, T: des.Time(wide[i%len(wide)]), Kind: trace.Kind(i % 12),
			Proc: narrow[i%len(narrow)], Peer: narrow[(i/len(narrow))%len(narrow)],
			Seq: narrow[(i/7)%len(narrow)], MsgID: wide[(i/len(wide))%len(wide)], Tag: tags[i%len(tags)],
		}
		if g := r.Record(e); g != int64(i)+1 {
			t.Fatalf("event %d: Record assigned GSeq %d", i, g)
		}
		e.GSeq = int64(i) + 1
		want = append(want, e)
	}
	got := r.Events()
	if len(got) != len(want) {
		t.Fatalf("Events() returned %d events, recorded %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d (a chunk holds %d): got %+v, want %+v", i, trace.ChunkLen, got[i], want[i])
		}
	}
}
