package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ocsml/internal/checkpoint"
	"ocsml/internal/trace"
)

// TestCheckAllGlobalsFlatInRounds pins what checking every S_k costs: one
// walk of the trace, not one per seq. A synthetic run exchanges a fixed
// 4,000 messages and then finalizes 10 or 200 rounds, the last with an
// orphan that only a check of every S_k finds; checking the 200 rounds may
// allocate at most twice what checking the 10 does. (Checked one seq at a
// time, each S_k re-paired every message: about 20 times.)
func TestCheckAllGlobalsFlatInRounds(t *testing.T) {
	const n, msgs = 4, 4000
	result := func(rounds int) *Result {
		rec := trace.NewRecorder()
		for m := range int64(msgs) {
			src, dst := int(m%n), int((m+1)%n)
			rec.Record(trace.Event{Kind: trace.KSend, Proc: src, Peer: dst, MsgID: m + 1, Seq: -1})
			rec.Record(trace.Event{Kind: trace.KRecv, Proc: dst, Peer: src, MsgID: m + 1, Seq: -1})
		}
		ckpts := checkpoint.NewStore(n)
		for seq := 0; seq <= rounds; seq++ {
			for p := range n {
				if seq == rounds && p == 1 {
					// An orphan of the last S_k: sent after P0's cut,
					// received before P1's.
					rec.Record(trace.Event{Kind: trace.KSend, Proc: 0, Peer: 1, MsgID: msgs + 1, Seq: -1})
					rec.Record(trace.Event{Kind: trace.KRecv, Proc: 1, Peer: 0, MsgID: msgs + 1, Seq: -1})
				}
				if seq > 0 {
					rec.Record(trace.Event{Kind: trace.KFinalize, Proc: p, Peer: -1, Seq: seq})
				}
				ckpts.Proc(p).Add(checkpoint.Record{Tentative: checkpoint.Tentative{Proc: p, Seq: seq}})
			}
		}
		return &Result{Cfg: Config{N: n}, Ckpts: ckpts, Trace: rec}
	}
	allocated := func(r *Result, rounds int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := r.CheckAllGlobals()
		runtime.ReadMemStats(&after)
		if want := fmt.Sprintf("S_%d inconsistent: 1 orphan", rounds); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("CheckAllGlobals over %d rounds = %v, want %q...", rounds, err, want)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	few, many := allocated(result(10), 10), allocated(result(200), 200)
	t.Logf("CheckAllGlobals allocates %d B over 10 rounds, %d B over 200", few, many)
	if many > 2*few {
		t.Fatalf("CheckAllGlobals allocates %d B over 200 rounds, more than twice the %d B over 10: it re-walks the trace per seq", many, few)
	}
}
