package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
	"ocsml/internal/fsstore"
	"ocsml/internal/metrics"
)

// durRecord synthesizes one finalized checkpoint for the durability
// benchmarks: realistic field spread plus a small selective message log.
func durRecord(proc, seq, logn int) checkpoint.Record {
	at := des.Time(seq) * 1000
	r := checkpoint.Record{
		Tentative: checkpoint.Tentative{
			Proc: proc, Seq: seq, TakenAt: at,
			StateBytes: 1 << 20, Fold: uint64(seq)*0x9e3779b9 + 1,
			Work: int64(seq) * 40, Progress: int64(seq)*40 - 3, FlushedAt: at + 200,
		},
		FinalizedAt: at + 500,
		CFEFold:     uint64(seq)*0x9e3779b9 + 77,
		CFEWork:     int64(seq)*40 + 11,
		CFEProgress: int64(seq) * 40,
		StableAt:    at + 700,
	}
	for i := 0; i < logn; i++ {
		r.Log = append(r.Log, checkpoint.LoggedMsg{
			ID: int64(seq*1000 + i), Src: (proc + 1) % 4, Dst: proc,
			Dir: checkpoint.Direction(i % 2), SentAt: at + des.Time(i),
			LoggedAt: at + des.Time(i) + 5, Bytes: 256,
			Tag: uint64(i) + 1, AppSeq: int64(seq*10 + i),
		})
	}
	return r
}

// D1 measures the durability engine's sustained-write path:
// finalizes/sec and fsyncs/finalize at increasing group-commit batch
// depth, against real files with real fsyncs. The fsync ratio is the
// acceptance gate (< 0.5 at depth >= 8); the rate row is wall-clock
// measured and varies run to run.
func D1() Experiment {
	return Experiment{
		ID:    "D1",
		Title: "Durability engine: group-commit amortization of finalize fsyncs",
		Claim: "one segment fsync plus one manifest commit cover a whole batch of finalizations, so fsyncs/finalize falls below 0.5 once the group reaches depth 8 while finalizes/sec rises",
		Run: func(s Scale) *Table {
			records := 2048
			if s.Quick {
				records = 512
			}
			tab := &Table{Columns: []string{"depth", "finalizes_per_s", "fsyncs_per_finalize", "kb_per_finalize"}}
			for _, depth := range []int{1, 4, 8, 16, 32} {
				rate, fpf, bpf := runSustainedWrites(records, depth)
				tab.AddRow(I(depth), F(rate), F(fpf), F(bpf/1024))
			}
			tab.Note("%d finalized checkpoints per depth, 4-entry selective logs, real files + real fsyncs in a throwaway dir", records)
			tab.Note("fsyncs_per_finalize counts actual fsync syscalls (segment + manifest temp + dir syncs); finalizes_per_s is wall-clock measured")
			return tab
		},
	}
}

// runSustainedWrites drives total finalizations through FinalizeBatch at
// the given batch depth and reports the sustained rate, the fsync
// syscalls per finalize, and the bytes written per finalize.
func runSustainedWrites(total, depth int) (rate, fsyncsPer, bytesPer float64) {
	dir, err := os.MkdirTemp("", "ocsml-durbench-*")
	if err != nil {
		panic(fmt.Sprintf("harness: durability bench tempdir: %v", err))
	}
	defer os.RemoveAll(dir)
	s, err := fsstore.Open(dir, 0, 4)
	if err != nil {
		panic(err)
	}
	sm := fsstore.NewStoreMetrics(metrics.NewRegistry(), 0)
	s.SetMetrics(sm)
	start := time.Now() //ocsml:wallclock live durability benchmark timing
	for seq := 1; seq <= total; {
		batch := make([]checkpoint.Record, 0, depth)
		for len(batch) < depth && seq <= total {
			batch = append(batch, durRecord(0, seq, 4))
			seq++
		}
		if n, err := s.FinalizeBatch(batch); err != nil || n != len(batch) {
			panic(fmt.Sprintf("harness: durability bench batch committed %d/%d: %v", n, len(batch), err))
		}
	}
	elapsed := time.Since(start) //ocsml:wallclock live durability benchmark timing
	rate = float64(total) / elapsed.Seconds()
	fsyncsPer = float64(sm.Fsyncs.Value()) / float64(total)
	bytesPer = float64(sm.BytesWritten.Value()) / float64(total)
	return rate, fsyncsPer, bytesPer
}

// D2 measures recovery replay against log length: the wall time to
// reopen a store cold and load every record back, as the history grows.
// It also enforces the correctness gate: every replayed record must be
// byte-identical to the one finalized, or the experiment panics.
func D2() Experiment {
	return Experiment{
		ID:    "D2",
		Title: "Recovery replay vs log length",
		Claim: "a cold reopen plus a load of every record reproduces the finalized history byte for byte, at a wall time linear in the number of records on disk",
		Run: func(s Scale) *Table {
			lengths := []int{64, 256, 1024}
			if s.Quick {
				lengths = []int{32, 128}
			}
			tab := &Table{Columns: []string{"records", "replay_ms", "log_kb"}}
			for _, n := range lengths {
				ms, kb := runRecoveryReplay(n)
				tab.AddRow(I(n), F(ms), F(kb))
			}
			tab.Note("each row writes the history in one batch (4-entry selective logs), reopens the store cold and loads every record; the replay is asserted byte-identical before timing is reported")
			return tab
		},
	}
}

// runRecoveryReplay builds a store of n records, then times a cold
// reopen + full replay. Every replayed record is checked byte-identical
// against the written one.
func runRecoveryReplay(n int) (replayMS, logKB float64) {
	dir, err := os.MkdirTemp("", "ocsml-durbench-*")
	if err != nil {
		panic(fmt.Sprintf("harness: durability bench tempdir: %v", err))
	}
	defer os.RemoveAll(dir)
	s, err := fsstore.Open(dir, 0, 4)
	if err != nil {
		panic(err)
	}
	sm := fsstore.NewStoreMetrics(metrics.NewRegistry(), 0)
	s.SetMetrics(sm)
	batch := make([]checkpoint.Record, 0, n)
	for seq := 1; seq <= n; seq++ {
		batch = append(batch, durRecord(0, seq, 4))
	}
	if k, err := s.FinalizeBatch(batch); err != nil || k != n {
		panic(fmt.Sprintf("harness: durability bench wrote %d/%d: %v", k, n, err))
	}
	logKB = float64(sm.BytesWritten.Value()) / 1024

	start := time.Now() //ocsml:wallclock recovery replay timing
	s2, err := fsstore.Open(dir, 0, 4)
	if err != nil {
		panic(err)
	}
	replayed, err := s2.LoadAll()
	if err != nil {
		panic(fmt.Sprintf("harness: recovery replay: %v", err))
	}
	replayMS = float64(time.Since(start).Microseconds()) / 1000 //ocsml:wallclock recovery replay timing

	// Correctness gate (outside the timed window): the replay must be
	// byte-identical to what was finalized.
	if len(replayed) != n {
		panic(fmt.Sprintf("harness: recovery replay returned %d/%d records", len(replayed), n))
	}
	for i, r := range replayed {
		got, _ := json.Marshal(r)
		want, _ := json.Marshal(batch[i])
		if !bytes.Equal(got, want) {
			panic(fmt.Sprintf("harness: recovery replay diverged at seq %d", batch[i].Seq))
		}
	}
	return replayMS, logKB
}
