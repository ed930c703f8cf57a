package main

import (
	"fmt"

	"ocsml/internal/checkpoint"
	"ocsml/internal/fsstore"
	"ocsml/internal/metrics"
	"ocsml/internal/trace"
)

// wantZero reports which of a finished cluster's failure counters — the
// three every workload has, and one of the caller's — are not zero.
func wantZero(reg *metrics.Registry, name string, v int64) []string {
	end := newSampler(reg).read(0)
	var problems []string
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"wire.decode_errors", end.decodeErrs}, {"mesh.dropped", end.dropped},
		{"fsstore.finalize_errors", end.finalizeErr}, {name, v},
	} {
		if c.v != 0 {
			problems = append(problems, fmt.Sprintf("%s = %d, want 0", c.name, c.v))
		}
	}
	return problems
}

// checkStorage compares what the shared checkpoint.Store says was
// finalized with what the datadir can prove: every global checkpoint the
// manifests intersect at must be complete in memory, every one that is
// stable in memory on all N processes must be on disk, and the newest
// durable one must load back on every process.
func checkStorage(ckpts *checkpoint.Store, datadir string, fs func(i int) *fsstore.Store) []string {
	var problems []string
	onDisk, err := fsstore.CompleteSeqs(datadir, clusterN)
	if err != nil {
		return []string{fmt.Sprintf("reading manifests: %v", err)}
	}
	disk := map[int]bool{}
	for _, seq := range onDisk {
		disk[seq] = true
		if _, ok := ckpts.Global(seq); !ok {
			problems = append(problems, fmt.Sprintf("S_%d is complete on disk but not in the checkpoint store", seq))
		}
	}
	for seq := 1; seq <= ckpts.MaxCompleteSeq(); seq++ {
		g, ok := ckpts.Global(seq)
		if !ok {
			continue
		}
		stable := true
		for _, r := range g.Recs {
			stable = stable && r.StableAt != 0
		}
		if stable && !disk[seq] {
			problems = append(problems, fmt.Sprintf("S_%d is stable in the checkpoint store but not complete on disk", seq))
		}
	}
	if len(onDisk) == 0 {
		return append(problems, "no global checkpoint is complete on disk")
	}
	last := onDisk[len(onDisk)-1]
	for i := 0; i < clusterN; i++ {
		if rec, err := fs(i).Load(last); err != nil || rec.Seq != last {
			problems = append(problems, fmt.Sprintf("P%d cannot load S_%d: seq %d, %v", i, last, rec.Seq, err))
		}
	}
	return problems
}

// checkCuts verifies that every global checkpoint complete in the store
// is a consistent cut of the recorded execution: no application message
// received before a process's finalization of S_k was sent after its
// sender's. It checks all of them in one pass over the messages, and
// re-checks a few with the repository's own trace.CheckEvents so the two
// cannot silently disagree. It returns the number of cuts checked.
func checkCuts(events []trace.Event, ckpts *checkpoint.Store) (int, []string) {
	// cut[seq][proc] is the GSeq of the process's last finalize event for
	// seq (a rolled-back and re-taken checkpoint finalizes twice; the
	// later one is the one in the store), as Recorder.CutAt picks it.
	cut := map[int][]int64{}
	type endpoints struct {
		src, dst     int
		sendG, recvG int64
	}
	msgs := map[int64]*endpoints{}
	get := func(id int64) *endpoints {
		m := msgs[id]
		if m == nil {
			m = &endpoints{}
			msgs[id] = m
		}
		return m
	}
	for _, e := range events {
		switch e.Kind {
		case trace.KFinalize:
			if cut[e.Seq] == nil {
				cut[e.Seq] = make([]int64, clusterN)
			}
			cut[e.Seq][e.Proc] = e.GSeq
		case trace.KSend:
			m := get(e.MsgID)
			m.src, m.sendG = e.Proc, e.GSeq
		case trace.KRecv:
			m := get(e.MsgID)
			m.dst, m.recvG = e.Proc, e.GSeq
		}
	}
	var seqs []int
	var problems []string
	for seq := 1; seq <= ckpts.MaxCompleteSeq(); seq++ {
		if _, ok := ckpts.Global(seq); !ok {
			continue
		}
		at := cut[seq]
		complete := at != nil
		for _, g := range at {
			complete = complete && g != 0
		}
		if !complete {
			problems = append(problems, fmt.Sprintf("S_%d has no finalize event on every process", seq))
			continue
		}
		seqs = append(seqs, seq)
	}
	orphans := map[int]int{}
	for _, m := range msgs {
		if m.recvG == 0 {
			continue
		}
		for _, seq := range seqs {
			at := cut[seq]
			if m.recvG <= at[m.dst] && !(m.sendG != 0 && m.sendG <= at[m.src]) {
				orphans[seq]++
			}
		}
	}
	for seq, n := range orphans {
		problems = append(problems, fmt.Sprintf("S_%d is inconsistent: %d orphan message(s)", seq, n))
	}
	// Reference re-check: first, middle and last cut.
	for _, i := range []int{0, len(seqs) / 2, len(seqs) - 1} {
		if i < 0 || i >= len(seqs) {
			continue
		}
		seq := seqs[i]
		rep := trace.CheckEvents(events, trace.Cut{At: cut[seq]})
		if len(rep.Orphans) != orphans[seq] {
			problems = append(problems, fmt.Sprintf("S_%d: trace.CheckEvents finds %d orphan(s), the one-pass check %d",
				seq, len(rep.Orphans), orphans[seq]))
		}
	}
	return len(seqs), problems
}
