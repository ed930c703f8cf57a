package harness

import (
	"ocsml/internal/des"
	"ocsml/internal/trace"
)

// E9 measures the stable-storage space that must be retained for
// recovery, and what checkpoint garbage collection reclaims.
func E9() Experiment {
	return Experiment{
		ID:    "E9",
		Title: "Stable-storage retention and garbage collection",
		Claim: "Every OCSML checkpoint belongs to a consistent global checkpoint, so everything older than the last committed line is reclaimable (paper §1); uncoordinated checkpointing must keep all checkpoints because the recovery line is unknown until a failure.",
		Run: func(s Scale) *Table {
			t := &Table{Columns: []string{"protocol", "ckpts/proc", "retained/proc", "retainedMB", "reclaimedMB"}}
			think := 5 * des.Millisecond
			steps := s.Steps()
			// ~5 rounds per run, with the interval kept above the
			// baselines' write-burst service time (N·state/bandwidth).
			interval := des.Duration(steps) * think / 5
			for _, proto := range []string{"ocsml", "chandy-lamport", "uncoordinated"} {
				r := Run(RunCfg{
					Proto: proto, N: 8, Steps: steps, Think: think,
					Interval: interval, StateBytes: 4 << 20, Trace: true,
				})
				perProc := float64(r.Ckpts.Proc(0).Len() - 1) // exclude seq 0
				var reclaimed int64
				if proto == "uncoordinated" {
					// GC is unsafe without coordination: the domino
					// analysis shows how deep a failure can reach.
					if a, err := Domino(r, trace.KCheckpoint); err == nil && a.RollbackDepth() > 0 {
						t.Note("uncoordinated: domino depth %d — no prefix is provably reclaimable", a.RollbackDepth())
					}
				} else {
					_, reclaimed = r.Ckpts.GC()
				}
				retained := 0
				for p := 0; p < r.Cfg.N; p++ {
					retained += r.Ckpts.Proc(p).Len()
				}
				t.AddRow(proto,
					F(perProc),
					F(float64(retained)/float64(r.Cfg.N)),
					F(float64(r.Ckpts.RetainedBytes())/(1<<20)),
					F(float64(reclaimed)/(1<<20)))
			}
			return t
		},
	}
}
