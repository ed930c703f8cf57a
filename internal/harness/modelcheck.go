package harness

import (
	"fmt"
	"math"

	"ocsml/internal/des"
	"ocsml/internal/model"
	"ocsml/internal/reliable"
	"ocsml/internal/storage"
)

// E11 compares the analytical model's predictions with fresh
// measurements — the validation that the simulator behaves like the
// queueing and epidemic systems it is built from.
func E11() Experiment {
	return Experiment{
		ID:    "E11",
		Title: "Analytical model vs measured",
		Claim: "First-order queueing/epidemic models predict the measured contention, blocking, utilization, finalization latency and retransmission rates.",
		Run: func(s Scale) *Table {
			t := &Table{Columns: []string{"quantity", "predicted", "measured", "relErr"}}
			n := 8
			sc := storage.DefaultConfig()
			p := model.Params{
				N: n, StateBytes: 16 << 20,
				Bandwidth: sc.Bandwidth, OpLatency: sc.Latency,
				Interval: 8 * des.Second,
				NetDelay: 1100 * des.Microsecond,
			}
			steps := s.Steps() * 2
			add := func(name string, pred, meas float64) {
				e := math.Abs(pred - meas)
				if meas != 0 {
					e = e / math.Abs(meas)
				}
				t.AddRow(name, F(pred), F(meas), Pct(e))
			}

			// Koo–Toueg write burst.
			kt := Run(RunCfg{
				Proto: "koo-toueg", N: n, Steps: steps,
				Think: 10 * des.Millisecond, StateBytes: p.StateBytes, Interval: p.Interval,
			})
			add("KT mean storage wait (s)", p.BurstMeanWait(n), kt.Storage.MeanWait())
			add("KT peak storage queue", float64(p.BurstPeakQueue(n)), float64(kt.Storage.PeakQueue()))
			rounds := float64(kt.Counter("checkpoints")) / float64(n)
			if rounds > 0 {
				add("KT blocked/proc/round (s)", p.BlockedPerRound(),
					kt.StalledSeconds.Sum()/float64(n)/rounds)
			}

			// OCSML utilization and gossip finalization over the active
			// period. The utilization model is a steady-state statement,
			// so this run spans ~10 checkpoint rounds regardless of
			// scale (boundary rounds otherwise dominate).
			oc := Run(RunCfg{
				Proto: "ocsml", N: n, Steps: 8000,
				Think: 10 * des.Millisecond, StateBytes: p.StateBytes, Interval: p.Interval,
			})
			var busy float64
			for _, w := range oc.Storage.Writes() {
				if w.Arrive <= oc.Makespan {
					busy += (w.End - w.Start).Seconds()
				}
			}
			add("OCSML storage utilization", p.Utilization(), busy/oc.Makespan.Seconds())

			pg := p
			pg.MsgRate = float64(oc.AppMsgs) / float64(n) / oc.Makespan.Seconds()
			var sum float64
			cnt := 0
			for proc := 0; proc < n; proc++ {
				for _, rec := range oc.Ckpts.Proc(proc).All() {
					if rec.Seq > 0 && rec.FinalizedAt <= oc.Makespan {
						sum += rec.FinalizationLatency().Seconds()
						cnt++
					}
				}
			}
			if cnt > 0 {
				add("OCSML finalize latency (s)", pg.GossipFinalization(), sum/float64(cnt))
			}

			// Retransmissions at 15% loss.
			const lossyN = 6
			lossy := Run(RunCfg{
				Proto: "ocsml", N: lossyN, Steps: steps,
				Think: 10 * des.Millisecond, StateBytes: 2 << 20,
				Interval: 4 * des.Second, DropRate: 0.15, Reliable: true,
			})
			pl := model.Params{N: lossyN, MsgRate: float64(lossy.AppMsgs) / lossyN / lossy.Makespan.Seconds()}
			ro := reliable.DefaultOptions()
			add("retransmits/msg @15% loss", pl.RetransmitsPerMessage(0.15, ro.RTO, ro.MaxRTO),
				float64(lossy.Counter("reliable.retransmits"))/float64(lossy.AppMsgs))

			t.Note("first-order models: burst FIFO queueing, two-phase epidemic gossip, cumulative ACKs carried back at twice the link rate; see internal/model")
			return t
		},
	}
}

// assertModelSanity keeps E11 registered and its helper math honest.
func init() {
	if _, ok := ByID("E11"); !ok {
		panic(fmt.Sprintf("harness: E11 not registered (ids %v)", IDs()))
	}
}
