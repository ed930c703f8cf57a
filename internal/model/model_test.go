package model_test

// The model package's tests ARE the validation: each prediction is
// checked against a fresh simulation measurement and must land within a
// stated tolerance.

import (
	"math"
	"testing"

	"ocsml/internal/des"
	"ocsml/internal/harness"
	"ocsml/internal/model"
	"ocsml/internal/reliable"
	"ocsml/internal/storage"
)

func relErr(pred, meas float64) float64 {
	if meas == 0 {
		return math.Abs(pred)
	}
	return math.Abs(pred-meas) / math.Abs(meas)
}

func params(n int) model.Params {
	sc := storage.DefaultConfig()
	return model.Params{
		N:          n,
		StateBytes: 16 << 20,
		Bandwidth:  sc.Bandwidth,
		OpLatency:  sc.Latency,
		Interval:   8 * des.Second,
		NetDelay:   1100 * des.Microsecond, // mean of the default 0.2–2ms
	}
}

func TestBurstWaitMatchesKooToueg(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		p := params(n)
		r := harness.Run(harness.RunCfg{
			Proto: "koo-toueg", N: n, Steps: 2000,
			Think: 10 * des.Millisecond, StateBytes: p.StateBytes,
			Interval: p.Interval,
		})
		pred := p.BurstMeanWait(n)
		meas := r.Storage.MeanWait()
		if e := relErr(pred, meas); e > 0.15 {
			t.Fatalf("n=%d: burst wait pred %.3f vs meas %.3f (err %.1f%%)", n, pred, meas, 100*e)
		}
		if got := r.Storage.PeakQueue(); got != int64(p.BurstPeakQueue(n)) {
			t.Fatalf("n=%d: peak queue pred %d vs meas %d", n, p.BurstPeakQueue(n), got)
		}
	}
}

func TestBlockedTimeMatchesKooToueg(t *testing.T) {
	n := 8
	p := params(n)
	r := harness.Run(harness.RunCfg{
		Proto: "koo-toueg", N: n, Steps: 3000,
		Think: 10 * des.Millisecond, StateBytes: p.StateBytes,
		Interval: p.Interval,
	})
	rounds := float64(r.Counter("checkpoints")) / float64(n)
	if rounds < 2 {
		t.Fatalf("too few rounds: %v", rounds)
	}
	pred := p.BlockedPerRound() * rounds
	meas := r.StalledSeconds.Sum() / float64(n)
	// The measurement also contains the two-phase message latency and
	// snapshot copy cost; allow 25%.
	if e := relErr(pred, meas); e > 0.25 {
		t.Fatalf("blocked/proc pred %.3f vs meas %.3f (err %.1f%%)", pred, meas, 100*e)
	}
}

func TestUtilizationMatchesOCSML(t *testing.T) {
	n := 8
	p := params(n)
	r := harness.Run(harness.RunCfg{
		Proto: "ocsml", N: n, Steps: 4000,
		Think: 10 * des.Millisecond, StateBytes: p.StateBytes,
		Interval: p.Interval,
	})
	pred := p.Utilization()
	// Measure utilization over the active period only (the drain after
	// workload completion takes no new checkpoints and would dilute it):
	// service seconds of writes enqueued before the makespan / makespan.
	var busy float64
	for _, w := range r.Storage.Writes() {
		if w.Arrive <= r.Makespan {
			busy += (w.End - w.Start).Seconds()
		}
	}
	meas := busy / r.Makespan.Seconds()
	// Logs add a little volume on top of the states. Allow 25%.
	if e := relErr(pred, meas); e > 0.25 {
		t.Fatalf("utilization pred %.3f vs meas %.3f (err %.1f%%)", pred, meas, 100*e)
	}
}

func TestGossipFinalizationOrder(t *testing.T) {
	// The epidemic estimate should land within a factor of ~2.5 of the
	// measured finalization latency on dense uniform traffic (it is a
	// first-order bound, not an exact law). Only checkpoints finalized
	// while traffic still flowed count: the drain's last round converges
	// by timeout, not by gossip.
	n := 8
	think := 10 * des.Millisecond
	r := harness.Run(harness.RunCfg{
		Proto: "ocsml", N: n, Steps: 4000, Think: think,
		StateBytes: 4 << 20, Interval: 4 * des.Second,
	})
	p := params(n)
	p.MsgRate = float64(r.AppMsgs) / float64(n) / r.Makespan.Seconds()
	pred := p.GossipFinalization()

	var sum float64
	cnt := 0
	for proc := 0; proc < n; proc++ {
		for _, rec := range r.Ckpts.Proc(proc).All() {
			if rec.Seq > 0 && rec.FinalizedAt <= r.Makespan {
				sum += rec.FinalizationLatency().Seconds()
				cnt++
			}
		}
	}
	if cnt == 0 {
		t.Fatal("no active-period finalizations measured")
	}
	meas := sum / float64(cnt)
	ratio := pred / meas
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("gossip estimate off: pred %.4f meas %.4f (ratio %.2f)", pred, meas, ratio)
	}
}

func TestLogVolumeMatches(t *testing.T) {
	// Structural relation per checkpoint: log entries ≈ 2·λ·window. The
	// prediction uses each checkpoint's own finalization window and is
	// compared in aggregate over the active period.
	n := 8
	msgBytes := int64(2 << 10)
	r := harness.Run(harness.RunCfg{
		Proto: "ocsml", N: n, Steps: 4000, Think: 10 * des.Millisecond,
		MsgBytes: msgBytes, StateBytes: 4 << 20, Interval: 4 * des.Second,
	})
	rate := float64(r.AppMsgs) / float64(n) / r.Makespan.Seconds()
	p := params(n)
	p.MsgRate = rate

	var predBytes, measBytes float64
	for proc := 0; proc < n; proc++ {
		for _, rec := range r.Ckpts.Proc(proc).All() {
			if rec.Seq == 0 || rec.FinalizedAt > r.Makespan {
				continue
			}
			_, pb := p.LogVolume(rec.FinalizationLatency().Seconds(), msgBytes)
			predBytes += pb
			measBytes += float64(rec.LogBytes())
		}
	}
	if measBytes == 0 {
		t.Fatal("no active-period logs measured")
	}
	if e := relErr(predBytes, measBytes); e > 0.35 {
		t.Fatalf("log volume pred %.0f vs meas %.0f (err %.1f%%)", predBytes, measBytes, 100*e)
	}
}

func TestRetransmitPrediction(t *testing.T) {
	opt := reliable.DefaultOptions()
	for _, q := range []float64{0.05, 0.15, 0.30} {
		r := harness.Run(harness.RunCfg{
			Proto: "ocsml", N: 6, Steps: 3000, Think: 10 * des.Millisecond,
			StateBytes: 2 << 20, Interval: 4 * des.Second,
			DropRate: q, Reliable: true,
		})
		meas := float64(r.Counter("reliable.retransmits")) / float64(r.AppMsgs)
		p := model.Params{N: 6, MsgRate: float64(r.AppMsgs) / 6 / r.Makespan.Seconds()}
		pred := p.RetransmitsPerMessage(q, opt.RTO, opt.MaxRTO)
		// Control traffic (retransmitted control messages, checkpoint
		// rounds) shifts the denominator; allow 40%.
		if e := relErr(pred, meas); e > 0.4 {
			t.Fatalf("q=%.2f: retransmits pred %.3f vs meas %.3f (err %.1f%%)", q, pred, meas, 100*e)
		}
	}
	p := model.Params{N: 6, MsgRate: 100}
	if p.RetransmitsPerMessage(0, opt.RTO, opt.MaxRTO) != 0 {
		t.Fatal("no loss → no retransmits")
	}
	// One acknowledgement per message and a fixed timeout: (1−q)⁻² − 1.
	p.MsgRate = 0
	if got, want := p.RetransmitsPerMessage(0.15, opt.RTO, opt.RTO), 1/(0.85*0.85)-1; relErr(want, got) > 1e-9 {
		t.Fatalf("per-message ACK limit = %.6f, want %.6f", got, want)
	}
}

func TestControlRoundBounds(t *testing.T) {
	p := params(12)
	bgn, req, end := p.ControlRound()
	if bgn != 1 || req != 12 || end != 11 {
		t.Fatalf("control round = %d,%d,%d", bgn, req, end)
	}
}

func TestDominoDepthPrediction(t *testing.T) {
	if model.DominoExpectedDepth(5) != 5 {
		t.Fatal("domino prediction")
	}
}

func TestGossipInfiniteWithoutTraffic(t *testing.T) {
	p := params(4)
	if !math.IsInf(p.GossipFinalization(), 1) {
		t.Fatal("zero rate should predict no convergence (basic algorithm)")
	}
}
