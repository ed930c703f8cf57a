package ocsml_test

// One benchmark per evaluation artifact: the F-scenarios (paper Figures
// 1, 2, 5) and the experiments E1–E11 / ablations A1–A4 (DESIGN.md
// experiment index). Each experiment benchmark runs its full quick-scale
// sweep per iteration and reports headline metrics via b.ReportMetric, so
// `go test -bench . -benchmem` regenerates the whole evaluation at small
// scale.

import (
	"strconv"
	"testing"

	"ocsml/internal/core"
	"ocsml/internal/des"
	"ocsml/internal/engine"
	"ocsml/internal/harness"
	"ocsml/internal/netsim"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
	"ocsml/internal/workload"
)

// BenchmarkF1_Checker exercises the Figure-1 artifact: consistency
// checking of global cuts on a recorded trace.
func BenchmarkF1_Checker(b *testing.B) {
	rec := trace.NewRecorder()
	const n = 8
	msg := int64(0)
	for i := 0; i < 2000; i++ {
		msg++
		src := i % n
		dst := (i + 1 + i/7) % n
		if dst == src {
			dst = (dst + 1) % n
		}
		rec.Record(trace.Event{Kind: trace.KSend, Proc: src, Peer: dst, MsgID: msg})
		rec.Record(trace.Event{Kind: trace.KRecv, Proc: dst, Peer: src, MsgID: msg})
		if i%200 == 150 {
			for p := 0; p < n; p++ {
				rec.Record(trace.Event{Kind: trace.KCheckpoint, Proc: p, Seq: i / 200})
			}
		}
	}
	seqs := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range rec.CheckGlobals(n, trace.KCheckpoint, seqs) {
			if !g.Complete || !g.Consistent() {
				b.Fatalf("S_%d: complete %v, %d orphans", g.Seq, g.Complete, len(g.Orphans))
			}
		}
	}
}

// figure2Run replays the paper's Figure-2 scenario once.
func figure2Run() *engine.Result {
	ms := des.Millisecond
	plans := map[int][]workload.ScriptedSend{
		0: {{At: 20 * ms, Dst: 1, Bytes: 100}},
		1: {{At: 40 * ms, Dst: 3, Bytes: 100}, {At: 45 * ms, Dst: 2, Bytes: 100}, {At: 100 * ms, Dst: 3, Bytes: 100}},
		2: {{At: 55 * ms, Dst: 1, Bytes: 100}, {At: 80 * ms, Dst: 1, Bytes: 100}},
		3: {{At: 60 * ms, Dst: 2, Bytes: 100}, {At: 120 * ms, Dst: 0, Bytes: 100}},
	}
	cfg := engine.DefaultConfig()
	cfg.N = 4
	cfg.Latency = netsim.Fixed{D: ms}
	cfg.StateBytes = 1 << 20
	cfg.CopyCost = 0
	cfg.Drain = 100 * ms
	protos := make([]*core.Protocol, 4)
	c := engine.New(cfg, func(i, n int) protocol.Protocol {
		protos[i] = core.New(core.Options{})
		return protos[i]
	}, workload.ScriptedFactory(plans))
	c.Sim.At(10*ms, protos[0].Initiate)
	return c.Run()
}

// BenchmarkF2_Scenario replays Figure 2 end to end, including the
// consistency verification of S_1.
func BenchmarkF2_Scenario(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := figure2Run()
		if err := r.CheckGlobal(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF5_Convergence replays Figure 5's control-message round.
func BenchmarkF5_Convergence(b *testing.B) {
	ms := des.Millisecond
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plans := map[int][]workload.ScriptedSend{
			1: {{At: 10 * ms, Dst: 2, Bytes: 100}},
			2: {{At: 20 * ms, Dst: 1, Bytes: 100}},
			3: {{At: 30 * ms, Dst: 2, Bytes: 100}, {At: 40 * ms, Dst: 2, Bytes: 100}},
		}
		cfg := engine.DefaultConfig()
		cfg.N = 4
		cfg.Latency = netsim.Fixed{D: ms}
		cfg.StateBytes = 1 << 20
		cfg.CopyCost = 0
		cfg.Drain = 500 * ms
		protos := make([]*core.Protocol, 4)
		c := engine.New(cfg, func(i, n int) protocol.Protocol {
			protos[i] = core.New(core.Options{Timeout: 100 * ms, SuppressBGN: true, SkipREQ: true})
			return protos[i]
		}, workload.ScriptedFactory(plans))
		c.Sim.At(10*ms, protos[1].Initiate)
		r := c.Run()
		if r.Counter("ctl.CK_REQ") != 3 {
			b.Fatalf("CK_REQ = %d", r.Counter("ctl.CK_REQ"))
		}
	}
}

// benchExperiment runs a harness experiment per iteration and reports a
// metric extracted from its table.
func benchExperiment(b *testing.B, id string, metric func(*harness.Table) (string, float64)) {
	e, ok := harness.ByID(id)
	if !ok {
		b.Fatalf("experiment %s missing", id)
	}
	var tab *harness.Table
	for i := 0; i < b.N; i++ {
		tab = e.Execute(harness.Scale{Quick: true})
	}
	if metric != nil && tab != nil {
		name, v := metric(tab)
		b.ReportMetric(v, name)
	}
}

func cell(tab *harness.Table, row, col int) float64 {
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		return -1
	}
	return v
}

// lastRowWhere finds the last row whose column col equals val.
func lastRowWhere(tab *harness.Table, col int, val string) int {
	idx := -1
	for i, row := range tab.Rows {
		if row[col] == val {
			idx = i
		}
	}
	return idx
}

func BenchmarkE1_OverheadVsN(b *testing.B) {
	benchExperiment(b, "E1", func(tab *harness.Table) (string, float64) {
		i := lastRowWhere(tab, 1, "ocsml")
		return "ocsml-makespan-s", cell(tab, i, 2)
	})
}

func BenchmarkE2_StorageContention(b *testing.B) {
	benchExperiment(b, "E2", func(tab *harness.Table) (string, float64) {
		i := lastRowWhere(tab, 1, "ocsml")
		return "ocsml-peak-queue", cell(tab, i, 2)
	})
}

func BenchmarkE3_ControlMessages(b *testing.B) {
	benchExperiment(b, "E3", func(tab *harness.Table) (string, float64) {
		return "ctl-per-global-sparse", cell(tab, len(tab.Rows)-1, 3)
	})
}

func BenchmarkE4_FinalizationLatency(b *testing.B) {
	benchExperiment(b, "E4", func(tab *harness.Table) (string, float64) {
		return "dense-finalize-s", cell(tab, 0, 2)
	})
}

func BenchmarkE5_LogVolume(b *testing.B) {
	benchExperiment(b, "E5", func(tab *harness.Table) (string, float64) {
		return "dense-log-kb", cell(tab, 0, 2)
	})
}

func BenchmarkE6_Blocking(b *testing.B) {
	benchExperiment(b, "E6", func(tab *harness.Table) (string, float64) {
		i := lastRowWhere(tab, 1, "koo-toueg")
		return "kt-stall-s-per-proc", cell(tab, i, 2)
	})
}

func BenchmarkE7_ForcedCheckpoints(b *testing.B) {
	benchExperiment(b, "E7", func(tab *harness.Table) (string, float64) {
		i := lastRowWhere(tab, 1, "bcs-cic")
		return "cic-forced", cell(tab, i, 3)
	})
}

func BenchmarkE8_RollbackDistance(b *testing.B) {
	benchExperiment(b, "E8", func(tab *harness.Table) (string, float64) {
		i := lastRowWhere(tab, 1, "uncoordinated")
		return "domino-depth", cell(tab, i, 2)
	})
}

func BenchmarkE9_Retention(b *testing.B) {
	benchExperiment(b, "E9", func(tab *harness.Table) (string, float64) {
		i := lastRowWhere(tab, 0, "ocsml")
		return "ocsml-retained-per-proc", cell(tab, i, 2)
	})
}

func BenchmarkE10_LossyChannels(b *testing.B) {
	benchExperiment(b, "E10", func(tab *harness.Table) (string, float64) {
		return "retrans-per-msg-at-30pct", cell(tab, len(tab.Rows)-1, 1)
	})
}

func BenchmarkE11_ModelValidation(b *testing.B) {
	benchExperiment(b, "E11", func(tab *harness.Table) (string, float64) {
		return "kt-wait-pred-s", cell(tab, 0, 1)
	})
}

func BenchmarkA1_BGNSuppression(b *testing.B) {
	benchExperiment(b, "A1", func(tab *harness.Table) (string, float64) {
		return "suppressed-bgn-per-global", cell(tab, 1, 2)
	})
}

func BenchmarkA2_REQSkipping(b *testing.B) {
	benchExperiment(b, "A2", func(tab *harness.Table) (string, float64) {
		return "req-per-global-skip", cell(tab, 1, 2)
	})
}

func BenchmarkA3_EarlyFlush(b *testing.B) {
	benchExperiment(b, "A3", func(tab *harness.Table) (string, float64) {
		return "early-peak-queue", cell(tab, 1, 1)
	})
}

func BenchmarkA4_LocalStorage(b *testing.B) {
	benchExperiment(b, "A4", func(tab *harness.Table) (string, float64) {
		i := lastRowWhere(tab, 0, "koo-toueg")
		return "kt-local-blocked-s", cell(tab, i, 4)
	})
}

// BenchmarkProtocolThroughput measures raw simulator throughput for the
// core protocol: virtual events per real second on a dense workload.
func BenchmarkProtocolThroughput(b *testing.B) {
	b.ReportAllocs()
	var msgs int64
	for i := 0; i < b.N; i++ {
		r := harness.Run(harness.RunCfg{
			Proto: "ocsml", N: 8, Seed: int64(i + 1),
			Steps: 2000, Think: 5 * des.Millisecond,
			StateBytes: 4 << 20, Interval: des.Second, Trace: false,
		})
		msgs += r.AppMsgs
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/run")
}

// BenchmarkDominoAnalysis measures the rollback-dependency computation.
func BenchmarkDominoAnalysis(b *testing.B) {
	r := harness.Run(harness.RunCfg{
		Proto: "uncoordinated", N: 8, Steps: 2000,
		Think: 5 * des.Millisecond, StateBytes: 4 << 20,
		Interval: des.Second, Trace: true,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Domino(r, trace.KCheckpoint); err != nil {
			b.Fatal(err)
		}
	}
}
