package main

import (
	"fmt"
	"io"
	"math"

	"ocsml/internal/checkpoint"
)

// layerInput is everything a traced run gathered for the per-layer report.
type layerInput struct {
	w *workload
	// ref is the untraced reference phase: counters and allocation counts
	// are read there, where the frame hook has not switched frame pooling
	// off. tr is the traced phase. For crash-recover, which has no
	// decorated phase, both are the one crash phase.
	ref, tr *observation
	nop     *observation          // the same traffic on baseline/nop, no datadir
	recs    [][]checkpoint.Record // ref's finalized records, per process
	probes  []*probe              // tr's probes (nil for crash-recover)
	cycles  []cycle
	events  map[string]int64 // ref's free-form event counters

	wire    wireCost
	fin     storeCost
	reopen  storeCost
	fsyncUs float64
}

func val(name, unit string, v float64, n int) metric {
	return metric{Name: name, Unit: unit, Value: v, N: n, SubMin: v, SubMax: v}
}

// spanSamples returns, per span kind, the self time in ns of every span
// the probes recorded, stamped with the span's start.
func spanSamples(probes []*probe) map[spanKind][]sample {
	out := map[spanKind][]sample{}
	for _, p := range probes {
		self := selfTimes(p.spans)
		for i, s := range p.spans {
			out[s.Kind] = append(out[s.Kind], sample{s.Start, float64(self[i])})
		}
	}
	return out
}

// stage is one column of a stage table.
type stage struct {
	name   string
	us     float64 // median time in the stage, µs
	allocs float64 // allocations per operation from the layer's replay; NaN when no replay isolates the stage
	n      int
}

// stageTable is one path's breakdown: its stages in order, the end-to-end
// median they should add up to, and how much of it they do.
type stageTable struct {
	path   string
	stages []stage
	total  float64 // µs
}

func (t stageTable) coverage() float64 {
	var sum float64
	for _, s := range t.stages {
		sum += s.us
	}
	return ratio(sum, t.total)
}

func (t stageTable) print(out io.Writer, unit string, scale float64) {
	fmt.Fprintf(out, "\n%s path (median %s per stage; allocations per operation where a replay isolates the stage)\n", t.path, unit)
	fmt.Fprintf(out, "  %-10s", "")
	for i, s := range t.stages {
		if i > 0 {
			fmt.Fprint(out, " ->")
		}
		fmt.Fprintf(out, " %s", s.name)
	}
	fmt.Fprintf(out, "\n  %-10s", unit)
	for _, s := range t.stages {
		fmt.Fprintf(out, " %*.*f   ", len(s.name), 2, s.us/scale)
	}
	fmt.Fprintf(out, "\n  %-10s", "allocs")
	for _, s := range t.stages {
		if math.IsNaN(s.allocs) {
			fmt.Fprintf(out, " %*s   ", len(s.name), "-")
		} else {
			fmt.Fprintf(out, " %*.*f   ", len(s.name), 1, s.allocs)
		}
	}
	fmt.Fprintf(out, "\n  stages sum to %.2f %s of the %.2f %s end to end (%.0f%%)\n",
		t.coverage()*t.total/scale, unit, t.total/scale, unit, t.coverage()*100)
}

// durations renders spans as samples: each span's length in µs, stamped
// with its end.
func durations(spans []span) []sample {
	out := make([]sample, 0, len(spans))
	for _, s := range spans {
		out = append(out, sample{s.End, float64(s.dur()) / 1e3})
	}
	return out
}

// p50 is the median of the samples inside w.
func p50(samples []sample, w window) (float64, int) {
	vs := valuesIn(samples, w)
	return quantile(vs, 0.5), len(vs)
}

// messageTable splits the traced phase's message latency — due time to
// OnMessage — into consecutive stages. generator is the harness's own
// lateness; app.send runs from AppCtx.Send to OnAppSend (id, fold, event
// record); wire.encode from OnAppSend's return to the frame hook (stamp,
// encode, count); mesh.transit from the hook to OnDeliver (queue, socket,
// reader, decode, inbox); core.on_deliver from there to OnMessage.
func messageTable(in *layerInput, transit []span) stageTable {
	w := in.tr.w
	nan := math.NaN()
	var sendPre, deliverPre, onAppSend, encode, trans []sample
	for _, p := range in.probes {
		for _, s := range p.spans {
			if s.Parent < 0 {
				continue
			}
			parent := p.spans[s.Parent]
			switch {
			case s.Kind == spOnAppSend && parent.Kind == spAppSend:
				sendPre = append(sendPre, sample{s.Start, float64(s.Start-parent.Start) / 1e3})
				onAppSend = append(onAppSend, sample{s.Start, float64(s.dur()) / 1e3})
			case s.Kind == spEncode:
				encode = append(encode, sample{s.Start, float64(s.dur()) / 1e3})
			case s.Kind == spAppOnMessage && parent.Kind == spOnDeliver:
				deliverPre = append(deliverPre, sample{s.Start, float64(s.Start-parent.Start) / 1e3})
			}
		}
	}
	trans = durations(transit)
	t := stageTable{path: "message"}
	t.total, _ = p50(in.tr.lat, w)
	add := func(name string, samples []sample, allocs float64) {
		v, n := p50(samples, w)
		t.stages = append(t.stages, stage{name, v, allocs, n})
	}
	add("generator", in.tr.late, nan)
	add("app.send", sendPre, nan)
	add("core.on_app_send", onAppSend, nan)
	add("wire.encode", encode, in.wire.encodeAllocs)
	add("mesh.transit", trans, in.wire.decodeAllocs)
	add("core.on_deliver", deliverPre, nan)
	t.stages = append(t.stages, stage{"app.on_message", 0, nan, len(deliverPre)})
	return t
}

// checkpointTable splits a round's tentative → durable time at the last
// finalization: before it the protocol is converging, after it the flush
// is waiting for its convenient moment, queueing and being written.
func checkpointTable(in *layerInput) stageTable {
	var conv, flush, total []sample
	for _, r := range in.tr.rs {
		conv = append(conv, sample{r.stable, float64(r.finalized-r.taken) / 1e3})
		flush = append(flush, sample{r.stable, float64(r.stable-r.finalized) / 1e3})
		total = append(total, sample{r.stable, float64(r.stable-r.taken) / 1e3})
	}
	t := stageTable{path: "checkpoint"}
	t.total, _ = p50(total, in.tr.w)
	c, n := p50(conv, in.tr.w)
	f, _ := p50(flush, in.tr.w)
	t.stages = []stage{
		{"tentative", c, math.NaN(), n},
		{"finalized", f, in.fin.finalizeAllocs, n},
		{"durable", 0, math.NaN(), n},
	}
	return t
}

// cycleStages returns one recovery cycle's four consecutive stages in ms;
// ok is false for a cycle that failed or whose stamps are incomplete.
func cycleStages(cy cycle) (reopen, handshake, restart, first float64, ok bool) {
	if cy.err != nil || cy.begun == 0 || cy.acked == 0 || cy.first == 0 {
		return 0, 0, 0, 0, false
	}
	ms := func(a, b int64) float64 { return float64(b-a) / 1e6 }
	return ms(cy.invoked, cy.begun), ms(cy.begun, cy.acked), ms(cy.acked, cy.returned), ms(cy.returned, cy.first), true
}

func recoveryTable(in *layerInput) stageTable {
	var re, hs, rs, fd, tot []float64
	for _, cy := range in.cycles {
		if a, b, c, d, ok := cycleStages(cy); ok {
			re, hs, rs, fd = append(re, a), append(hs, b), append(rs, c), append(fd, d)
			tot = append(tot, a+b+c+d)
		}
	}
	nan := math.NaN()
	return stageTable{path: "recovery", total: median(tot) * 1e3, stages: []stage{
		{"reopen", median(re) * 1e3, nan, len(re)},
		{"handshake", median(hs) * 1e3, nan, len(hs)},
		{"truncate+reload", median(rs) * 1e3, nan, len(rs)},
		{"first delivery", median(fd) * 1e3, nan, len(fd)},
	}}
}

// perLayer computes the ungated per-layer metrics. Every one is reported
// on every workload; one that has nothing to measure there reads 0.
func perLayer(in *layerInput, out io.Writer) []metric {
	ref, tr := in.ref, in.tr
	dl := ref.snaps[len(ref.snaps)-1].since(ref.snaps[0]) // counter growth over the reference window
	delivered := float64(dl.recv)
	durable := float64(ref.durableIn(ref.w))

	transit := transitSpans(in.probes)
	self := spanSamples(in.probes)
	msgT, ckptT, recT := messageTable(in, transit), checkpointTable(in), recoveryTable(in)
	if in.probes != nil {
		msgT.print(out, "us", 1)
	}
	ckptT.print(out, "ms", 1e3)
	if len(in.cycles) > 0 {
		recT.print(out, "ms", 1e3)
	}

	trans := durations(transit)
	var sendUs []sample
	for _, p := range in.probes {
		sendUs = append(sendUs, p.sendUs...)
	}
	var tentFinal, finalDurable []sample
	var logged, logBytes float64
	for _, recs := range in.recs {
		for _, r := range recs {
			if r.Seq == 0 || !ref.w.has(int64(r.FinalizedAt)) {
				continue
			}
			tentFinal = append(tentFinal, sample{int64(r.FinalizedAt), float64(r.FinalizedAt-r.TakenAt) / 1e6})
			logged += float64(len(r.Log))
			logBytes += float64(r.LogBytes())
			if r.StableAt != 0 {
				finalDurable = append(finalDurable, sample{int64(r.FinalizedAt), float64(r.StableAt-r.FinalizedAt) / 1e6})
			}
		}
	}
	rounds := float64(len(tentFinal)) / clusterN

	var stageMs [5][]float64 // reopen, handshake, restart, first, total
	var lag []float64
	for _, cy := range in.cycles {
		if re, hs, rs, fd, ok := cycleStages(cy); ok {
			for i, v := range []float64{re, hs, rs, fd, re + hs + rs + fd} {
				stageMs[i] = append(stageMs[i], v)
			}
		}
		lag = append(lag, float64(cy.preLine-cy.line))
	}
	cycles := float64(len(in.cycles))

	overhead := 1.0
	if in.probes != nil {
		if in.w.tokensPerProc > 0 { // closed loop: the cost of tracing shows as lost throughput
			overhead = ratio(delivered/ref.w.seconds(), float64(tr.delivered())/tr.w.seconds())
		} else {
			refP50, _ := p50(ref.lat, ref.w)
			overhead = ratio(msgT.total, refP50)
		}
	}
	nopP50, _ := p50(in.nop.lat, in.nop.w)

	ms := []metric{
		val("wire.encode_ns_per_frame", "ns", in.wire.encodeNs, in.wire.frames),
		val("wire.encode_allocs_per_frame", "count", in.wire.encodeAllocs, in.wire.frames),
		val("wire.decode_ns_per_frame", "ns", in.wire.decodeNs, in.wire.frames),
		val("wire.decode_allocs_per_frame", "count", in.wire.decodeAllocs, in.wire.frames),
		val("wire.bytes_per_frame", "B", in.wire.bytesPerFrame, in.wire.frames),
		val("wire.pb_bytes_per_app_msg", "B", ratio(float64(dl.pbBytes), delivered), int(delivered)),
		val("wire.decode_errors", "count", float64(dl.decodeErrs)+float64(in.wire.decodeErrors), 1),

		quantileMetric("mesh.transit_us_p50", "us", trans, tr.w, 0.50),
		quantileMetric("mesh.transit_us_p99", "us", trans, tr.w, 0.99),
		val("mesh.frames_sent", "count", float64(dl.frames), 1),
		val("mesh.bytes_sent", "B", float64(dl.wireBytes), 1),
		val("mesh.dropped", "count", float64(dl.dropped), 1),
		val("mesh.reconnects", "count", float64(dl.reconnects), 1),
		quantileMetric("node.app_send_us_p50", "us", sendUs, tr.w, 0.50),
		val("node.stale_dropped", "count", float64(dl.stale), 1),
		val("node.storage_queue_max", "count", float64(tr.queueMax), 1),

		quantileMetric("core.on_app_send_ns_p50", "ns", self[spOnAppSend], tr.w, 0.50),
		quantileMetric("core.on_deliver_ns_p50", "ns", self[spOnDeliver], tr.w, 0.50),
		quantileMetric("core.on_timer_ns_p50", "ns", self[spOnTimer], tr.w, 0.50),
		quantileMetric("core.tent_to_final_ms_p50", "ms", tentFinal, ref.w, 0.50),
		quantileMetric("core.tent_to_final_ms_p95", "ms", tentFinal, ref.w, 0.95),
		val("core.ctl_msgs_per_round", "count", ratio(float64(dl.ctl), durable), int(durable)),
		val("core.logged_msgs_per_round", "count", ratio(logged, rounds), int(rounds)),
		val("core.log_bytes_per_round", "B", ratio(logBytes, rounds), int(rounds)),

		quantileMetric("fsstore.final_to_durable_ms_p50", "ms", finalDurable, ref.w, 0.50),
		quantileMetric("fsstore.final_to_durable_ms_p95", "ms", finalDurable, ref.w, 0.95),
		val("fsstore.fsyncs_per_finalize", "count", ratio(float64(dl.fsyncs), float64(dl.finalizes)), int(dl.finalizes)),
		val("fsstore.bytes_per_finalize", "B", ratio(float64(dl.fsBytes), float64(dl.finalizes)), int(dl.finalizes)),
		val("fsstore.finalize_us_per_record", "us", in.fin.finalizeUs, in.fin.records),
		val("fsstore.finalize_allocs_per_record", "count", in.fin.finalizeAllocs, in.fin.records),
		val("fsstore.reopen_ms", "ms", in.reopen.reopenMs, 1),
		val("fsstore.load_us_per_record", "us", in.reopen.loadUs, in.reopen.recordsAtRecovery),
		val("fsstore.records_at_recovery", "count", float64(in.reopen.recordsAtRecovery), 1),
		val("fsstore.finalize_errors", "count", float64(dl.finalizeErr), 1),
		val("fsstore.fsync_probe_us", "us", in.fsyncUs, 50),

		val("recovery.recover_ms_p50", "ms", median(stageMs[4]), len(stageMs[4])),
		val("recovery.reopen_ms_p50", "ms", median(stageMs[0]), len(stageMs[0])),
		val("recovery.handshake_ms_p50", "ms", median(stageMs[1]), len(stageMs[1])),
		val("recovery.restart_ms_p50", "ms", median(stageMs[2]), len(stageMs[2])),
		val("recovery.first_delivery_ms_p50", "ms", median(stageMs[3]), len(stageMs[3])),
		val("recovery.replayed_msgs_per_cycle", "count", ratio(float64(in.events["recovery.replayed_msgs"]), cycles), len(in.cycles)),
		val("recovery.rollbacks", "count", float64(in.events["recovery.rollbacks"]), 1),
		val("recovery.replay_mismatch", "count", float64(in.events["recovery.replay_mismatch"]), 1),
		val("recovery.line_lag_rounds", "count", median(lag), len(lag)),

		val("reliable.retransmits", "count", float64(dl.retransmits), 1),
		val("reliable.ack_frames_per_app_msg", "count", ratio(float64(dl.acks), delivered), int(delivered)),

		val("baseline.nop_msg_latency_us_p50", "us", nopP50, in.nop.delivered()),
		quantileMetric("baseline.nop_msg_latency_us_p99", "us", in.nop.lat, in.nop.w, 0.99),
		val("baseline.nop_app_msgs_per_s", "1/s", float64(in.nop.delivered())/in.nop.w.seconds(), in.nop.delivered()),
		val("runtime.allocs_per_app_msg", "count", ratio(float64(dl.mallocs), delivered), int(delivered)),
		val("runtime.gc_pause_ms_total", "ms", float64(dl.gcPauseNs)/1e6, 1),
		quantileMetric("bench.gen_late_us_p99", "us", ref.late, ref.w, 0.99),
		val("bench.trigger_retries", "count", float64(ref.retries), ref.triggers),
		val("bench.trace_overhead_ratio", "ratio", overhead, 1),
		val("bench.msg_path_coverage", "ratio", msgT.coverage(), msgT.stages[0].n),
		val("bench.ckpt_path_coverage", "ratio", ckptT.coverage(), ckptT.stages[0].n),
		val("bench.recovery_path_coverage", "ratio", recT.coverage(), recT.stages[0].n),
	}
	return append(ungated(ref), ms...)
}
