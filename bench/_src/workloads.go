package main

import (
	"time"

	"ocsml/internal/core"
	"ocsml/internal/des"
)

// Frozen set-up shared by every workload.
const (
	clusterN    = 4
	warmup      = 3 * time.Second
	setupTrials = 5 // clusters brought up per run; setup_s is their median
	drainLimit  = 10 * time.Second
)

// workload is one frozen traffic mix. Changing a value here changes what
// every recorded result means; treat it as a new benchmark.
type workload struct {
	name, why string

	// Traffic. ratePerProc is an open-loop schedule (messages per second
	// per process, uniform-random peers); tokensPerProc a closed loop
	// (tokens circulating P_i -> P_i+1, forwarded on receipt).
	ratePerProc   float64
	tokensPerProc int
	// roundsPerSec, when set, has the harness call Node.TriggerCheckpoint
	// on a rotating initiator on that schedule. An initiator that is still
	// tentative (the protocol forbids a second checkpoint then) is asked
	// again every millisecond: the schedule slips, nothing fails.
	roundsPerSec float64
	// crash runs transport.Cluster with the synthetic UniformRandom
	// application (think is its mean step time) and kills and recovers a
	// seeded rotating victim every killEvery.
	crash     bool
	think     time.Duration
	killEvery time.Duration

	// Protocol timing, rescaled from core.DefaultOptions' 30 s / 5 s to a
	// run that lasts seconds.
	interval, timeout       time.Duration
	flushPoll, maxFlushWait time.Duration
	reliable                bool
}

var workloads = []*workload{
	{
		name:        "steady-uniform",
		why:         "open loop 1000 msg/s/process to random peers: message latency while rounds close by piggyback; core+wire+mesh work, fsstore idle",
		ratePerProc: 1000, interval: 200 * time.Millisecond, timeout: 50 * time.Millisecond,
		flushPoll: 5 * time.Millisecond, maxFlushWait: 50 * time.Millisecond, reliable: true,
	},
	{
		name:          "saturate-ring",
		why:           "closed loop of 64 tokens round a ring: CPU-bound message path (codec, mesh batching, node loop, logging); fsstore is noise",
		tokensPerProc: 16, interval: 200 * time.Millisecond, timeout: 50 * time.Millisecond,
		flushPoll: 5 * time.Millisecond, maxFlushWait: 50 * time.Millisecond,
	},
	{
		name:        "ckpt-storm",
		why:         "40 triggered rounds/s closed by CK_BGN/CK_REQ/CK_END over 250 msg/s/process: fsstore append+fsync+manifest bound; message path idle",
		ratePerProc: 250, roundsPerSec: 40, timeout: 5 * time.Millisecond,
		flushPoll: time.Millisecond, maxFlushWait: 10 * time.Millisecond,
	},
	{
		name:  "crash-recover",
		why:   "kill and recover a rotating victim every 1.5 s under uniform traffic: the only reader of fsstore, the RB_* handshake and log replay",
		crash: true, think: 4 * time.Millisecond, killEvery: 1500 * time.Millisecond,
		interval: 100 * time.Millisecond, timeout: 40 * time.Millisecond,
		flushPoll: 5 * time.Millisecond, maxFlushWait: 25 * time.Millisecond, reliable: true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// options is core.DefaultOptions with only the four time scales replaced.
func (w *workload) options() core.Options {
	opt := core.DefaultOptions()
	opt.Interval = des.Duration(w.interval)
	opt.Timeout = des.Duration(w.timeout)
	opt.FlushPoll = des.Duration(w.flushPoll)
	opt.MaxFlushDelay = des.Duration(w.maxFlushWait)
	return opt
}
