// Package model derives closed-form analytical predictions for the
// quantities the simulator measures, validating that the simulation
// behaves like the queueing systems it is built from (and making the
// experiment results explainable rather than just observed).
//
// The models are deliberately first-order: deterministic service times,
// synchronized arrivals, complete-graph gossip. E11 compares them with
// the measured values and reports relative error.
package model

import (
	"math"

	"ocsml/internal/des"
)

// Params describes one checkpointing configuration analytically.
type Params struct {
	N          int          // processes
	StateBytes int64        // checkpoint image size
	Bandwidth  int64        // storage bytes/second
	OpLatency  des.Duration // storage per-op latency
	Interval   des.Duration // checkpoint period
	MsgRate    float64      // application messages per second per process
	NetDelay   des.Duration // mean one-way network delay
}

// WriteService is the service time of one checkpoint write.
func (p Params) WriteService() float64 {
	return float64(p.OpLatency)/float64(des.Second) +
		float64(p.StateBytes)/float64(p.Bandwidth)
}

// BurstMeanWait predicts the mean queueing delay when k requests of equal
// service time S arrive simultaneously at an idle FIFO server: the i-th
// request (i = 0..k-1) waits i·S, so the mean is (k-1)/2 · S.
//
// This is the stable-storage contention of the synchronous baselines
// (Koo–Toueg: k = N; Chandy–Lamport: k = N state writes — its N channel-
// state writes are near-zero-byte and only add op latency).
func (p Params) BurstMeanWait(k int) float64 {
	if k <= 1 {
		return 0
	}
	return float64(k-1) / 2 * p.WriteService()
}

// BurstPeakQueue is simply the burst size: all k writes are outstanding
// the moment they arrive.
func (p Params) BurstPeakQueue(k int) int { return k }

// BlockedPerRound predicts the mean per-process application stall of a
// blocking protocol per checkpoint round: each process is blocked until
// its own write completes, i.e. mean wait + service.
func (p Params) BlockedPerRound() float64 {
	return p.BurstMeanWait(p.N) + p.WriteService()
}

// Utilization predicts the storage utilization of periodic checkpointing:
// N writes of service S every Interval.
func (p Params) Utilization() float64 {
	return float64(p.N) * p.WriteService() / p.Interval.Seconds()
}

// GossipFinalization estimates OCSML's finalization latency on dense
// traffic. Finalization needs two epidemic phases: first the initiation
// spreads until every process has taken the tentative checkpoint (push
// phase, ~ln N / λ for uniform-random traffic at per-process rate λ),
// then the merged tentSets must cover allPSet at each process (pull
// phase, another ~ln N / λ), plus network delays:
//
//	T ≈ (2·ln N + γ) / λ + 2·d
//
// with γ Euler's constant. First-order only: piggyback aggregation across
// concurrent chains speeds real spreading up, processing offsets slow it
// down.
func (p Params) GossipFinalization() float64 {
	if p.MsgRate <= 0 {
		return math.Inf(1)
	}
	const gamma = 0.5772156649
	n := float64(p.N)
	return (2*math.Log(n)+gamma)/p.MsgRate + 2*float64(p.NetDelay)/float64(des.Second)
}

// LogVolume predicts the per-checkpoint optimistic log size: every
// process logs its sends and receives during the finalization window, so
// with symmetric traffic the expected entry count is 2·λ·T and the byte
// volume that times the message size.
func (p Params) LogVolume(finalizeSeconds float64, msgBytes int64) (entries float64, bytes float64) {
	entries = 2 * p.MsgRate * finalizeSeconds
	return entries, entries * float64(msgBytes)
}

// ControlRound predicts the worst-case control messages of one §3.5.1
// convergence round with no prior knowledge: one CK_BGN, up to N CK_REQ
// hops (P0 → P1 → ... → P0), and N−1 CK_END broadcasts.
func (p Params) ControlRound() (bgn, req, end int) {
	return 1, p.N, p.N - 1
}

// RetransmitsPerMessage predicts the expected retransmissions per message
// at drop probability q under the reliable layer's cumulative
// acknowledgements (internal/reliable), with initial timeout rto and
// backoff cap maxRTO. Transmission j of a message waits RTO_j =
// min(rto·2^j, maxRTO) and is followed by another iff it is lost, or it
// arrives and every acknowledgement covering it is lost before RTO_j: the
// first (piggybacked on a reverse frame, or standalone after the
// delayed-ACK interval rto/4) and each later frame back on the link in the
// RTO_j − rto/4 left. Later frames come at about twice the link's message
// rate λ = MsgRate/(N−1): its reverse application traffic plus the
// acknowledgements of its later forward arrivals. Each is lost with
// probability q, so transmission j is followed by another with
// probability p_j = q + (1−q)·q·e^{−(1−q)·2λ·(RTO_j − rto/4)}, and the
// expected retransmissions are Σ_{j≥0} p_0·…·p_j. With no later frames
// (λ = 0) and no backoff this is one ACK per message, (1−q)⁻² − 1.
func (p Params) RetransmitsPerMessage(q float64, rto, maxRTO des.Duration) float64 {
	if q <= 0 {
		return 0
	}
	carriers := 2 * p.MsgRate / float64(p.N-1)
	sum, prod := 0.0, 1.0
	for t := rto; prod > 1e-12; t = min(2*t, maxRTO) {
		window := float64(t-rto/4) / float64(des.Second)
		prod *= q + (1-q)*q*math.Exp(-(1-q)*carriers*window)
		sum += prod
	}
	return sum
}

// DominoExpectedDepth gives the qualitative prediction for uncoordinated
// checkpointing under dense traffic: any orphan forces a full-interval
// rollback, and with per-interval message counts far above 1 the cascade
// reaches the initial state with probability ≈ 1 — depth equals the
// number of checkpoints taken.
func DominoExpectedDepth(checkpointsPerProcess int) int { return checkpointsPerProcess }
