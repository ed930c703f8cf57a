package protocol

import (
	"math/rand"

	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
	"ocsml/internal/metrics"
	"ocsml/internal/trace"
)

// Snapshot captures the application state of a process at a single virtual
// instant, as a checkpointing protocol would serialize it.
type Snapshot struct {
	Bytes    int64  // serialized state size (configured per cluster)
	Fold     uint64 // deterministic fold over all events applied so far
	Work     int64  // application work units completed
	Progress int64  // application-exported progress (RewindableApp)
}

// Env is the effect interface through which a protocol state machine acts
// on the world. The shared process host (internal/host) implements it,
// driven by the discrete-event engine or the TCP runtime.
// All methods must be called only from within protocol callbacks.
type Env interface {
	// ID returns this process's identifier in [0, N).
	ID() int
	// N returns the number of processes in the computation.
	N() int
	// Now returns the current virtual time.
	Now() des.Time
	// Rand returns the deterministic random source for this simulation.
	Rand() *rand.Rand

	// Send transmits an envelope. The engine assigns ID and SentAt,
	// records trace events and accounts wire bytes. Dst must differ
	// from ID. e is valid only during the call, so the caller may reuse
	// it once Send returns; whatever keeps it (a network in flight, a
	// retransmission buffer) keeps a copy. A copy may share e's payload:
	// a sent payload is never mutated.
	Send(e *Envelope)
	// Broadcast sends a copy of the control envelope to every other
	// process (Dst is overwritten per copy).
	Broadcast(e *Envelope)

	// SetTimer schedules OnTimer(kind, gen) after d. A timer cannot be
	// canceled: a protocol ignores a stale expiry by its gen.
	SetTimer(d des.Duration, kind, gen int)

	// WriteStable enqueues an asynchronous write of size bytes at the
	// shared stable-storage server. The process keeps computing; done
	// (which may be nil) fires when the write completes.
	WriteStable(tag string, bytes int64, done func(start, end des.Time))
	// WriteStableBlocking is WriteStable but stalls the application on
	// this process until the write completes (models a synchronous
	// checkpoint write).
	WriteStableBlocking(tag string, bytes int64, done func(start, end des.Time))
	// StorageQueueLen reports how many writes are queued or in service
	// at the stable-storage server right now. Protocols use it to pick
	// "convenient" (contention-free) flush times, per paper §1.
	StorageQueueLen() int

	// StallApp suspends application progress on this process (deferred
	// message processing and local work); ResumeApp undoes one StallApp.
	// Stalls nest.
	StallApp()
	ResumeApp()
	// StallAppFor stalls the application for a fixed duration, modeling
	// local CPU cost such as copying the process image for a tentative
	// checkpoint.
	StallAppFor(d des.Duration)

	// Snapshot captures the current application state, charging the
	// configured copy cost (an application stall).
	Snapshot() Snapshot
	// Peek reads the current application state without any cost. Used
	// for bookkeeping (e.g. recording the state fold at finalization for
	// replay validation), never as checkpoint content.
	Peek() Snapshot
	// DeliverApp hands an application envelope to the application for
	// processing (possibly deferred if the app is stalled). The protocol
	// controls *when* this happens: the paper's algorithm processes the
	// message before acting; CIC takes a forced checkpoint first.
	//
	// hooks, when non-nil, brackets the processing (see AppHooks).
	DeliverApp(e *Envelope, hooks AppHooks)

	// Checkpoints returns this process's checkpoint store.
	Checkpoints() *checkpoint.ProcStore
	// Note records a protocol-level trace event (tentative taken,
	// finalized, forced, ...) with the given checkpoint sequence number.
	Note(kind trace.Kind, seq int)
	// Count adjusts a named cluster-wide statistic (e.g. "forced",
	// "ctl.CK_BGN", "blocked_ns"). Names are free-form; the harness
	// reads them from the run result.
	Count(name string, delta int64)
	// Metrics returns the hosting runtime's named-metric registry, where
	// layers register first-class instruments (help text, labels,
	// Prometheus exposition) — the structured counterpart of the
	// free-form Count namespace. Never nil.
	Metrics() *metrics.Registry
	// Draining reports that the workload has completed and the engine is
	// letting in-flight protocol activity settle. Protocols should stop
	// initiating new checkpoints once draining.
	Draining() bool
}

// AppHooks brackets the application's processing of a delivered message
// (Env.DeliverApp). BeforeApp runs right after the host applies the
// receive to the application state and right before the application
// handler runs (protocols log the received message here, so it precedes
// any replies the handler sends); AfterApp runs right after the handler
// returns (protocols put their "after processing" case analysis here).
// Both run at processing time, later than delivery time if the
// application was stalled, and then on the host's copy of the envelope.
type AppHooks interface {
	BeforeApp(e *Envelope)
	AfterApp(e *Envelope)
}

// Protocol is a checkpointing algorithm hosted by an engine. One instance
// exists per process. Implementations must not retain goroutines or locks:
// the engine serializes all callbacks.
type Protocol interface {
	// Name identifies the algorithm ("ocsml", "chandy-lamport", ...).
	Name() string
	// Start is invoked once before any events; the protocol stores env
	// and schedules its initial timers.
	Start(env Env)
	// OnAppSend is invoked when the application emits a message. The
	// envelope has Src/Dst/App filled in; the protocol attaches its
	// piggyback (Payload, extra Bytes) and MAY log the message. The
	// engine sends the envelope after this returns. As with Env.Send, e
	// is valid only during the call: the host reuses it for its next
	// send, so a protocol that keeps it keeps a copy, and the payload it
	// attaches must never be mutated afterwards.
	OnAppSend(e *Envelope)
	// OnDeliver is invoked when any envelope (application or control)
	// arrives. For application envelopes the protocol must eventually
	// call Env.DeliverApp exactly once. e, and any payload view it points
	// to, is valid only during the call: the TCP runtime decodes into
	// storage it reuses once OnDeliver returns. A protocol that keeps the
	// envelope keeps e.Owned().
	OnDeliver(e *Envelope)
	// OnTimer is invoked when a timer set via Env.SetTimer fires.
	OnTimer(kind, gen int)
	// Finish is invoked when the workload completes, letting protocols
	// flush pending state for end-of-run accounting. Optional work.
	Finish()
}

// Rewinder is implemented by protocols that support live rollback
// recovery: after a failure the engine restores every process to the
// recovery line and asks the protocol to reset its own state.
type Rewinder interface {
	// Rollback resets the protocol as if the checkpoint with the given
	// sequence number had just been finalized: status normal, csn = seq,
	// logs and tentative state discarded. All previously set timers are
	// invalidated by the engine; the protocol must re-arm what it needs.
	Rollback(seq int)
}

// RewindableApp is implemented by applications that support rollback
// recovery.
type RewindableApp interface {
	App
	// Progress exports the application's local progress (e.g. completed
	// work steps) for inclusion in a checkpoint.
	Progress() int64
	// Restore rewinds the application to the given progress and resumes
	// it (rescheduling local work, calling ctx.Done if the quota is
	// already met). Previously scheduled callbacks were invalidated by
	// the engine.
	Restore(ctx AppCtx, progress int64)
}

// Timer kinds shared by convention across protocols. Each protocol may
// define further kinds above TimerUser.
const (
	// TimerBasic drives periodic "basic" checkpoints.
	TimerBasic = iota
	// TimerConverge is the paper's per-tentative-checkpoint timeout that
	// triggers control messages (§3.5.1).
	TimerConverge
	// TimerFlush drives opportunistic early flushing of a tentative
	// checkpoint to stable storage.
	TimerFlush
	// TimerUser is the first protocol-private timer kind.
	TimerUser
)
