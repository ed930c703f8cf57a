// Package host is the one process host of this repository: the per-process
// meeting point of application and checkpointing protocol that both the
// discrete-event simulator (internal/engine) and the TCP runtime
// (internal/transport) drive. A Host implements protocol.Env and
// protocol.AppCtx and owns everything the paper's §2.1 process model makes
// local to a process — the application state fold, the stall/deferred
// queue, the epoch fence, the rollback step itself and both sides of the
// RB_* recovery handshake — so that logic exists once. What differs
// between the runtimes (clock, envelope ids, the link, the loop, stable
// storage) sits behind Driver.
package host

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
	"ocsml/internal/handshake"
	"ocsml/internal/metrics"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
)

// Driver is what a runtime provides to the Host it drives. Every method
// is called on the driver's event loop, and the driver in turn calls
// into the Host only from that loop.
type Driver interface {
	// Now is the runtime's clock (virtual or elapsed real time).
	Now() des.Time
	// NextID allocates an envelope id, unique per run.
	NextID() int64
	// Transmit puts a stamped envelope (Src, ID, Epoch, SentAt set) on
	// the link to e.Dst. e is valid only during the call: the host reuses
	// it for its next send, so a driver that keeps it keeps a copy.
	Transmit(e *protocol.Envelope)
	// After calls Host.Fire(t) on the driver's loop once d has elapsed.
	// The loop that fires ticks is the goroutine that owns the Host. A
	// tick cannot be canceled: Fire drops the stale ones.
	After(d des.Duration, t Tick)
	// WriteStable enqueues an asynchronous stable-storage write; done
	// (which may be nil) runs on the loop when it completes.
	WriteStable(tag string, bytes int64, done func(start, end des.Time))
	// StorageQueueLen reports the writes queued or in service.
	StorageQueueLen() int
	// Image describes the process image a checkpoint records: its size,
	// and how long copying it into memory stalls the application.
	Image() (bytes int64, copyCost des.Duration)

	// AppSent observes a fresh application message after the protocol
	// attached its piggyback and before it is transmitted.
	AppSent(e *protocol.Envelope)
	// Admit observes an application envelope about to be processed
	// (after any stall and past the host's recovery filter).
	Admit(e *protocol.Envelope)
	// Stalled observes the application entering (true) and leaving
	// (false) the stalled state.
	Stalled(on bool)
	// Draining reports that the workload is complete and the run is
	// only settling (protocol.Env.Draining).
	Draining() bool
	// AppDone is told, once per incarnation and rollback, that the
	// application finished its quota.
	AppDone()

	// DurableSeqs is the process's vote in a recovery round: the sequence
	// numbers (above 0) of the checkpoints it holds on stable storage.
	DurableSeqs() []int
	// Truncate makes a rollback to line in epoch durable: the stable
	// copies above line go, after every write already queued. done runs on
	// the loop with the outcome; the RB_ACK waits for it.
	Truncate(line, epoch int, done func(err error))
	// RolledBack observes that the process was put at line (Restart),
	// having replayed replayed logged messages, before it resumes.
	RolledBack(line, replayed int)
}

// Process is the identity and the collaborators of one process.
type Process struct {
	ID, N int
	Proto protocol.Protocol
	App   protocol.App
	// Rand is the process's deterministic random source.
	Rand  *rand.Rand
	Rec   *trace.Recorder
	Ckpts *checkpoint.ProcStore
	// Metrics is the registry the protocol registers its series in; its
	// event sink takes the free-form Count statistics.
	Metrics *metrics.Registry
	// Epoch is the starting epoch.
	Epoch int
}

// Host is one process. It is single-threaded by contract: all of its
// state is owned by the driver's loop — the goroutine on which
// Driver.After fires its ticks. Protocol and application reach the
// methods below through the Env and AppCtx interfaces, from that loop
// only; each driver keeps its side where it calls in, and the race
// tests of the TCP driver (the only one with goroutines) execute it.
type Host struct {
	p        Process
	drv      Driver
	count    func(name string, delta int64) // p.Metrics' event sink
	ctlNames map[string]string              // "ctl."+tag, built once: every ACK is counted

	// epoch is the recovery epoch every envelope is stamped with and
	// fenced by (Deliver). life fences every tick: each rollback bumps it,
	// so whatever was scheduled before never fires (Fire). down silences a
	// crashed process until the rollback that revives it.
	epoch, life int
	down        bool

	// ahead holds owned copies of the envelopes of a newer epoch than
	// this process's, in arrival order, until a rollback adopts it.
	ahead []*protocol.Envelope
	// rb is this process's side of the RB_* handshake as a survivor; co
	// the round it coordinates (Recover), begun at coStart, until decided.
	rb      handshake.Participant
	co      *handshake.Coordinator
	coStart des.Time
	decided func(line, epoch int, err error)

	mStale, mRollbacks *metrics.Counter

	// Application state: a deterministic fold over processed events plus
	// a work counter. This is what checkpoints capture.
	fold    uint64
	work    int64
	appSeq  int64
	appDone bool

	// While stall > 0 the application makes no progress; its deliveries
	// and timer callbacks queue in deferred and replay on the loop.
	stall    int
	deferred []func()

	// out is the envelope of every application send, reused: the protocol
	// and the driver see it only during the send (Env.Send's contract).
	out protocol.Envelope

	// held is the recovery filter: the IDs of the application messages
	// the state Restart restored already reflects, dropped on arrival. Nil
	// until the first Restart, which replaces it.
	held map[int64]bool
}

// Tick is one timer as a value, which a driver holds and hands back to
// Fire: the life that set it and what it runs — an application callback
// (app), the end of a timed stall (resume), a resend of the recovery round
// this process coordinates (rb), or else the protocol's OnTimer(kind, gen).
type Tick struct {
	life, kind, gen int
	app             func()
	resume, rb      bool
}

// The recovery round's clock: every rbRetry the coordinator resends what
// the survivors have not answered (RB_* frames bypass the reliable
// middleware; DESIGN.md §9), and it gives up after rbTimeout.
const (
	rbRetry   = 150 * des.Millisecond
	rbTimeout = 20 * des.Second
)

// maxAhead caps the envelopes a process holds for an epoch it has yet to
// adopt; one more is dropped as stale. A rollback is late by about one
// RB_CMT delivery and the truncations queued before it: the 16-process
// stencil holds 37 frames over all its processes.
const maxAhead = 1024

// appCtx is the application's view of a Host. It shadows Env.Send with
// the application-level Send signature; everything else promotes.
type appCtx struct{ *Host }

// Send implements protocol.AppCtx.
func (a appCtx) Send(dst int, m protocol.AppMsg) { a.sendApp(dst, m) }

var (
	_ protocol.Env    = (*Host)(nil)
	_ protocol.AppCtx = appCtx{}
)

// New builds the host of one process; nothing runs until the driver
// calls StartProtocol and StartApp (or Restart).
func New(p Process, drv Driver) *Host {
	proc := strconv.Itoa(p.ID)
	h := &Host{
		p: p, drv: drv, count: p.Metrics.EventSink(), ctlNames: map[string]string{}, epoch: p.Epoch,
		mStale: p.Metrics.MustCounterVec("ocsml_wire_stale_dropped_total",
			"Envelopes dropped at the epoch fence (traffic of an older epoch).", "proc").With(proc),
		mRollbacks: p.Metrics.MustCounterVec("ocsml_recovery_rollbacks_total",
			"Committed rollbacks executed (RB_CMT).", "proc").With(proc),
	}
	h.rb.Proc = survivor{h}
	return h
}

// ---- driver-facing steps ----

// StartProtocol starts the protocol state machine.
func (h *Host) StartProtocol() { h.p.Proto.Start(h) }

// StartApp starts the application from its initial state.
func (h *Host) StartApp() { h.p.App.Start(appCtx{h}) }

// Deliver takes an arriving envelope through the one epoch fence of both
// drivers. RB_* frames go ahead of it, to the handshake: their coordinator
// cannot know the epoch it is about to establish. The answers to the round
// this process coordinates go to it untraced. Any other envelope is
// processed in the epoch it was sent in, or not at all. An older one is
// pre-rollback traffic, dropped as stale. A newer one comes from a process
// that rolled back before this one: processed now it would land in the
// epoch this process is about to discard, so it is held until a rollback
// adopts its epoch (Restart). A crashed process processes nothing else.
func (h *Host) Deliver(e *protocol.Envelope) {
	switch {
	case h.co != nil && (e.CtlTag == protocol.TagRbLine || e.CtlTag == protocol.TagRbAck):
		h.coordinate(e)
	case protocol.IsRecoveryTag(e.CtlTag):
		h.recordCtlRecv(e)
		h.recover(e)
	case e.Epoch < h.epoch:
		h.stale()
	case e.Epoch > h.epoch:
		if len(h.ahead) == maxAhead {
			h.stale()
			return
		}
		h.ahead = append(h.ahead, e.Owned())
		h.count("recovery.held", 1)
	case h.down: // lost with the crash, like what the link drops
	default:
		if e.Kind == protocol.KindCtl {
			h.recordCtlRecv(e)
		}
		h.p.Proto.OnDeliver(e)
	}
}

func (h *Host) stale() {
	h.count("recovery.stale_dropped", 1)
	h.mStale.Inc()
}

func (h *Host) recordCtlRecv(e *protocol.Envelope) {
	h.p.Rec.Record(trace.Event{
		T: h.drv.Now(), Kind: trace.KCtlRecv, Proc: h.p.ID, Peer: e.Src,
		MsgID: e.ID, Seq: -1, Tag: e.CtlTag,
	})
}

// recover feeds one RB_* frame to the process's handshake.Participant,
// which holds the whole survivor policy (DESIGN.md §9), and does what it
// answers: send its frames, and truncate the stable copies above the line
// through the driver, acknowledging once that landed.
func (h *Host) recover(e *protocol.Envelope) {
	rb, ok := e.Payload.(protocol.RbMsg)
	if !ok {
		h.count("recovery.bad_frames", 1)
		return
	}
	if e.CtlTag != protocol.TagRbBegin && e.CtlTag != protocol.TagRbCommit {
		// RB_LINE and RB_ACK are coordinator-bound; a running process sees
		// them only as leftovers of a round it did not coordinate.
		h.count("recovery.stray_frames", 1)
		return
	}
	f := handshake.Frame{Peer: e.Src, Tag: e.CtlTag, Msg: rb}
	out, truncate := h.rb.Receive(f)
	h.sendFrames(out)
	if truncate {
		h.drv.Truncate(rb.Line, h.epoch, func(err error) { h.sendFrames(h.rb.Truncated(f, err == nil)) })
	}
}

// Recover starts the recovery round a restarted process coordinates
// (DESIGN.md §9), identified by round. The process is down until Restart;
// it votes with Driver.DurableSeqs and its epoch, and resends every
// rbRetry, on a tick that fires while it is down and dies with its life.
// decided is called once, on the loop: with the agreed line and epoch once
// every survivor has made its rollback durable (the driver then makes the
// line durable here and calls Restart), or with an error naming the
// survivors that left the round unanswered for rbTimeout.
func (h *Host) Recover(round int64, decided func(line, epoch int, err error)) {
	h.down = true
	h.coStart, h.decided = h.drv.Now(), decided
	h.co = handshake.NewCoordinator(h.p.ID, h.p.N, round, h.drv.DurableSeqs(), h.epoch)
	h.sendFrames(h.co.Tick())
	h.drv.After(rbRetry, Tick{life: h.life, rb: true})
}

// coordinate feeds an RB_LINE or RB_ACK to the round. The epoch an RB_LINE
// reports is adopted at once, when newer (a restarted OS process starts
// from epoch 0): its traffic predates the round, so the fence drops it,
// and what it held of it goes, leaving room for the round's epoch.
func (h *Host) coordinate(e *protocol.Envelope) {
	rb, ok := e.Payload.(protocol.RbMsg)
	if !ok {
		h.count("recovery.bad_frames", 1)
		return
	}
	if e.CtlTag == protocol.TagRbLine && rb.Epoch > h.epoch {
		h.epoch = rb.Epoch
		h.ahead = slices.DeleteFunc(h.ahead, func(a *protocol.Envelope) bool { return a.Epoch <= rb.Epoch })
	}
	h.sendFrames(h.co.Receive(handshake.Frame{Peer: e.Src, Tag: e.CtlTag, Msg: rb}))
	if h.co.Done() {
		line, epoch := h.co.Decision()
		h.decide(line, epoch, nil)
	}
}

// resend is the round's tick.
func (h *Host) resend() {
	if h.co == nil {
		return // decided: the Restart that ends this life is on its way
	}
	unanswered := h.co.Tick()
	if h.drv.Now()-h.coStart >= rbTimeout {
		peers := make([]int, len(unanswered))
		for i, f := range unanswered {
			peers[i] = f.Peer
		}
		h.decide(-1, -1, fmt.Errorf("host: recovery of P%d: survivors %v left %s unanswered for %v",
			h.p.ID, peers, unanswered[0].Tag, rbTimeout))
		return
	}
	h.sendFrames(unanswered)
	h.drv.After(rbRetry, Tick{life: h.life, rb: true})
}

// decide hands the round's outcome to the driver.
func (h *Host) decide(line, epoch int, err error) {
	decided := h.decided
	h.co, h.decided = nil, nil
	decided(line, epoch, err)
}

// Down reports whether the process is crashed: from Crash or Recover until
// the Restart that revives it.
func (h *Host) Down() bool { return h.down }

// sendFrames sends RB_* frames from this process: a survivor's answers,
// or the round it coordinates.
func (h *Host) sendFrames(frames []handshake.Frame) {
	for _, f := range frames {
		h.Send(&protocol.Envelope{Dst: f.Peer, Kind: protocol.KindCtl, CtlTag: f.Tag, Payload: f.Msg})
	}
}

// survivor is the process as its handshake.Participant reaches it.
type survivor struct{ *Host }

func (s survivor) DurableSeqs() []int { return s.drv.DurableSeqs() }

func (s survivor) Rollback(line, epoch int) {
	if _, ok := s.Restart(line, epoch); ok {
		s.count("recovery.rollbacks", 1)
		s.mRollbacks.Inc()
	}
}

// Crash marks the process failed: its timers and application callbacks
// stay silent, and it takes and sends only RB_* frames, until Restart
// revives it.
func (h *Host) Crash() { h.down = true }

// Restart puts the process at recovery line in epoch. It is the one
// recovery routine, on every path of both drivers: a survivor's committed
// rollback, a restarted victim, a cold restart from disk.
//
// The line's record is fetched from the store and the checkpoints above it
// are discarded (the protocol will legitimately regenerate those sequence
// numbers). The process adopts epoch and a new life that voids every
// timer, stall and deferred action of the old one. Its state is set to
// what the record captured at its cut, verified the way the paper's
// piecewise-deterministic recovery derives it: replaying the logged
// messages over the tentative checkpoint's fold must reproduce the fold
// recorded at finalization; when it does not, the process still resumes
// from the recorded fold (a state it provably held) and the divergence is
// flagged. The protocol resets as if the line's checkpoint had just been
// finalized, and the driver observes the rollback (RolledBack).
//
// Then the channel state of the record is rebuilt. A record is
// C_{i,k} = CT_{i,k} ∪ logSet_{i,k}, so the sends it logged may have been
// in flight across the line: each goes out again under its original ID,
// with the protocol's current piggyback. It is not a fresh application
// send: the state fold and the application sequence already count it. The
// receive side is the filter: from now until the next Restart, an
// application message the record already reflects — one it logged as
// received, or the one it joined its round on — is dropped on arrival. The
// application restarts at the record's progress, and the envelopes held
// for epoch pass the fence again.
//
// Restart returns how many logged messages the replay covered. Line 0 with
// no record is the initial state, the zero record; any other line this
// process never finalized leaves it untouched, with ok == false.
func (h *Host) Restart(line, epoch int) (replayed int, ok bool) {
	rew, isRew := h.p.Proto.(protocol.Rewinder)
	if !isRew {
		panic(fmt.Sprintf("host: protocol %q does not support rollback", h.p.Proto.Name()))
	}
	ra, isRA := h.p.App.(protocol.RewindableApp)
	if !isRA {
		panic(fmt.Sprintf("host: application on P%d does not support rollback", h.p.ID))
	}
	rec, ok := h.p.Ckpts.Get(line)
	if !ok && line != 0 {
		h.count("recovery.line_missing", 1)
		return 0, false
	}
	if removed := h.p.Ckpts.TruncateAfter(line); removed > 0 {
		h.count("recovery.ckpts_discarded", int64(removed))
	}
	h.epoch = epoch
	h.life++
	h.down = false
	h.stall = 0
	h.deferred = nil
	h.appDone = false
	if lost := h.work - rec.CFEWork; lost > 0 {
		h.count("recovery.lost_work", lost)
	}
	h.fold, h.work = rec.CFEFold, rec.CFEWork
	if rec.Replays() {
		replayed = len(rec.Log)
		h.count("recovery.replayed_msgs", int64(replayed))
	} else {
		h.count("recovery.replay_mismatch", 1)
	}
	rew.Rollback(line)
	h.p.Rec.Record(trace.Event{T: h.drv.Now(), Kind: trace.KRestore, Proc: h.p.ID, Peer: -1, Seq: line})
	h.drv.RolledBack(line, replayed)

	h.held = map[int64]bool{}
	if rec.JoinedBy != 0 {
		h.held[rec.JoinedBy] = true
	}
	for i := range rec.Log {
		m := &rec.Log[i]
		if m.Dir == checkpoint.Received {
			h.held[m.ID] = true
			continue
		}
		h.out = protocol.Envelope{
			ID: m.ID, Dst: m.Dst, Kind: protocol.KindApp, Bytes: m.Bytes,
			App: protocol.AppMsg{Seq: m.AppSeq, Tag: m.Tag, Bytes: m.Bytes},
		}
		h.p.Proto.OnAppSend(&h.out)
		h.count("recovery.reinjected", 1)
		h.Send(&h.out)
	}
	ra.Restore(appCtx{h}, rec.CFEProgress)
	ahead := h.ahead
	h.ahead = nil
	for _, e := range ahead {
		if e.Epoch > epoch {
			h.ahead = append(h.ahead, e) // still ahead
			continue
		}
		h.Deliver(e)
	}
	return replayed, true
}

// Epoch returns the current epoch.
func (h *Host) Epoch() int { return h.epoch }

// Fold returns the current deterministic state fold.
func (h *Host) Fold() uint64 { return h.fold }

// Work returns the completed work units.
func (h *Host) Work() int64 { return h.work }

// Finished reports whether the application completed its quota.
func (h *Host) Finished() bool { return h.appDone }

// IsStalled reports whether the application is stalled right now.
func (h *Host) IsStalled() bool { return h.stall > 0 }

// ---- protocol.Env ----

// ID implements protocol.Env and protocol.AppCtx.
func (h *Host) ID() int { return h.p.ID }

// N implements protocol.Env and protocol.AppCtx.
func (h *Host) N() int { return h.p.N }

// Now implements protocol.Env and protocol.AppCtx.
func (h *Host) Now() des.Time { return h.drv.Now() }

// Rand implements protocol.Env and protocol.AppCtx.
func (h *Host) Rand() *rand.Rand { return h.p.Rand }

// Send implements protocol.Env: stamp the envelope, trace and count
// control messages (application messages were traced in sendApp), and
// hand it to the driver's link.
func (h *Host) Send(e *protocol.Envelope) {
	e.Src = h.p.ID
	if e.ID == 0 {
		e.ID = h.drv.NextID()
	}
	e.Epoch = h.epoch
	e.SentAt = h.drv.Now()
	if h.down && !protocol.IsRecoveryTag(e.CtlTag) {
		return // a crashed process sends nothing but its own recovery round
	}
	if e.Kind == protocol.KindCtl {
		name, ok := h.ctlNames[e.CtlTag]
		if !ok {
			name = "ctl." + e.CtlTag
			h.ctlNames[e.CtlTag] = name
		}
		h.count(name, 1)
		h.p.Rec.Record(trace.Event{
			T: e.SentAt, Kind: trace.KCtlSend, Proc: h.p.ID, Peer: e.Dst,
			MsgID: e.ID, Seq: -1, Tag: e.CtlTag,
		})
	}
	h.drv.Transmit(e)
}

// Broadcast implements protocol.Env.
func (h *Host) Broadcast(e *protocol.Envelope) {
	for dst := 0; dst < h.p.N; dst++ {
		if dst == h.p.ID {
			continue
		}
		cp := *e
		cp.ID = 0
		cp.Dst = dst
		h.Send(&cp)
	}
}

// SetTimer implements protocol.Env. Timers die with the life that set
// them: a rollback invalidates everything scheduled before it (Fire).
func (h *Host) SetTimer(d des.Duration, kind, gen int) {
	h.drv.After(d, Tick{life: h.life, kind: kind, gen: gen})
}

// Fire runs a tick the driver scheduled with After. Every tick dies with
// the life that set it. A stall's end and a recovery round's resend run
// even on a crashed process; a protocol timer or application callback
// stays silent while the process is down, and an application callback
// waits while the application is stalled.
func (h *Host) Fire(t Tick) {
	switch {
	case t.life != h.life: // voided by a rollback
	case t.resume:
		h.ResumeApp()
	case t.rb:
		h.resend()
	case h.down: // silent until the rollback that revives it
	case t.app == nil:
		h.p.Proto.OnTimer(t.kind, t.gen)
	case h.stall > 0:
		h.deferred = append(h.deferred, t.app)
	default:
		t.app()
	}
}

// WriteStable implements protocol.Env.
func (h *Host) WriteStable(tag string, bytes int64, done func(start, end des.Time)) {
	h.drv.WriteStable(tag, bytes, done)
}

// WriteStableBlocking implements protocol.Env.
func (h *Host) WriteStableBlocking(tag string, bytes int64, done func(start, end des.Time)) {
	h.StallApp()
	h.drv.WriteStable(tag, bytes, func(start, end des.Time) {
		h.ResumeApp()
		if done != nil {
			done(start, end)
		}
	})
}

// StorageQueueLen implements protocol.Env.
func (h *Host) StorageQueueLen() int { return h.drv.StorageQueueLen() }

// StallApp implements protocol.Env.
func (h *Host) StallApp() {
	if h.stall == 0 {
		h.drv.Stalled(true)
	}
	h.stall++
}

// ResumeApp implements protocol.Env.
func (h *Host) ResumeApp() {
	if h.stall == 0 {
		panic(fmt.Sprintf("host: ResumeApp without StallApp on P%d", h.p.ID))
	}
	h.stall--
	if h.stall == 0 {
		h.drv.Stalled(false)
		// Drain deferred application actions in arrival order. A
		// deferred action may stall again; stop draining if so.
		for len(h.deferred) > 0 && h.stall == 0 {
			fn := h.deferred[0]
			h.deferred = h.deferred[1:]
			fn()
		}
	}
}

// StallAppFor implements protocol.Env.
func (h *Host) StallAppFor(d des.Duration) {
	if d <= 0 {
		return
	}
	h.StallApp()
	h.drv.After(d, Tick{life: h.life, resume: true})
}

// Snapshot implements protocol.Env. Taking a snapshot stalls the
// application for the driver's copy cost (the price of recording the
// process image in memory).
func (h *Host) Snapshot() protocol.Snapshot {
	_, copyCost := h.drv.Image()
	h.StallAppFor(copyCost)
	return h.Peek()
}

// Peek implements protocol.Env: a zero-cost state read.
func (h *Host) Peek() protocol.Snapshot {
	bytes, _ := h.drv.Image()
	s := protocol.Snapshot{Bytes: bytes, Fold: h.fold, Work: h.work}
	if ra, ok := h.p.App.(protocol.RewindableApp); ok {
		s.Progress = ra.Progress()
	}
	return s
}

// DeliverApp implements protocol.Env: hand an application envelope to the
// application, deferring if the app is stalled. The deferred delivery is
// the one path that outlives OnDeliver, so it keeps an owned copy of e.
func (h *Host) DeliverApp(e *protocol.Envelope, hooks protocol.AppHooks) {
	if e.Kind != protocol.KindApp {
		panic("host: DeliverApp on control envelope")
	}
	if h.stall > 0 {
		own := e.Owned()
		h.deferred = append(h.deferred, func() { h.processApp(own, hooks) })
		return
	}
	h.processApp(e, hooks)
}

func (h *Host) processApp(e *protocol.Envelope, hooks protocol.AppHooks) {
	if h.held[e.ID] {
		h.count("recovery.dup_dropped", 1)
		return
	}
	h.drv.Admit(e)
	h.p.Rec.Record(trace.Event{
		T: h.drv.Now(), Kind: trace.KRecv, Proc: h.p.ID, Peer: e.Src, MsgID: e.ID, Seq: -1,
	})
	h.fold = checkpoint.FoldEvent(h.fold, checkpoint.Received, e.Src, e.Dst, e.App.Tag, e.App.Seq)
	if hooks != nil {
		hooks.BeforeApp(e)
	}
	h.p.App.OnMessage(appCtx{h}, e.Src, e.App)
	if hooks != nil {
		hooks.AfterApp(e)
	}
}

// Checkpoints implements protocol.Env.
func (h *Host) Checkpoints() *checkpoint.ProcStore { return h.p.Ckpts }

// Note implements protocol.Env.
func (h *Host) Note(kind trace.Kind, seq int) {
	h.p.Rec.Record(trace.Event{T: h.drv.Now(), Kind: kind, Proc: h.p.ID, Peer: -1, Seq: seq})
}

// Count implements protocol.Env.
func (h *Host) Count(name string, delta int64) { h.count(name, delta) }

// Metrics implements protocol.Env.
func (h *Host) Metrics() *metrics.Registry { return h.p.Metrics }

// Draining implements protocol.Env.
func (h *Host) Draining() bool { return h.drv.Draining() }

// ---- protocol.AppCtx (via appCtx) ----

// sendApp emits an application message: the host assigns identity and
// content tag, folds the send event into the state, traces it, lets the
// protocol piggyback (and possibly log) it, then transmits.
func (h *Host) sendApp(dst int, m protocol.AppMsg) {
	if dst == h.p.ID || dst < 0 || dst >= h.p.N {
		panic(fmt.Sprintf("host: P%d sending to invalid destination %d", h.p.ID, dst))
	}
	h.appSeq++
	m.Seq = h.appSeq
	if m.Tag == 0 {
		m.Tag = h.p.Rand.Uint64() | 1
	}
	h.out = protocol.Envelope{
		ID: h.drv.NextID(), Src: h.p.ID, Dst: dst,
		Kind: protocol.KindApp, Bytes: m.Bytes, App: m,
		Epoch: h.epoch,
	}
	e := &h.out
	h.fold = checkpoint.FoldEvent(h.fold, checkpoint.Sent, h.p.ID, dst, m.Tag, m.Seq)
	h.p.Rec.Record(trace.Event{
		T: h.drv.Now(), Kind: trace.KSend, Proc: h.p.ID, Peer: dst, MsgID: e.ID, Seq: -1,
	})
	h.p.Proto.OnAppSend(e)
	h.drv.AppSent(e)
	h.Send(e)
}

// After implements protocol.AppCtx. The callback is deferred while the
// application is stalled — this is how blocking checkpoints inflate the
// makespan. Like protocol timers, application callbacks die with their
// life on rollback (Fire).
func (h *Host) After(d des.Duration, fn func()) {
	h.drv.After(d, Tick{life: h.life, app: fn})
}

// DoWork implements protocol.AppCtx.
func (h *Host) DoWork(units int64) { h.work += units }

// Done implements protocol.AppCtx.
func (h *Host) Done() {
	if h.appDone {
		return
	}
	h.appDone = true
	h.drv.AppDone()
}
