// Package host is the one process host of this repository: the per-process
// meeting point of application and checkpointing protocol that both the
// discrete-event simulator (internal/engine) and the TCP runtime
// (internal/transport) drive. A Host implements protocol.Env and
// protocol.AppCtx and owns everything the paper's §2.1 process model makes
// local to a process — the application state fold, the stall/deferred
// queue, the epoch that fences timers across a rollback, and the rollback
// step itself — so that logic exists once. What differs between the
// runtimes (clock, envelope ids, the link, the loop, stable storage) sits
// behind Driver.
package host

import (
	"fmt"
	"math/rand"

	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
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

	// epoch fences every tick: whatever was scheduled before a rollback
	// never fires (Fire). down silences a crashed process until the
	// rollback that revives it.
	epoch int
	down  bool

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
	// the state Resume restored already reflects, dropped on arrival. Nil
	// until the first Resume, which replaces it.
	held map[int64]bool
}

// Tick is one timer as a value, which a driver holds and hands back to
// Fire: the epoch that set it and what it runs — an application callback
// (app), the end of a timed stall (resume), or else the protocol's
// OnTimer(kind, gen).
type Tick struct {
	epoch, kind, gen int
	app              func()
	resume           bool
}

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
// calls StartProtocol and StartApp (or Resume).
func New(p Process, drv Driver) *Host {
	return &Host{p: p, drv: drv, count: p.Metrics.EventSink(), ctlNames: map[string]string{}, epoch: p.Epoch}
}

// ---- driver-facing steps ----

// StartProtocol starts the protocol state machine.
func (h *Host) StartProtocol() { h.p.Proto.Start(h) }

// StartApp starts the application from its initial state.
func (h *Host) StartApp() { h.p.App.Start(appCtx{h}) }

// Deliver hands an arriving envelope, already past the driver's epoch
// fence, to the protocol.
func (h *Host) Deliver(e *protocol.Envelope) {
	if e.Kind == protocol.KindCtl {
		h.p.Rec.Record(trace.Event{
			T: h.drv.Now(), Kind: trace.KCtlRecv, Proc: h.p.ID, Peer: e.Src,
			MsgID: e.ID, Seq: -1, Tag: e.CtlTag,
		})
	}
	h.p.Proto.OnDeliver(e)
}

// Crash marks the process failed: its timers and application callbacks
// stay silent until Rollback revives it.
func (h *Host) Crash() { h.down = true }

// Restore sets the application state to what rec captured at its cut,
// and verifies that state the way the paper's piecewise-deterministic
// recovery derives it: replaying the logged messages over the tentative
// checkpoint's fold must reproduce the fold recorded at finalization. It
// returns how many logged messages that replay covered. When the log
// does not reproduce the recorded state the host still resumes from the
// recorded fold (a state the process provably held) and flags the
// divergence rather than inventing a new history.
func (h *Host) Restore(rec *checkpoint.Record) (replayed int) {
	h.fold, h.work = rec.CFEFold, rec.CFEWork
	if !rec.Replays() {
		h.count("recovery.replay_mismatch", 1)
		return 0
	}
	h.count("recovery.replayed_msgs", int64(len(rec.Log)))
	return len(rec.Log)
}

// Rollback puts the process at the recovery line: the line's record is
// fetched from the store and the checkpoints above it are discarded (the
// protocol will legitimately regenerate those sequence numbers), the new
// epoch voids every timer, stall and deferred action of the old one, the
// state is restored from the record, and the protocol resets itself as
// if the line's checkpoint had just been finalized. The application
// stays parked until Resume, so a driver can roll every process it hosts
// back before any of them sends again. Line 0 with no record is the
// initial state, the zero record; any other line this process never
// finalized leaves it untouched, with ok == false.
func (h *Host) Rollback(line, epoch int) (rec checkpoint.Record, replayed int, ok bool) {
	rew, isRew := h.p.Proto.(protocol.Rewinder)
	if !isRew {
		panic(fmt.Sprintf("host: protocol %q does not support rollback", h.p.Proto.Name()))
	}
	if rec, ok = h.p.Ckpts.Get(line); !ok && line != 0 {
		return rec, 0, false
	}
	if removed := h.p.Ckpts.TruncateAfter(line); removed > 0 {
		h.count("recovery.ckpts_discarded", int64(removed))
	}
	h.epoch = epoch
	h.down = false
	h.stall = 0
	h.deferred = nil
	h.appDone = false
	replayed = h.Restore(&rec)
	rew.Rollback(line)
	h.p.Rec.Record(trace.Event{T: h.drv.Now(), Kind: trace.KRestore, Proc: h.p.ID, Peer: -1, Seq: line})
	return rec, replayed, true
}

// Resume rebuilds the channel state of the checkpoint rec, which the
// process was just put at (Rollback, or Restore when a restarted process
// resumes), and restarts the application at rec.CFEProgress. A record is
// C_{i,k} = CT_{i,k} ∪ logSet_{i,k}, so the sends it logged may have been
// in flight across the line: each goes out again under its original ID,
// with the protocol's current piggyback. It is not a fresh application
// send: the state fold and the application sequence already count it.
// The receive side is the filter: from now until the next Resume, an
// application message rec already reflects — one it logged as received,
// or the one it joined its round on — is dropped on arrival, so a re-sent
// message the receiver's own line holds is not processed twice.
func (h *Host) Resume(rec *checkpoint.Record) {
	ra, ok := h.p.App.(protocol.RewindableApp)
	if !ok {
		panic(fmt.Sprintf("host: application on P%d does not support rollback", h.p.ID))
	}
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

// SetTimer implements protocol.Env. Timers die with the epoch that set
// them: a rollback invalidates everything scheduled before it (Fire).
func (h *Host) SetTimer(d des.Duration, kind, gen int) {
	h.drv.After(d, Tick{epoch: h.epoch, kind: kind, gen: gen})
}

// Fire runs a tick the driver scheduled with After. Every tick dies with
// the epoch that set it. A stall's end runs even on a crashed process; a
// protocol timer or application callback stays silent while the process
// is down, and an application callback waits while the application is
// stalled.
func (h *Host) Fire(t Tick) {
	switch {
	case t.epoch != h.epoch: // voided by a rollback
	case t.resume:
		h.ResumeApp()
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
	h.drv.After(d, Tick{epoch: h.epoch, resume: true})
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
// epoch on rollback (Fire).
func (h *Host) After(d des.Duration, fn func()) {
	h.drv.After(d, Tick{epoch: h.epoch, app: fn})
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
