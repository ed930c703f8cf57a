// Package core implements the paper's algorithm: Optimistic Checkpointing
// with Selective Message Logging (OCSML) — Jiang & Manivannan, IPPS 2007.
//
// Every checkpoint C_{i,k} is taken in two phases. Phase one records a
// cheap tentative checkpoint CT_{i,k} in local memory and starts logging
// every application message sent or received (logSet_{i,k}). Piggybacked
// (csn, stat, tentSet) information spreads knowledge of the initiation;
// when P_i learns that ALL processes have taken a tentative checkpoint
// with the same sequence number, phase two finalizes: the tentative
// checkpoint and its log are flushed to stable storage at a convenient
// time. Finalized checkpoints with the same sequence number form a
// consistent global checkpoint (paper Theorem 2).
//
// The implementation follows Figure 3 (basic algorithm) and Figure 4
// (control-message augmentation) with the two documented deviations noted
// inline, plus the three §3.5.1/§1 optimizations as options: CK_BGN
// suppression, CK_REQ hop skipping, and opportunistic early flushing of
// the tentative checkpoint when the storage server is idle.
//
// Cut-point placement: when finalization is triggered by a message M whose
// sender had already finalized (Fig. 3 cases 3b and 2c), M is excluded
// from the log and the finalization event CFE is placed BEFORE M's receive
// event, exactly as the paper's Theorem 2 proof requires ("P_j finalizes
// ... not including message M ... therefore CFE_{j,k} happens before
// receive(M)"). The application still processes M without any delay.
package core

import (
	"fmt"
	"strconv"

	"ocsml/internal/checkpoint"
	"ocsml/internal/des"
	"ocsml/internal/metrics"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
)

// Status is the paper's process status. The lifecycle is Fig. 3's
// Normal -> Tentative (takeTentative), Tentative -> Normal (finalize) and
// any -> Normal (Rollback). takeTentative and finalize panic when entered
// from the wrong state; TestTakeTentativeWhileTentative drives every
// caller of takeTentative to show none reaches it while tentative.
type Status uint8

const (
	// Normal means no unfinalized tentative checkpoint exists.
	Normal Status = iota
	// Tentative means a tentative checkpoint awaits finalization; all
	// messages sent and received are being logged.
	Tentative
)

func (s Status) String() string {
	if s == Normal {
		return "normal"
	}
	return "tentative"
}

// Options configures the protocol.
type Options struct {
	// Interval is the basic checkpoint period: each process initiates a
	// consistent global checkpoint this often (paper: "regularly
	// scheduled basic checkpoints"). Zero disables periodic initiation
	// (checkpoints then happen only via received piggybacks or control
	// messages — used by scripted tests).
	Interval des.Duration
	// Timeout is the per-tentative-checkpoint convergence timeout after
	// which control messages are used (§3.5.1). Zero disables control
	// messages entirely — the pure Figure-3 algorithm, which may never
	// converge on quiet workloads.
	Timeout des.Duration
	// SuppressBGN enables the §3.5.1 case-1 optimization: a timed-out
	// process stays silent when a lower-id process is known to have
	// taken the tentative checkpoint. Per the paper, this requires P0 to
	// broadcast CK_END whenever it finalizes, unless EscalateBGN
	// provides the alternative guarantee.
	SuppressBGN bool
	// EscalateBGN (extension, see DESIGN.md) replaces the unconditional
	// P0 CK_END broadcast: a process that suppressed its CK_BGN re-arms
	// its timer and sends unconditionally on the second expiry.
	EscalateBGN bool
	// SkipREQ enables the §3.5.1 case-2 optimization: CK_REQ is
	// forwarded past processes already known to be tentative.
	SkipREQ bool
	// EarlyFlush opportunistically writes the tentative checkpoint to
	// stable storage before finalization whenever the storage server is
	// idle (paper §1: processes store checkpoints "at their own
	// convenience", avoiding contention).
	EarlyFlush bool
	// FlushPoll is how often an unflushed tentative checkpoint re-checks
	// for an idle storage server. A finalization write (paper §1:
	// processes "choose their convenient time" for it) is issued inside
	// finalize when the server is idle and no earlier write waits; a busy
	// server defers it to the first idle poll, every FlushPoll/2 +
	// U(0, FlushPoll/2), so finalizations sharing a server do not burst.
	FlushPoll des.Duration
	// MaxFlushDelay bounds how long a deferred finalization write may
	// wait for an idle server (default: Interval, or 1s if no periodic
	// checkpointing).
	MaxFlushDelay des.Duration
}

// DefaultOptions returns the paper-faithful configuration with all
// optimizations enabled.
func DefaultOptions() Options {
	return Options{
		Interval:    30 * des.Second,
		Timeout:     5 * des.Second,
		SuppressBGN: true,
		SkipREQ:     true,
		EarlyFlush:  true,
		FlushPoll:   100 * des.Millisecond,
	}
}

// Factory builds protocol instances sharing the given options.
func Factory(opt Options) func(i, n int) protocol.Protocol {
	return func(i, n int) protocol.Protocol { return New(opt) }
}

// Piggyback is the protocol state attached to every application message:
// M.csn, M.stat and M.tentSet in the paper's notation. It is exported so
// the real-network runtime (internal/wire) can serialize it. A sent
// envelope carries it as an immutable *Piggyback snapshot (OnAppSend); read
// it with AsPiggyback, which accepts either form.
type Piggyback struct {
	Csn     int
	Stat    Status
	TentSet protocol.ProcSet // snapshot (cloned) at send time
}

// wire size of the fixed piggyback fields (csn:4, stat:1).
const piggyFixedBytes = 5

// Control message tags.
const (
	// TagBGN, TagREQ and TagEND are the §3.5.1 control message names,
	// exported for wire-level tooling.
	TagBGN = "CK_BGN"
	TagREQ = "CK_REQ"
	TagEND = "CK_END"
)

// CtlMsg is the body of a control message: CM.csn in the paper.
type CtlMsg struct {
	Csn int
}

const ctlBytes = 8

// pendingTent tracks the current tentative checkpoint and its optional
// early flush to stable storage.
type pendingTent struct {
	t        checkpoint.Tentative
	ctIssued bool     // CT write enqueued at the storage server
	ctDone   bool     // CT write completed
	ctEnd    des.Time // completion time of the CT write
	// onCTDone is installed at finalization when the CT write is still
	// outstanding; it completes the stable-storage bookkeeping.
	onCTDone func(end des.Time)
}

// Protocol is one process's OCSML state machine.
type Protocol struct {
	env protocol.Env
	opt Options

	csn        int
	stat       Status
	tentSet    protocol.ProcSet
	logSet     []checkpoint.LoggedMsg
	tent       *pendingTent
	lastTentAt des.Time // when the latest tentative checkpoint was taken
	tookAny    bool

	// sendPB is the piggyback the last send carried: a snapshot of (csn,
	// stat, tentSet) that is never mutated, so every envelope carrying it
	// (a retransmission, the DES's in-flight copy) may share it.
	sendPB *Piggyback

	// convGen is the generation of the armed convergence timer, the gen its
	// TimerConverge tick carries: arming and canceling both bump it, so a
	// canceled timer fires and is ignored, on every driver.
	convGen   int
	escalated bool // current csn's CK_BGN was suppressed once (EscalateBGN)

	reqSentCsn int // highest csn for which this process sent/forwarded CK_REQ
	endSentCsn int // highest csn for which this process broadcast CK_END
	aheadNudge int // highest own csn for which an ahead-frame CK_BGN nudge was sent

	// pendingFlush queues finalization writes awaiting a convenient
	// (idle-server) moment; each entry issues the write when executed.
	pendingFlush []deferredFlush
	flushPolling bool

	// First-class registry series (set at Start from env.Metrics); the
	// free-form Count namespace keeps the same statistics for the
	// harness, these serve the admin /metrics catalog.
	mTent   *metrics.Counter
	mFinal  *metrics.Counter
	mLogged *metrics.Counter
}

// deferredFlush is a finalization write waiting for an idle server.
type deferredFlush struct {
	deadline des.Time
	issue    func()
}

// New returns a fresh protocol instance.
func New(opt Options) *Protocol {
	if opt.FlushPoll <= 0 {
		opt.FlushPoll = 100 * des.Millisecond
	}
	return &Protocol{opt: opt}
}

var _ protocol.Protocol = (*Protocol)(nil)

// Name implements protocol.Protocol.
func (p *Protocol) Name() string { return "ocsml" }

// Csn exposes the current checkpoint sequence number (tests).
func (p *Protocol) Csn() int { return p.csn }

// Status exposes the current status (tests).
func (p *Protocol) Status() Status { return p.stat }

// LogLen exposes the current in-memory log length (tests).
func (p *Protocol) LogLen() int { return len(p.logSet) }

// TentProcs exposes the members of the current tentative set (the admin
// API's status snapshot). Empty while status is normal or before Start.
func (p *Protocol) TentProcs() []int {
	if p.tentSet.Universe() == 0 {
		return nil
	}
	return p.tentSet.Members()
}

// Start implements protocol.Protocol: continue from whatever the process's
// checkpoint store holds — its last record when it was refilled from disk
// (a restarted process), else the initial checkpoint (sequence 0, assumed
// already on stable storage), which a fresh process records first.
func (p *Protocol) Start(env protocol.Env) {
	p.env = env
	p.tentSet = protocol.NewProcSet(env.N())
	reg, proc := env.Metrics(), strconv.Itoa(env.ID())
	p.mTent = reg.MustCounterVec("ocsml_ckpt_tentative_total",
		"Tentative checkpoints taken (phase one).", "proc").With(proc)
	p.mFinal = reg.MustCounterVec("ocsml_ckpt_finalized_total",
		"Checkpoints finalized to stable storage (phase two, CFE).", "proc").With(proc)
	p.mLogged = reg.MustCounterVec("ocsml_ckpt_logged_msgs_total",
		"Application messages added to the selective message log.", "proc").With(proc)
	store := env.Checkpoints()
	if store.MaxSeq() < 0 {
		store.Add(checkpoint.Record{
			Tentative: checkpoint.Tentative{Proc: env.ID(), Seq: 0},
			// The initial state is part of the program image; it needs no
			// stable-storage write. StableAt=1ns marks it durable.
			StableAt: 1,
		})
	}
	p.reset(store.MaxSeq())
}

// OnTimer implements protocol.Protocol.
func (p *Protocol) OnTimer(kind, gen int) {
	switch kind {
	case protocol.TimerBasic:
		if !p.env.Draining() {
			switch {
			case p.stat != Normal:
				// Paper §3.4: a process whose status is tentative may
				// not take a new checkpoint; the scheduled basic
				// checkpoint for this interval is skipped.
				p.env.Count("basic_skipped", 1)
			case p.tookAny && p.env.Now()-p.lastTentAt < p.opt.Interval-p.opt.Interval/10:
				// Paper §1: "no process takes more than one checkpoint
				// in any time interval of t seconds." A checkpoint
				// induced by another process's initiation counts as
				// this interval's checkpoint, so the scheduled basic
				// one is skipped — this is what merges the staggered
				// per-process timers into one global round.
				p.env.Count("basic_rate_limited", 1)
			default:
				p.takeTentative()
			}
		}
		if p.opt.Interval > 0 && !p.env.Draining() {
			p.env.SetTimer(p.opt.Interval, protocol.TimerBasic, 0)
		}
	case protocol.TimerConverge:
		p.onConvergeTimeout(gen)
	case protocol.TimerFlush:
		p.onFlushPoll(gen)
	case protocol.TimerUser:
		p.onFinalFlushPoll()
	}
}

// enqueueFlush issues a finalization write at a convenient moment: now, if
// the storage server is idle and no earlier write is waiting (which keeps
// the writes in finalization order); otherwise at the first jittered poll
// that finds the server idle, or unconditionally once the deadline passes.
func (p *Protocol) enqueueFlush(issue func()) {
	if len(p.pendingFlush) == 0 && p.env.StorageQueueLen() == 0 {
		issue()
		return
	}
	maxDelay := p.opt.MaxFlushDelay
	if maxDelay <= 0 {
		maxDelay = p.opt.Interval
	}
	if maxDelay <= 0 {
		maxDelay = des.Second
	}
	p.pendingFlush = append(p.pendingFlush, deferredFlush{
		deadline: p.env.Now() + maxDelay,
		issue:    issue,
	})
	p.schedFlushPoll()
}

func (p *Protocol) schedFlushPoll() {
	if p.flushPolling {
		return
	}
	p.flushPolling = true
	// Jitter the polls so processes don't stampede the instant the
	// server goes idle.
	jitter := des.Duration(p.env.Rand().Int63n(int64(p.opt.FlushPoll)/2 + 1))
	p.env.SetTimer(p.opt.FlushPoll/2+jitter, protocol.TimerUser, 0)
}

func (p *Protocol) onFinalFlushPoll() {
	p.flushPolling = false
	if len(p.pendingFlush) == 0 {
		return
	}
	head := p.pendingFlush[0]
	if p.env.StorageQueueLen() == 0 || p.env.Now() >= head.deadline {
		p.pendingFlush = p.pendingFlush[1:]
		head.issue()
	} else {
		p.env.Count("flush_deferred", 1)
	}
	if len(p.pendingFlush) > 0 {
		p.schedFlushPoll()
	}
}

// Finish implements protocol.Protocol.
func (p *Protocol) Finish() {}

// Rollback implements protocol.Rewinder: reset to the state right after
// finalizing checkpoint seq. The host has already invalidated all timers.
func (p *Protocol) Rollback(seq int) { p.reset(seq) }

// reset is where Start begins and where Rollback returns to, the state
// right after finalizing checkpoint seq: volatile state (tentative
// checkpoint, in-memory log, pending deferred flushes) is discarded and the
// basic-checkpoint timer armed afresh, with a small per-process jitter.
func (p *Protocol) reset(seq int) {
	p.csn = seq
	p.stat = Normal
	p.tentSet.Clear()
	p.logSet = nil
	p.tent = nil
	p.escalated = false
	p.reqSentCsn = seq
	p.endSentCsn = seq
	p.aheadNudge = seq
	p.pendingFlush = nil
	p.flushPolling = false
	p.lastTentAt = p.env.Now()
	if p.opt.Interval > 0 {
		first := p.opt.Interval + des.Duration(p.env.Rand().Int63n(int64(p.opt.Interval/20)+1))
		p.env.SetTimer(first, protocol.TimerBasic, 0)
	}
}

// Initiate starts a consistent global checkpoint collection right now, as
// any process whose status is normal may (paper §3.4.1). It is a no-op
// while tentative. Must be called from simulation context (e.g. a
// scheduled callback); scripted scenarios and examples use it to place
// initiations precisely.
func (p *Protocol) Initiate() {
	if p.stat == Normal {
		p.takeTentative()
	}
}

// takeTentative implements the paper's takeTentativeCheckpoint(i): bump
// csn, switch to tentative, reset tentSet to {P_i}, clear the log, record
// the process state in memory, and arm the convergence timer.
func (p *Protocol) takeTentative() {
	if p.stat != Normal {
		panic(fmt.Sprintf("core: P%d taking tentative checkpoint while tentative", p.env.ID()))
	}
	p.csn++
	p.stat = Tentative
	p.tentSet.Clear()
	p.tentSet.Add(p.env.ID())
	p.logSet = nil
	p.escalated = false
	p.lastTentAt = p.env.Now()
	p.tookAny = true

	snap := p.env.Snapshot()
	p.tent = &pendingTent{t: checkpoint.Tentative{
		Proc: p.env.ID(), Seq: p.csn, TakenAt: p.env.Now(),
		StateBytes: snap.Bytes, Fold: snap.Fold, Work: snap.Work,
		Progress: snap.Progress,
	}}
	p.env.Note(trace.KTentative, p.csn)
	p.env.Count("tentative", 1)
	p.mTent.Inc()

	if p.opt.Timeout > 0 {
		p.armConvTimer()
	}
	if p.opt.EarlyFlush {
		p.env.SetTimer(p.opt.FlushPoll, protocol.TimerFlush, p.csn)
	}
}

// armConvTimer arms the convergence timer, canceling the one armed before.
func (p *Protocol) armConvTimer() {
	p.convGen++
	p.env.SetTimer(p.opt.Timeout, protocol.TimerConverge, p.convGen)
}

// cancelConvTimer voids the armed convergence timer: its expiry no longer
// matches convGen.
func (p *Protocol) cancelConvTimer() { p.convGen++ }

// onFlushPoll opportunistically flushes the tentative checkpoint when the
// stable-storage server is idle.
func (p *Protocol) onFlushPoll(gen int) {
	if p.stat != Tentative || p.csn != gen || p.tent == nil || p.tent.ctIssued {
		return
	}
	if p.env.StorageQueueLen() > 0 {
		p.env.SetTimer(p.opt.FlushPoll, protocol.TimerFlush, gen)
		return
	}
	p.issueCTWrite()
	p.env.Count("early_flush", 1)
}

// issueCTWrite enqueues the tentative checkpoint's stable-storage write.
func (p *Protocol) issueCTWrite() {
	t := p.tent
	t.ctIssued = true
	p.env.WriteStable("ct", t.t.StateBytes, func(start, end des.Time) {
		t.ctDone = true
		t.ctEnd = end
		if t.onCTDone != nil {
			t.onCTDone(end)
		}
	})
}

// logMsg appends an application envelope to the in-memory log.
func (p *Protocol) logMsg(e *protocol.Envelope, dir checkpoint.Direction) {
	p.logSet = append(p.logSet, checkpoint.LoggedMsg{
		ID: e.ID, Src: e.Src, Dst: e.Dst, Dir: dir,
		Bytes: e.App.Bytes, Tag: e.App.Tag, AppSeq: e.App.Seq,
	})
	p.mLogged.Inc()
}

// finalize performs the paper's "Flush logSet_i and CT_{i,csn_i} to the
// stable storage": the checkpoint becomes permanent, status returns to
// normal, and the writes are issued asynchronously (the process keeps
// computing — this is the contention-avoiding design point).
func (p *Protocol) finalize() {
	if p.stat != Tentative {
		panic(fmt.Sprintf("core: P%d finalizing while normal", p.env.ID()))
	}
	seq := p.csn
	t := p.tent
	peek := p.env.Peek()
	rec := checkpoint.Record{
		Tentative:   t.t,
		Log:         p.logSet,
		FinalizedAt: p.env.Now(),
		CFEFold:     peek.Fold,
		CFEWork:     peek.Work,
		CFEProgress: peek.Progress,
	}
	if t.ctDone {
		rec.FlushedAt = t.ctEnd
	}
	p.stat = Normal
	p.tentSet.Clear() // paper: tentSet is empty while status is normal
	p.logSet = nil
	p.tent = nil
	p.cancelConvTimer()

	p.env.Note(trace.KFinalize, seq)
	p.env.Count("finalized", 1)
	p.mFinal.Inc()

	var logBytes int64
	for i := range rec.Log {
		logBytes += rec.Log[i].Bytes
	}
	// In the store before the flush is issued: the write's completion marks
	// the record stable there, and a driver serving the flush persists it.
	store := p.env.Checkpoints()
	store.Add(rec)
	switch {
	case !t.ctIssued:
		// CT still in memory: one combined write of state + log, at a
		// convenient time.
		p.enqueueFlush(func() {
			p.env.WriteStable("ct+log", t.t.StateBytes+logBytes, func(start, end des.Time) {
				store.MarkStable(seq, end)
			})
		})
	case t.ctDone:
		// CT already on stable storage: only the log remains.
		ctEnd := t.ctEnd
		p.enqueueFlush(func() {
			p.env.WriteStable("log", logBytes, func(start, end des.Time) {
				if ctEnd > end {
					end = ctEnd
				}
				store.MarkStable(seq, end)
			})
		})
	default:
		// CT write still queued: the checkpoint is stable when both
		// writes complete.
		var logEnd, ctEnd des.Time
		maybe := func() {
			if logEnd > 0 && ctEnd > 0 {
				end := logEnd
				if ctEnd > end {
					end = ctEnd
				}
				store.MarkStable(seq, end)
			}
		}
		t.onCTDone = func(end des.Time) { ctEnd = end; maybe() }
		p.enqueueFlush(func() {
			p.env.WriteStable("log", logBytes, func(start, end des.Time) { logEnd = end; maybe() })
		})
	}

	// §3.5.1 case 1: with CK_BGN suppression, the paper requires P0 to
	// broadcast CK_END whenever it finalizes, so that processes that
	// suppressed their CK_BGN cannot be stranded by an already-finalized
	// lower-id process. EscalateBGN replaces this guarantee.
	if p.env.ID() == 0 && p.opt.Timeout > 0 && p.opt.SuppressBGN && !p.opt.EscalateBGN {
		p.broadcastEND(seq)
	}
}

// OnAppSend implements protocol.Protocol: piggyback (csn, stat, tentSet)
// on every application message and, while tentative, log the send. The
// piggyback is a new snapshot only when the state moved since the last
// send; comparing on every send leaves no invalidation site to miss.
func (p *Protocol) OnAppSend(e *protocol.Envelope) {
	if pb := p.sendPB; pb == nil || pb.Csn != p.csn || pb.Stat != p.stat || !pb.TentSet.Equal(p.tentSet) {
		p.sendPB = &Piggyback{Csn: p.csn, Stat: p.stat, TentSet: p.tentSet.Clone()}
	}
	e.Payload = p.sendPB
	e.Bytes += piggyFixedBytes + p.tentSet.ByteSize()
	if p.stat == Tentative {
		p.logMsg(e, checkpoint.Sent)
	}
}

// OnDeliver implements protocol.Protocol: the receive rules of Figure 3
// (application messages) and Figure 4 (control messages).
func (p *Protocol) OnDeliver(e *protocol.Envelope) {
	if e.Kind == protocol.KindCtl {
		p.onControl(e)
		return
	}
	pb, ok := AsPiggyback(e.Payload)
	if !ok {
		panic(fmt.Sprintf("core: P%d received app message without piggyback", p.env.ID()))
	}
	if pb.Csn > p.csn+1 {
		// Fig. 3 cases 2d/4c: impossible — P_j can only finalize csn+1
		// after every process (including us) took csn+1.
		panic(fmt.Sprintf("core: P%d (csn=%d) received impossible piggyback csn=%d", p.env.ID(), p.csn, pb.Csn))
	}
	if pb.Stat == Normal && p.stat == Tentative && pb.Csn > p.csn {
		// Fig. 3 case 3c: impossible — the sender cannot have finalized
		// csn before we finalized csn-1.
		panic(fmt.Sprintf("core: P%d tentative at %d received normal piggyback csn=%d", p.env.ID(), p.csn, pb.Csn))
	}

	// Finalization triggered by this message's piggyback happens BEFORE
	// the receive event: the message is excluded from the log and the
	// cut point precedes it (paper Theorem 2, cases 1-2; Fig. 3's
	// "Flush logSet_i - {M}").
	if p.stat == Tentative {
		senderFinalizedOurCsn := pb.Stat == Normal && pb.Csn == p.csn  // case 3b
		senderStartedNext := pb.Stat == Tentative && pb.Csn == p.csn+1 // case 2c
		if senderFinalizedOurCsn || senderStartedNext {
			p.finalize()
		}
	}

	// Process the message first (paper: no checkpoint is taken before
	// processing a received message), then take the remaining actions in
	// the hooks below, which re-examine protocol state at processing time
	// (later than delivery time if the application was stalled).
	p.env.DeliverApp(e, p)
}

// BeforeApp implements protocol.AppHooks: log the received message ahead
// of any replies the application sends while handling it, keeping the log
// in state-evolution order (required for exact replay).
func (p *Protocol) BeforeApp(e *protocol.Envelope) {
	if p.stat == Tentative {
		p.logMsg(e, checkpoint.Received) // Fig. 3: log every message received while tentative
	}
}

// AfterApp implements protocol.AppHooks: the Figure-3 receive rules that
// follow message processing.
func (p *Protocol) AfterApp(e *protocol.Envelope) {
	pb, _ := AsPiggyback(e.Payload) // OnDeliver checked it
	switch p.stat {
	case Tentative:
		if pb.Stat == Tentative && pb.Csn == p.csn {
			// Case 2b: merge knowledge; finalize once everyone is known
			// to have taken a tentative checkpoint with this csn. The
			// triggering message IS part of the log.
			p.tentSet.UnionWith(pb.TentSet)
			if p.tentSet.Full() {
				p.finalize()
			}
		}
		// Cases 2a/3a (pb.Csn < p.csn): stale information, no action.
	case Normal:
		if pb.Stat == Tentative && pb.Csn == p.csn+1 {
			// Case 4b: first knowledge of a new initiation; join it.
			// The just-processed message is included in the tentative
			// checkpoint's state, not in the log; the record names it so
			// that recovery knows the line already holds it.
			p.takeTentative()
			p.tent.t.JoinedBy = e.ID
			p.tentSet.UnionWith(pb.TentSet)
			// Deviation (v), DESIGN.md: Fig. 3 case 4b omits the
			// allPSet check after the merge, but the piggybacked set
			// may already cover every other process (e.g. N=2); the
			// finalization condition of case 2b holds identically.
			if p.tentSet.Full() {
				p.finalize()
			}
		}
		// Case 1 and 4a: nothing to do.
	}
}
