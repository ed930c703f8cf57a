// Package trace records the global event history of a simulated
// computation and checks global checkpoints for consistency.
//
// The recorder assigns every event a global sequence number (GSeq). Events
// of a single process are totally ordered by GSeq, so a "cut" — one cut
// point per process — can be expressed as a per-process GSeq bound. A cut
// is consistent exactly when it admits no orphan message: a message whose
// receive lies inside the cut while its send lies outside (paper §2.2).
package trace

import (
	"fmt"
	"sync"

	"ocsml/internal/des"
)

// Kind classifies trace events.
type Kind uint8

const (
	// KSend is the send event of an application message.
	KSend Kind = iota
	// KRecv is the receive (processing) event of an application message.
	KRecv
	// KCtlSend is the send event of a protocol control message.
	KCtlSend
	// KCtlRecv is the receive event of a protocol control message.
	KCtlRecv
	// KTentative marks taking a tentative checkpoint CT_{i,seq}.
	KTentative
	// KFinalize marks the finalization event CFE_{i,seq} — the effective
	// cut point of checkpoint C_{i,seq} (paper Eq. 1).
	KFinalize
	// KCheckpoint marks a monolithic checkpoint taken by a baseline
	// protocol (its own cut point).
	KCheckpoint
	// KForced marks a communication-induced (forced) checkpoint taken
	// before processing a message (CIC baselines).
	KForced
	// KFail marks a process failure.
	KFail
	// KRestore marks a process restoring from a checkpoint.
	KRestore
	// KLogSend marks appending a sent message to the selective log
	// (logSet, paper Fig. 3) — emitted by the model checker so replay
	// sufficiency is checkable offline.
	KLogSend
	// KLogRecv marks appending a received message to the selective log.
	KLogRecv
)

var kindNames = [...]string{
	KSend: "send", KRecv: "recv", KCtlSend: "ctl-send", KCtlRecv: "ctl-recv",
	KTentative: "tentative", KFinalize: "finalize", KCheckpoint: "checkpoint",
	KForced: "forced", KFail: "fail", KRestore: "restore",
	KLogSend: "log-send", KLogRecv: "log-recv",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsCut reports whether this event kind can serve as a checkpoint cut
// point.
func (k Kind) IsCut() bool {
	return k == KFinalize || k == KCheckpoint || k == KTentative || k == KForced
}

// Event is one recorded occurrence.
type Event struct {
	GSeq  int64    // global order, assigned by the recorder
	T     des.Time // virtual time
	Kind  Kind
	Proc  int    // process where the event occurred
	Peer  int    // other endpoint for message events (-1 otherwise)
	MsgID int64  // envelope id for message events (0 otherwise)
	Seq   int    // checkpoint sequence number for checkpoint events (-1 otherwise)
	Tag   string // control tag for control events
}

// Recorder accumulates events. It is safe for concurrent use so the live
// (goroutine-based) runtime can share it; the discrete-event engine uses
// it single-threaded.
type Recorder struct {
	mu sync.Mutex // guards every field below

	events  []Event
	gseq    int64
	enabled bool
}

// NewRecorder returns an enabled recorder.
func NewRecorder() *Recorder { return &Recorder{enabled: true} }

// SetEnabled toggles recording (benchmarks disable it to avoid unbounded
// memory growth).
func (r *Recorder) SetEnabled(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.enabled = on
}

// Record appends an event, assigning its GSeq. It returns the assigned
// GSeq (0 when recording is disabled).
func (r *Recorder) Record(e Event) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.enabled {
		return 0
	}
	r.gseq++
	e.GSeq = r.gseq
	r.events = append(r.events, e)
	return e.GSeq
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Events returns a snapshot copy of all recorded events in GSeq order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Cut is a global cut: for each process i, events with GSeq <= At[i]
// belong to the cut (the "past"). A zero entry means the cut for that
// process lies before all of its events.
type Cut struct {
	At []int64
}

// NewCut returns a cut before all events for n processes.
func NewCut(n int) Cut { return Cut{At: make([]int64, n)} }

// MsgCrossing describes a message that crosses a cut.
type MsgCrossing struct {
	MsgID    int64
	Src, Dst int
	SendG    int64 // GSeq of the send event (0 if unknown)
	RecvG    int64 // GSeq of the receive event (0 if not received)
}

// Report is the result of checking a cut for consistency.
type Report struct {
	// Orphans are messages received inside the cut but sent outside —
	// their existence makes the cut inconsistent.
	Orphans []MsgCrossing
	// InFlight are messages sent inside the cut but not received inside
	// (the "channel state"); these are legal but must be replayed or
	// logged for a complete recovery.
	InFlight []MsgCrossing
}

// Consistent reports whether the cut has no orphan messages.
func (rep *Report) Consistent() bool { return len(rep.Orphans) == 0 }

// CheckCut verifies the cut against all application messages in the trace.
// Control messages are excluded: they are not part of the computation's
// state (the paper's consistency definition ranges over application
// messages).
func (r *Recorder) CheckCut(cut Cut) Report {
	events := r.Events()
	return CheckEvents(events, cut)
}

// CheckEvents is CheckCut over an explicit event slice (used by tests and
// by offline trace files).
func CheckEvents(events []Event, cut Cut) Report {
	type endpoints struct {
		src, dst     int
		sendG, recvG int64
	}
	msgs := map[int64]*endpoints{}
	for _, e := range events {
		switch e.Kind {
		case KSend:
			m := msgs[e.MsgID]
			if m == nil {
				m = &endpoints{}
				msgs[e.MsgID] = m
			}
			m.src, m.sendG = e.Proc, e.GSeq
			if m.recvG == 0 {
				m.dst = e.Peer
			}
		case KRecv:
			m := msgs[e.MsgID]
			if m == nil {
				m = &endpoints{src: e.Peer}
				msgs[e.MsgID] = m
			}
			m.dst, m.recvG = e.Proc, e.GSeq
		}
	}
	inside := func(proc int, g int64) bool {
		if proc < 0 || proc >= len(cut.At) {
			return false
		}
		return g != 0 && g <= cut.At[proc]
	}
	var rep Report
	// Deterministic iteration: walk events, not the map.
	seen := map[int64]bool{}
	for _, e := range events {
		if e.Kind != KSend && e.Kind != KRecv {
			continue
		}
		if seen[e.MsgID] {
			continue
		}
		seen[e.MsgID] = true
		m := msgs[e.MsgID]
		sendIn := inside(m.src, m.sendG)
		recvIn := inside(m.dst, m.recvG)
		cross := MsgCrossing{MsgID: e.MsgID, Src: m.src, Dst: m.dst, SendG: m.sendG, RecvG: m.recvG}
		switch {
		case recvIn && !sendIn:
			rep.Orphans = append(rep.Orphans, cross)
		case sendIn && !recvIn:
			rep.InFlight = append(rep.InFlight, cross)
		}
	}
	return rep
}

// CutAt builds a cut from per-process checkpoint events: for each process,
// the cut point is its event of the given kind with checkpoint sequence
// number seq. It returns false if any process lacks such an event.
//
// For the paper's protocol the cut of S_k uses kind KFinalize (the CFE
// events); for monolithic baselines it uses KCheckpoint (and KForced
// events also count as checkpoints).
func (r *Recorder) CutAt(n int, kind Kind, seq int) (Cut, bool) {
	cut := NewCut(n)
	found := make([]bool, n)
	for _, e := range r.Events() {
		match := e.Kind == kind || (kind == KCheckpoint && e.Kind == KForced)
		if match && e.Seq == seq && e.Proc >= 0 && e.Proc < n {
			cut.At[e.Proc] = e.GSeq
			found[e.Proc] = true
		}
	}
	for _, ok := range found {
		if !ok {
			return Cut{}, false
		}
	}
	return cut, true
}

// ProcEvents returns process i's events in order.
func (r *Recorder) ProcEvents(i int) []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.Proc == i {
			out = append(out, e)
		}
	}
	return out
}

// CountKind returns how many events of the given kind were recorded.
func (r *Recorder) CountKind(k Kind) int {
	n := 0
	for _, e := range r.Events() {
		if e.Kind == k {
			n++
		}
	}
	return n
}
