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
	"sync/atomic"

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
	// KJoin names the application message on which a process joined
	// round Seq (Fig. 3 case 4b): its checkpoint holds that receive in
	// its state, not in its log. Emitted by the model checker.
	KJoin
)

var kindNames = [...]string{
	KSend: "send", KRecv: "recv", KCtlSend: "ctl-send", KCtlRecv: "ctl-recv",
	KTentative: "tentative", KFinalize: "finalize", KCheckpoint: "checkpoint",
	KForced: "forced", KFail: "fail", KRestore: "restore",
	KLogSend: "log-send", KLogRecv: "log-recv", KJoin: "join",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
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

// chunkLen is the number of events one chunk of a Recorder's history
// holds. A chunk is allocated once and never copied or moved: the event
// after a full chunk opens the next one.
const chunkLen = 4096

// maxTags is how many distinct non-empty control tags a Recorder interns.
const maxTags = 1<<16 - 1

// slot is a recorded Event in 32 bytes. The event's GSeq is its index in
// the history plus one, and tag is its control tag's index in
// Recorder.tags plus one (0: no tag).
type slot struct {
	t, msgID        int64
	proc, peer, seq int32
	kind            Kind
	tag             uint16
}

// Recorder accumulates events. It is safe for concurrent use so the live
// (goroutine-based) runtime can share it; the discrete-event engine uses
// it single-threaded.
type Recorder struct {
	enabled atomic.Bool // read without mu, so a disabled Record takes no lock

	mu     sync.Mutex // guards every field below
	chunks []*[chunkLen]slot
	n      int               // events recorded
	tags   []string          // interned control tags, in first-use order
	tagIdx map[string]uint16 // tag -> its index in tags plus one
}

// NewRecorder returns an enabled recorder.
func NewRecorder() *Recorder {
	r := &Recorder{}
	r.enabled.Store(true)
	return r
}

// SetEnabled toggles recording. An enabled recorder keeps every event for
// the life of the run, 32 bytes each in fixed chunks that are never
// copied; a run that checks no cut disables it and records nothing.
func (r *Recorder) SetEnabled(on bool) { r.enabled.Store(on) }

// Record appends an event, assigning its GSeq (e.GSeq is ignored). It
// returns the assigned GSeq (0 when recording is disabled). Record panics
// rather than truncate when e.Proc, e.Peer or e.Seq does not fit in 32
// bits, or when e.Tag would be the recorder's 65,536th distinct tag.
func (r *Recorder) Record(e Event) int64 {
	if !r.enabled.Load() {
		return 0
	}
	if err := narrowError(e); err != nil {
		panic("trace: Record: " + err.Error())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.n
	if i%chunkLen == 0 {
		r.chunks = append(r.chunks, new([chunkLen]slot))
	}
	r.chunks[i/chunkLen][i%chunkLen] = slot{
		t: int64(e.T), msgID: e.MsgID,
		proc: int32(e.Proc), peer: int32(e.Peer), seq: int32(e.Seq),
		kind: e.Kind, tag: r.internLocked(e.Tag),
	}
	r.n++
	return int64(r.n)
}

// narrowError reports the first of e's Proc, Peer and Seq that a slot
// cannot hold.
func narrowError(e Event) error {
	fits := func(v int) bool { return v == int(int32(v)) }
	switch {
	case !fits(e.Proc):
		return fmt.Errorf("proc %d does not fit in 32 bits", e.Proc)
	case !fits(e.Peer):
		return fmt.Errorf("peer %d does not fit in 32 bits", e.Peer)
	case !fits(e.Seq):
		return fmt.Errorf("seq %d does not fit in 32 bits", e.Seq)
	}
	return nil
}

func (r *Recorder) internLocked(tag string) uint16 {
	if tag == "" {
		return 0
	}
	if x, ok := r.tagIdx[tag]; ok {
		return x
	}
	if len(r.tags) == maxTags {
		panic(fmt.Sprintf("trace: Record: more than %d distinct control tags", maxTags))
	}
	if r.tagIdx == nil {
		r.tagIdx = map[string]uint16{}
	}
	r.tags = append(r.tags, tag)
	r.tagIdx[tag] = uint16(len(r.tags))
	return uint16(len(r.tags))
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// history is the first n events of a Recorder. Record only appends (to
// the last chunk, to chunks and to tags) and never rewrites a slot, so a
// history taken under mu is read without it while Record goes on.
type history struct {
	chunks []*[chunkLen]slot
	n      int
	tags   []string
}

func (r *Recorder) history() history {
	r.mu.Lock()
	defer r.mu.Unlock()
	return history{chunks: r.chunks, n: r.n, tags: r.tags}
}

func (h history) slot(i int) *slot { return &h.chunks[i/chunkLen][i%chunkLen] }

func (h history) event(i int) Event {
	s := h.slot(i)
	e := Event{
		GSeq: int64(i) + 1, T: des.Time(s.t), Kind: s.kind,
		Proc: int(s.proc), Peer: int(s.peer), MsgID: s.msgID, Seq: int(s.seq),
	}
	if s.tag != 0 {
		e.Tag = h.tags[s.tag-1]
	}
	return e
}

// all yields the events in GSeq order, one at a time.
func (h history) all(yield func(Event) bool) {
	for i := range h.n {
		if !yield(h.event(i)) {
			return
		}
	}
}

// Events returns a snapshot copy of all recorded events in GSeq order.
func (r *Recorder) Events() []Event {
	h := r.history()
	out := make([]Event, h.n)
	for i := range out {
		out[i] = h.event(i)
	}
	return out
}

// CountKind returns how many events of the given kind were recorded.
func (r *Recorder) CountKind(k Kind) int {
	n := 0
	h := r.history()
	for i := range h.n {
		if h.slot(i).kind == k {
			n++
		}
	}
	return n
}
