// Package checkpoint defines the persistent records produced by
// checkpointing protocols: tentative checkpoints, message logs, finalized
// checkpoints, and the per-process and global stores that assemble
// consistent global checkpoints from them.
//
// Terminology follows the paper: a checkpoint C_{i,k} of process P_i with
// sequence number k is the pair (CT_{i,k}, logSet_{i,k}) — a tentative
// checkpoint (the recorded process state) plus the set of messages sent
// and received between taking CT_{i,k} and finalizing. Baseline protocols
// that have no tentative/log split produce records with an empty log.
package checkpoint

import (
	"fmt"
	"sort"
	"sync"

	"ocsml/internal/des"
)

// Direction says whether a logged message was sent or received by the
// logging process.
type Direction uint8

const (
	// Sent marks a message the process transmitted while tentative.
	Sent Direction = iota
	// Received marks a message the process consumed while tentative.
	Received
)

func (d Direction) String() string {
	if d == Sent {
		return "sent"
	}
	return "received"
}

// LoggedMsg is one entry of a logSet: a message optimistically logged in
// memory after a tentative checkpoint was taken, later flushed to stable
// storage as part of finalization. It holds what recovery reads — the
// identity a re-send keeps and a receive filter matches (ID, endpoints,
// direction) and the content a replay folds (Bytes, Tag, AppSeq) — and
// no times: 56 B in memory, about 13 B in a record (DESIGN §14.1).
type LoggedMsg struct {
	ID       int64     // envelope id, unique per simulation
	Src, Dst int       // endpoints
	Dir      Direction // role of the logging process
	Bytes    int64     // payload size
	Tag      uint64    // deterministic content tag (for replay)
	AppSeq   int64     // sender-local application sequence number
}

// FoldEvent advances a process's deterministic state fold by one message
// event. The fold deliberately excludes envelope ids and times: replaying
// a logged message sequence from a restored tentative checkpoint must
// reproduce the exact fold the process had at finalization, even though a
// re-execution would assign fresh envelope ids (piecewise determinism).
func FoldEvent(state uint64, dir Direction, src, dst int, tag uint64, appSeq int64) uint64 {
	const prime = 0x100000001b3
	mix := func(s, v uint64) uint64 { return (s ^ v) * prime }
	s := mix(state, uint64(dir)+1)
	s = mix(s, uint64(src)+0x9e3779b97f4a7c15)
	s = mix(s, uint64(dst)+0xc2b2ae3d27d4eb4f)
	s = mix(s, tag)
	s = mix(s, uint64(appSeq))
	return s
}

// FoldLog replays a message log over a starting fold, applying only the
// entries visible to the logging process.
func FoldLog(start uint64, log []LoggedMsg) uint64 {
	s := start
	for _, m := range log {
		s = FoldEvent(s, m.Dir, m.Src, m.Dst, m.Tag, m.AppSeq)
	}
	return s
}

// Tentative is a tentative checkpoint CT_{i,k}: the recorded state of a
// process, initially held in local memory.
type Tentative struct {
	Proc       int      // process id
	Seq        int      // checkpoint sequence number k (csn)
	TakenAt    des.Time // when the state was recorded
	StateBytes int64    // serialized state size
	Fold       uint64   // deterministic fold of the application state
	Work       int64    // application work units completed at TakenAt
	Progress   int64    // application-exported progress at TakenAt
	// FlushedAt is when the tentative checkpoint's write to stable
	// storage completed; zero while it still lives only in local memory.
	// The paper allows flushing any time between taking and finalizing.
	FlushedAt des.Time
	// JoinedBy is the ID of the application message on which the process
	// joined round Seq (Figure 3 case 4b): that receive is part of the
	// recorded state, not of the log. 0 when the process initiated the
	// round or joined it on a control message.
	JoinedBy int64
}

// Record is a finalized checkpoint C_{i,k} = CT_{i,k} ∪ logSet_{i,k}.
type Record struct {
	Tentative
	// Log is logSet_{i,k}: messages sent and received between TakenAt
	// and FinalizedAt, in logging order.
	Log []LoggedMsg
	// FinalizedAt is the virtual time of the finalization event
	// CFE_{i,k} — the instant the process decided to finalize. This is
	// the effective cut point of the checkpoint (paper Eq. 1).
	FinalizedAt des.Time
	// CFEFold is the process's state fold at CFE. Replay validation
	// checks Replays: restoring CT and replaying the message log
	// reproduces the state at the cut point exactly.
	CFEFold uint64
	// CFEWork and CFEProgress are bookkeeping snapshots of the work
	// counter and application progress at CFE — the values a restored
	// process resumes from. (The state contract is CT+Log; these derived
	// counters are recorded directly rather than re-derived, since their
	// relation to log entries is application-specific.)
	CFEWork     int64
	CFEProgress int64
	// StableAt is when the log flush to stable storage completed (the
	// checkpoint is failure-proof only from this point). Zero if the
	// run ended before the write finished.
	StableAt des.Time
}

// Replays reports whether restoring the tentative state and replaying the
// message log reproduces the state at the finalization event: the replay
// rule recovery relies on (FoldLog(Fold, Log) == CFEFold).
func (r *Record) Replays() bool { return FoldLog(r.Fold, r.Log) == r.CFEFold }

// LogBytes returns the total payload bytes in the message log.
func (r *Record) LogBytes() int64 {
	var total int64
	for _, m := range r.Log {
		total += m.Bytes
	}
	return total
}

// FinalizationLatency is the time from taking the tentative checkpoint to
// deciding to finalize it.
func (r *Record) FinalizationLatency() des.Duration {
	return r.FinalizedAt - r.TakenAt
}

// ProcStore holds the finalized checkpoints of one process, ordered by
// sequence number.
type ProcStore struct {
	proc int
	mu   sync.Mutex
	recs []Record // guarded by mu; ascending Seq, gap-free from the first stored seq
}

// Proc returns the owning process id.
func (ps *ProcStore) Proc() int { return ps.proc }

// Add appends a finalized checkpoint. Sequence numbers must be strictly
// increasing; the store panics otherwise, because a protocol emitting
// out-of-order or duplicate sequence numbers has violated its invariants.
func (ps *ProcStore) Add(r Record) {
	if r.Proc != ps.proc {
		panic(fmt.Sprintf("checkpoint: record for P%d added to store of P%d", r.Proc, ps.proc))
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if n := len(ps.recs); n > 0 && r.Seq <= ps.recs[n-1].Seq {
		panic(fmt.Sprintf("checkpoint: P%d seq %d not above previous %d", ps.proc, r.Seq, ps.recs[n-1].Seq))
	}
	ps.recs = append(ps.recs, r)
}

// TruncateAfter discards records with Seq > seq — a live rollback throws
// away finalized checkpoints above the recovery line so the protocol can
// legitimately re-produce those sequence numbers. It returns how many
// records were discarded.
func (ps *ProcStore) TruncateAfter(seq int) int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	i := len(ps.recs)
	for i > 0 && ps.recs[i-1].Seq > seq {
		i--
	}
	removed := len(ps.recs) - i
	ps.recs = ps.recs[:i]
	return removed
}

// MarkStable records the stable-storage completion time for seq.
func (ps *ProcStore) MarkStable(seq int, at des.Time) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if i := ps.searchLocked(seq); i < len(ps.recs) && ps.recs[i].Seq == seq {
		ps.recs[i].StableAt = at
	}
}

// searchLocked returns the index of the first record with Seq >= seq
// (recs is ascending by Seq). Caller holds mu.
func (ps *ProcStore) searchLocked(seq int) int {
	return sort.Search(len(ps.recs), func(i int) bool { return ps.recs[i].Seq >= seq })
}

// Get returns the record with the given sequence number.
func (ps *ProcStore) Get(seq int) (Record, bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if i := ps.searchLocked(seq); i < len(ps.recs) && ps.recs[i].Seq == seq {
		return ps.recs[i], true
	}
	return Record{}, false
}

// All returns a copy of every finalized record, ascending by Seq.
func (ps *ProcStore) All() []Record {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	out := make([]Record, len(ps.recs))
	copy(out, ps.recs)
	return out
}

// After returns a copy of the records with Seq > seq, ascending by Seq:
// the tail a flush still owes the disk, found by binary search and
// copied alone, so its cost does not grow with the history below seq.
func (ps *ProcStore) After(seq int) []Record {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return append([]Record(nil), ps.recs[ps.searchLocked(seq+1):]...)
}

// Len returns the number of finalized checkpoints.
func (ps *ProcStore) Len() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.recs)
}

// MaxSeq returns the highest finalized sequence number, or -1 if none.
func (ps *ProcStore) MaxSeq() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if len(ps.recs) == 0 {
		return -1
	}
	return ps.recs[len(ps.recs)-1].Seq
}

// Global is a global checkpoint S_k: one finalized checkpoint with
// sequence number Seq from each of the N processes.
type Global struct {
	Seq  int
	Recs []Record // indexed by process id
}

// LogBytes sums the message-log bytes across all member checkpoints.
func (g *Global) LogBytes() int64 {
	var total int64
	for i := range g.Recs {
		total += g.Recs[i].LogBytes()
	}
	return total
}

// Span is the interval from the earliest tentative checkpoint to the
// latest finalization across members — how long collecting S_k took.
func (g *Global) Span() (first, last des.Time) {
	first, last = g.Recs[0].TakenAt, g.Recs[0].FinalizedAt
	for _, r := range g.Recs[1:] {
		if r.TakenAt < first {
			first = r.TakenAt
		}
		if r.FinalizedAt > last {
			last = r.FinalizedAt
		}
	}
	return first, last
}

// Store aggregates the per-process stores of one computation.
type Store struct {
	procs []*ProcStore
}

// NewStore creates a store for n processes.
func NewStore(n int) *Store {
	s := &Store{procs: make([]*ProcStore, n)}
	for i := range s.procs {
		s.procs[i] = &ProcStore{proc: i}
	}
	return s
}

// N returns the number of processes.
func (s *Store) N() int { return len(s.procs) }

// Proc returns the store of process i.
func (s *Store) Proc(i int) *ProcStore { return s.procs[i] }

// Global assembles S_seq if every process has finalized seq.
func (s *Store) Global(seq int) (Global, bool) {
	g := Global{Seq: seq, Recs: make([]Record, len(s.procs))}
	for i, ps := range s.procs {
		r, ok := ps.Get(seq)
		if !ok {
			return Global{}, false
		}
		g.Recs[i] = r
	}
	return g, true
}

// MaxCompleteSeq returns the highest sequence number finalized by every
// process — the most recent recovery line — or -1 if none exists.
func (s *Store) MaxCompleteSeq() int {
	maxSeq := -1
	for i, ps := range s.procs {
		m := ps.MaxSeq()
		if i == 0 || m < maxSeq {
			maxSeq = m
		}
	}
	return maxSeq
}

// MaxStableSeq returns the highest sequence number for which every
// process's checkpoint has reached stable storage (StableAt > 0) — the
// strongest recovery line that survives any crash.
func (s *Store) MaxStableSeq() int {
	best := -1
	if len(s.procs) == 0 {
		return -1
	}
	limit := s.MaxCompleteSeq()
	for seq := 0; seq <= limit; seq++ {
		stable := true
		for _, ps := range s.procs {
			r, ok := ps.Get(seq)
			if !ok || r.StableAt == 0 {
				stable = false
				break
			}
		}
		if stable {
			best = seq
		}
	}
	return best
}

// GC deletes this process's finalized checkpoints with Seq < keepSeq,
// returning the record count and stable-storage bytes (state + log)
// reclaimed. Safe only when keepSeq is itself part of a committed
// consistent global checkpoint — see Store.GC.
func (ps *ProcStore) GC(keepSeq int) (removed int, bytes int64) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	i := 0
	for i < len(ps.recs) && ps.recs[i].Seq < keepSeq {
		bytes += ps.recs[i].StateBytes + ps.recs[i].LogBytes()
		i++
	}
	removed = i
	if i > 0 {
		ps.recs = append([]Record(nil), ps.recs[i:]...)
	}
	return removed, bytes
}

// RetainedBytes sums the stable-storage footprint of the records this
// process still holds.
func (ps *ProcStore) RetainedBytes() int64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var total int64
	for i := range ps.recs {
		total += ps.recs[i].StateBytes + ps.recs[i].LogBytes()
	}
	return total
}

// GC reclaims every checkpoint older than the most recent global
// checkpoint that is complete AND fully on stable storage — the paper's
// storage-space benefit ("All checkpoints taken before the latest
// committed global checkpoint can be deleted"): under OCSML every
// finalized checkpoint belongs to a consistent global checkpoint, so at
// most one committed line plus any in-progress sequence numbers are ever
// retained. Uncoordinated checkpointing cannot apply this: the recovery
// line is unknown until a failure, so everything must be kept.
func (s *Store) GC() (removed int, bytes int64) {
	keep := s.MaxStableSeq()
	if keep <= 0 {
		return 0, 0
	}
	for _, ps := range s.procs {
		r, b := ps.GC(keep)
		removed += r
		bytes += b
	}
	return removed, bytes
}

// RetainedBytes sums the footprint across all processes.
func (s *Store) RetainedBytes() int64 {
	var total int64
	for _, ps := range s.procs {
		total += ps.RetainedBytes()
	}
	return total
}

// CompleteSeqs returns every sequence number for which a full global
// checkpoint exists, ascending.
func (s *Store) CompleteSeqs() []int {
	var out []int
	if len(s.procs) == 0 {
		return out
	}
	// Sequence numbers are gap-free per process starting at their first
	// record; intersect ranges.
	limit := s.MaxCompleteSeq()
	for seq := 0; seq <= limit; seq++ {
		if _, ok := s.Global(seq); ok {
			out = append(out, seq)
		}
	}
	return out
}
