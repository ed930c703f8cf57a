package fsstore

// The executed form of "a durability error surfaces": the fault hook
// (SetFaultHook) sits under every file-system call that changes the
// directory, and TestEveryFaultSurfaces fails each such call of a
// scripted history in turn.

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ocsml/internal/checkpoint"
)

var errInjected = errors.New("injected fault")

// failFirst is a fault hook that fails the first call of kind op and
// nothing after it — a transient disk error.
func failFirst(op string) func(op, path string) error {
	failed := false
	return func(o, _ string) error {
		if o != op || failed {
			return nil
		}
		failed = true
		return errInjected
	}
}

// faultStep is one public operation of the scripted history.
type faultStep struct {
	name     string
	open     bool  // Open (after planting crash debris when the directory exists)
	finalize []int // FinalizeBatch of these seqs
	truncate int   // TruncateAfter(truncate) when > 0
	gc       int   // GCTo(gc) when > 0
	// calls is what the step does to the directory when nothing fails, in
	// order. Deleting or adding a mutating call anywhere in the package
	// shows up here.
	calls string
}

const (
	commitCalls = "create write truncate sync"                      // one append to the active segment
	birthCalls  = commitCalls + " syncdir"                          // ... to a fresh one
	allOpKinds  = "create mkdir remove sync syncdir truncate write" // sorted
)

// faultOptions rotate the log after three records.
var faultOptions = Options{SegmentMaxBytes: 3 * int64(len(frame(rec(0, 1, 1))))}

var faultScript = []faultStep{
	{name: "open fresh", open: true, calls: ""},
	{name: "commit into the store's first segment", finalize: []int{1, 2}, calls: "mkdir " + birthCalls},
	{name: "commit into the existing segment", finalize: []int{3}, calls: commitCalls},
	{name: "commit across a rotation", finalize: []int{4, 5}, calls: birthCalls},
	{name: "roll back", truncate: 3, calls: commitCalls},
	{name: "re-finalize the rolled-back seqs", finalize: []int{4, 5, 6}, calls: commitCalls},
	{name: "collect a dead segment", gc: 4, calls: "remove syncdir"},
	{name: "collect inside the active segment", gc: 5, calls: ""},
	{name: "reopen over a torn tail and debris", open: true, calls: "truncate sync remove"},
	{name: "commit after the reopen", finalize: []int{7}, calls: birthCalls},
}

// faultRun is one pass over faultScript with, at most, one call failing.
type faultRun struct {
	t      *testing.T
	dir    string
	failAt int // index of the call that fails; -1: none
	calls  []string
	s      *Store
	gen    int // distinguishes a re-finalized record from the one rolled back
	// must holds what a store has to serve, may what it is free to serve
	// or not: records below a GC watermark, and the records a failed
	// operation was adding or dropping. Whatever is in neither — rolled
	// back, never acknowledged — must not be served.
	must, may map[int]checkpoint.Record
}

func (r *faultRun) hook(op, _ string) error {
	if len(r.calls) == r.failAt {
		r.calls = append(r.calls, op)
		return errInjected
	}
	r.calls = append(r.calls, op)
	return nil
}

// check holds a store to must and may.
func (r *faultRun) check(s *Store, label string) {
	r.t.Helper()
	served := map[int]bool{}
	for _, q := range s.Manifest().Seqs {
		served[q] = true
		want, ok := r.must[q]
		if !ok {
			want, ok = r.may[q]
		}
		if !ok {
			r.t.Fatalf("%s serves seq %d, which was rolled back or never acknowledged", label, q)
		}
		if got, err := s.Load(q); err != nil || !reflect.DeepEqual(got, want) {
			r.t.Fatalf("%s: Load(%d) = (%+v, %v), want the acknowledged %+v", label, q, got, err, want)
		}
	}
	for q := range r.must {
		if !served[q] {
			r.t.Fatalf("%s lost acknowledged seq %d (serves %v)", label, q, s.Manifest().Seqs)
		}
	}
}

// plant leaves what a crash could: garbage behind the active segment's
// last frame and a segment that is only a torn header.
func (r *faultRun) plant() {
	r.t.Helper()
	segs := r.s.Manifest().Segments
	active := segs[len(segs)-1]
	tail, err := os.ReadFile(SegmentFile(r.s.Dir(), active.Index))
	if err != nil {
		r.t.Fatal(err)
	}
	for path, data := range map[string]string{
		SegmentFile(r.s.Dir(), active.Index):   string(tail) + "garbage beyond the durable size",
		SegmentFile(r.s.Dir(), active.Index+1): "OCSM",
	} {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			r.t.Fatal(err)
		}
	}
}

// step runs one operation and reports whether the script goes on: it
// ends at the fault, unless the failed call was a best-effort one.
func (r *faultRun) step(st faultStep) bool {
	r.t.Helper()
	first := len(r.calls)
	var before Manifest
	var recs []checkpoint.Record
	var err error
	if st.open {
		if r.s != nil {
			r.plant()
		}
		var s *Store
		if s, err = openWith(r.dir, 0, 2, faultOptions, r.hook); err == nil {
			r.s = s
		}
	} else {
		before = r.s.Manifest()
		switch {
		case st.finalize != nil:
			r.gen++
			for _, q := range st.finalize {
				rec := rec(0, q, 1)
				rec.CFEWork = int64(r.gen)
				recs = append(recs, rec)
			}
			_, err = r.s.FinalizeBatch(recs)
		case st.truncate > 0:
			err = r.s.TruncateAfter(st.truncate)
		case st.gc > 0:
			err = r.s.GCTo(st.gc)
		}
	}
	struck := r.failAt >= first && r.failAt < len(r.calls)
	bestEffort := st.gc > 0 && struck && r.calls[r.failAt] == "remove" // GCTo's unlink of a dead segment
	if struck && !bestEffort {
		at := fmt.Sprintf("call %d (%s, %s) failed", r.failAt, r.calls[r.failAt], st.name)
		if !errors.Is(err, errInjected) {
			r.t.Fatalf("%s and the operation returned %v", at, err)
		}
		r.apply(st, recs, true)
		if !st.open {
			// A failed commit acknowledged nothing and dropped nothing; a
			// failed GC may have collected, which promises nothing.
			if after := r.s.Manifest(); st.gc == 0 && !reflect.DeepEqual(after, before) || after.LastSeq() != before.LastSeq() {
				r.t.Fatalf("%s and the in-memory manifest moved from %+v to %+v", at, before, after)
			}
			r.check(r.s, "the live store after "+at)
		}
		return false
	}
	if err != nil {
		r.t.Fatalf("%s: %v", st.name, err)
	}
	r.apply(st, recs, false)
	if got := strings.Join(r.calls[first:], " "); r.failAt < 0 && got != st.calls {
		r.t.Fatalf("%s changes the directory by\n  %s, want\n  %s", st.name, got, st.calls)
	}
	return true
}

// apply moves must and may over one operation: acknowledged, or failed
// with its outcome in doubt — a later Open may find the frames of a
// commit that was never acknowledged, or apply a rollback that was.
func (r *faultRun) apply(st faultStep, recs []checkpoint.Record, failed bool) {
	for _, rec := range recs {
		if failed {
			r.may[rec.Seq] = rec
		} else {
			r.must[rec.Seq] = rec
			delete(r.may, rec.Seq)
		}
	}
	for q, rec := range r.must {
		switch {
		case st.truncate > 0 && q > st.truncate && failed, st.gc > 0 && q < st.gc:
			r.may[q] = rec
			delete(r.must, q)
		case st.truncate > 0 && q > st.truncate:
			delete(r.must, q)
		}
	}
	if st.truncate > 0 && !failed {
		for q := range r.may {
			if q > st.truncate {
				delete(r.may, q)
			}
		}
	}
}

// faultSweepRun plays the script with call failAt failing and requires,
// from there, what the package promises of a failed call. It returns
// every call consulted.
func faultSweepRun(t *testing.T, failAt int) []string {
	t.Helper()
	r := &faultRun{t: t, dir: t.TempDir(), failAt: failAt,
		must: map[int]checkpoint.Record{}, may: map[int]checkpoint.Record{}}
	for _, st := range faultScript {
		if !r.step(st) {
			break
		}
	}
	// A clean Open afterwards serves every seq acknowledged before the
	// fault and none that was rolled back; a second one changes nothing.
	for _, label := range []string{"a clean Open", "a second Open"} {
		s, err := OpenWith(r.dir, 0, 2, faultOptions)
		if err != nil {
			t.Fatalf("call %d failed; %s afterwards: %v", failAt, label, err)
		}
		r.check(s, fmt.Sprintf("%s after call %d failed", label, failAt))
	}
	return r.calls
}

// TestEveryFaultSurfaces runs the scripted history once cleanly, then
// once per mutating file-system call with that call failing. The public
// operation the call ran in must return the injected error (GCTo's unlink
// of a dead segment is the one declared best-effort call), the live
// store's manifest must not have moved, and a
// clean Open must then serve every acknowledged record and no rolled-back
// one. What it does not model: a call that fails after taking effect, a
// short write, and a crash that drops what was not synced.
func TestEveryFaultSurfaces(t *testing.T) {
	clean := faultSweepRun(t, -1)
	if kinds := slices.Compact(slices.Sorted(slices.Values(clean))); strings.Join(kinds, " ") != allOpKinds {
		t.Fatalf("the script reaches op kinds %v, want %s", kinds, allOpKinds)
	}
	for i := range clean {
		faultSweepRun(t, i)
	}
}
