package handshake

import (
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ocsml/internal/protocol"
)

const (
	rbBgn  = protocol.TagRbBegin
	rbLine = protocol.TagRbLine
	rbCmt  = protocol.TagRbCommit
	rbAck  = protocol.TagRbAck
)

func frame(peer int, tag string, round int64, line, epoch int, seqs ...int) Frame {
	return Frame{Peer: peer, Tag: tag, Msg: protocol.RbMsg{Round: round, Line: line, Epoch: epoch, Seqs: seqs}}
}

// peers lists whom the frames are addressed to, after checking that every
// one of them is the frame want (whose Peer is ignored).
func peers(t *testing.T, frames []Frame, want Frame) []int {
	t.Helper()
	var to []int
	for _, f := range frames {
		to = append(to, f.Peer)
		want.Peer = f.Peer
		if !reflect.DeepEqual(f, want) {
			t.Fatalf("sends %+v, want %+v", f, want)
		}
	}
	return to
}

// TestCoordinatorDecision: the line is the highest member of the true
// intersection of all N manifests — the coordinator's own is a vote — or
// 0, and the epoch fences out the highest one reported.
func TestCoordinatorDecision(t *testing.T) {
	for _, tc := range []struct {
		name        string
		own         []int
		ownEpoch    int
		votes       [][]int // survivors 1, 2, ...
		epochs      []int
		line, epoch int
	}{
		// {1,2,3} ∩ {1,2,3,4} ∩ {1,3,4} = {1,3}; the survivors alone share 4.
		{"intersection", []int{1, 2, 3}, 0, [][]int{{1, 2, 3, 4}, {1, 3, 4}}, []int{2, 1}, 3, 3},
		{"empty intersection", []int{1, 2}, 0, [][]int{nil}, []int{0}, 0, 1},
		{"own vote bounds the line", []int{1, 2}, 0, [][]int{{1, 2, 3}, {1, 2, 3}}, []int{0, 0}, 2, 1},
		{"own epoch is the highest", nil, 5, [][]int{{1}}, []int{2}, 0, 6},
		{"gap in one manifest", []int{1, 2, 3}, 1, [][]int{{1, 3}, {1, 2, 3}}, []int{1, 1}, 3, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.votes) + 1
			c := NewCoordinator(0, n, 7, tc.own, tc.ownEpoch)
			if to := peers(t, c.Tick(), frame(0, rbBgn, 7, 0, 0)); len(to) != n-1 {
				t.Fatalf("first RB_BGN goes to %v, want all %d survivors", to, n-1)
			}
			var out []Frame
			for j, seqs := range tc.votes {
				if len(out) != 0 || c.Done() {
					t.Fatalf("commit before the last vote: %+v", out)
				}
				out = c.Receive(frame(j+1, rbLine, 7, 0, tc.epochs[j], seqs...))
			}
			if to := peers(t, out, frame(0, rbCmt, 7, tc.line, tc.epoch)); len(to) != n-1 {
				t.Fatalf("RB_CMT goes to %v, want all %d survivors", to, n-1)
			}
			for j := 1; j < n; j++ {
				if c.Done() {
					t.Fatalf("Done with %d of %d ACKs", j-1, n-1)
				}
				c.Receive(frame(j, rbAck, 7, tc.line, tc.epoch))
			}
			if line, epoch := c.Decision(); !c.Done() || line != tc.line || epoch != tc.epoch {
				t.Fatalf("Done %v, decision (line %d, epoch %d), want (%d, %d)", c.Done(), line, epoch, tc.line, tc.epoch)
			}
			if out := c.Tick(); len(out) != 0 {
				t.Fatalf("a finished round still sends %+v", out)
			}
		})
	}
}

// TestCoordinatorResendsToTheUnanswered walks one round of N = 4 event by
// event. In both phases a Tick names exactly the survivors that have not
// answered; frames of an abandoned round or the wrong phase, second
// answers and sources outside the cluster change nothing; and with one
// survivor silent the round is never Done, however often it ticks.
func TestCoordinatorResendsToTheUnanswered(t *testing.T) {
	c := NewCoordinator(2, 4, 9, []int{1, 2}, 0)
	tick, begin, commit := Frame{}, frame(0, rbBgn, 9, 0, 0), frame(0, rbCmt, 9, 2, 4)
	for i, st := range []struct {
		in   Frame
		want Frame
		to   []int
	}{
		{tick, begin, []int{0, 1, 3}},
		{frame(1, rbLine, 9, 0, 3, 1, 2, 3), begin, nil},
		{tick, begin, []int{0, 3}},
		// None of these is a vote of survivor 0 or 3 in round 9.
		{frame(0, rbLine, 8, 0, 9, 1), begin, nil}, // abandoned round
		{frame(0, rbAck, 9, 0, 0), begin, nil},     // wrong phase
		{frame(1, rbLine, 9, 0, 9), begin, nil},    // second answer
		{frame(2, rbLine, 9, 0, 9), begin, nil},    // from itself
		{frame(4, rbLine, 9, 0, 9), begin, nil},    // out of range
		{frame(-1, rbLine, 9, 0, 9), begin, nil},
		{tick, begin, []int{0, 3}},
		{frame(3, rbLine, 9, 0, 0, 1, 2), begin, nil},
		{tick, begin, []int{0}},
		// The last vote commits line 2 at epoch 3+1, to everyone.
		{frame(0, rbLine, 9, 0, 1, 1, 2, 3), commit, []int{0, 1, 3}},
		{frame(3, rbAck, 9, 2, 4), commit, nil},
		{tick, commit, []int{0, 1}},
		{frame(1, rbLine, 9, 0, 9), commit, nil}, // wrong phase
		{frame(1, rbAck, 8, 2, 4), commit, nil},  // abandoned round
		{frame(3, rbAck, 9, 2, 4), commit, nil},  // second answer
		{tick, commit, []int{0, 1}},
		{frame(0, rbAck, 9, 2, 4), commit, nil},
		// Survivor 1 stays silent.
		{tick, commit, []int{1}},
		{tick, commit, []int{1}},
		{tick, commit, []int{1}},
	} {
		var out []Frame
		if st.in.Tag == "" {
			out = c.Tick()
		} else {
			out = c.Receive(st.in)
		}
		if to := peers(t, out, st.want); !slices.Equal(to, st.to) {
			t.Fatalf("step %d: %s goes to %v, want %v", i, st.want.Tag, to, st.to)
		}
		if c.Done() {
			t.Fatalf("step %d: Done without survivor 1's ACK", i)
		}
	}
}

// proc is a process as a Participant reaches it: the checkpoints it holds
// in memory, the manifest on its disk, and the truncations that landed
// there, by commit epoch.
type proc struct {
	epoch     int
	mem, disk []int
	landed    map[int]int
}

func newProc(epoch int, seqs []int) *proc {
	return &proc{epoch: epoch, mem: seqs, disk: seqs, landed: map[int]int{}}
}

func (p *proc) Epoch() int         { return p.epoch }
func (p *proc) DurableSeqs() []int { return p.disk }

func (p *proc) Rollback(line, epoch int) {
	if line != 0 && !slices.Contains(p.mem, line) {
		return
	}
	p.mem, p.epoch = upTo(p.mem, line), epoch
}

// truncate is what the shell does between Receive's truncate and Truncated.
func (p *proc) truncate(f Frame) {
	p.disk = upTo(p.disk, f.Msg.Line)
	p.landed[f.Msg.Epoch] = f.Msg.Line
}

func upTo(seqs []int, line int) []int {
	var kept []int
	for _, q := range seqs {
		if q <= line {
			kept = append(kept, q)
		}
	}
	return kept
}

// TestParticipant scripts one survivor at epoch 2 holding checkpoints 1..3,
// event by event: what it sends, whether it asks for a truncation, and the
// epoch it is left at.
func TestParticipant(t *testing.T) {
	type step struct {
		in       Frame
		outcome  string // "": Receive(in); "landed" / "failed": Truncated(in, ...)
		want     []Frame
		truncate bool
		epoch    int
	}
	vote := func(round int64, epoch int, seqs ...int) []Frame {
		return []Frame{frame(5, rbLine, round, 0, epoch, seqs...)}
	}
	c3, c4 := frame(5, rbCmt, 7, 2, 3), frame(6, rbCmt, 8, 1, 4)
	acked := func(c Frame) []Frame { c.Tag = rbAck; return []Frame{c} }
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"votes with its epoch and durable seqs", []step{
			{in: frame(5, rbBgn, 7, 0, 0), want: vote(7, 2, 1, 2, 3), epoch: 2},
		}},
		{"acks once the truncation has landed, and every rebroadcast after it", []step{
			{in: c3, truncate: true, epoch: 3},
			{in: c3, epoch: 3}, // queued: its ACK follows the truncation
			{in: frame(5, rbBgn, 9, 0, 0), want: vote(9, 3, 1, 2), epoch: 3}, // still answered, with what memory holds
			{in: c3, epoch: 3},
			{in: c3, outcome: "landed", want: acked(c3), epoch: 3},
			{in: c3, want: acked(c3), epoch: 3},
			{in: frame(5, rbBgn, 9, 0, 0), want: vote(9, 3, 1, 2), epoch: 3},
		}},
		{"queues a failed truncation again", []step{
			{in: c3, truncate: true, epoch: 3},
			{in: c3, outcome: "failed", epoch: 3},
			{in: c3, truncate: true, epoch: 3},
			{in: c3, epoch: 3},
			{in: c3, outcome: "landed", want: acked(c3), epoch: 3},
		}},
		{"votes no seq above a rollback whose truncation has not landed", []step{
			{in: c3, truncate: true, epoch: 3}, // memory is at line 2, the disk still holds 3
			{in: frame(6, rbBgn, 8, 0, 0), want: []Frame{frame(6, rbLine, 8, 0, 3, 1, 2)}, epoch: 3},
			{in: c3, outcome: "failed", epoch: 3},
			{in: frame(6, rbBgn, 8, 0, 0), want: []Frame{frame(6, rbLine, 8, 0, 3, 1, 2)}, epoch: 3},
			{in: c3, truncate: true, epoch: 3},
			{in: c3, outcome: "landed", want: acked(c3), epoch: 3},
			{in: c4, truncate: true, epoch: 4}, // a second round's commit: memory at line 1, the disk at 2
			{in: frame(6, rbBgn, 9, 0, 0), want: []Frame{frame(6, rbLine, 9, 0, 4, 1)}, epoch: 4},
			{in: c4, outcome: "landed", want: acked(c4), epoch: 4},
			{in: frame(6, rbBgn, 9, 0, 0), want: []Frame{frame(6, rbLine, 9, 0, 4, 1)}, epoch: 4},
		}},
		{"refuses a line it never finalized", []step{
			{in: frame(5, rbCmt, 7, 4, 3), epoch: 2},
			{in: frame(5, rbCmt, 7, 4, 3), epoch: 2},
		}},
		{"gives a commit older than its epoch no answer", []step{
			{in: frame(5, rbCmt, 6, 1, 1), epoch: 2},
			{in: c3, truncate: true, epoch: 3},
			{in: c3, outcome: "landed", want: acked(c3), epoch: 3},
			{in: frame(5, rbCmt, 6, 1, 2), epoch: 3},
		}},
		{"gives a superseded commit no answer", []step{
			{in: c3, truncate: true, epoch: 3},
			{in: c4, truncate: true, epoch: 4},
			{in: c3, epoch: 4},
			{in: c3, outcome: "landed", want: acked(c3), epoch: 4}, // that truncation did land
			{in: c3, epoch: 4},
			{in: c4, epoch: 4},
			{in: c4, outcome: "landed", want: acked(c4), epoch: 4},
			{in: c4, want: acked(c4), epoch: 4},
		}},
		{"ignores coordinator-bound frames", []step{
			{in: frame(5, rbLine, 7, 0, 9, 1), epoch: 2},
			{in: frame(5, rbAck, 7, 1, 9), epoch: 2},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pr := newProc(2, []int{1, 2, 3})
			p := &Participant{Proc: pr}
			for i, st := range tc.steps {
				var out []Frame
				var truncate bool
				switch st.outcome {
				case "":
					out, truncate = p.Receive(st.in)
				case "landed":
					pr.truncate(st.in)
					out = p.Truncated(st.in, true)
				default:
					out = p.Truncated(st.in, false)
				}
				if !reflect.DeepEqual(out, st.want) || truncate != st.truncate || pr.epoch != st.epoch {
					t.Fatalf("step %d: sends %+v, truncate %v, epoch %d; want %+v, %v, %d",
						i, out, truncate, pr.epoch, st.want, st.truncate, st.epoch)
				}
			}
		})
	}
}

// TestImports holds the package to what its comment promises: no socket,
// clock, file or lock can be reached without importing its package.
func TestImports(t *testing.T) {
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		if !strings.HasSuffix(file.Name(), ".go") || strings.HasSuffix(file.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file.Name(), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			switch {
			case path == "ocsml/internal/protocol", path == "ocsml/internal/fsstore":
			case strings.Contains(path, "."), strings.HasPrefix(path, "ocsml/"),
				slices.Contains([]string{"net", "time", "os", "sync"}, strings.SplitN(path, "/", 2)[0]):
				t.Errorf("%s imports %s", file.Name(), path)
			}
		}
	}
}
