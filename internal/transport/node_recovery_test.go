package transport

// The survivor side of the RB_* handshake against one real node: an RB_ACK
// promises that the rollback's on-disk truncation has committed, for the
// first RB_CMT and for every rebroadcast of it.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"ocsml/internal/checkpoint"
	"ocsml/internal/core"
	"ocsml/internal/fsstore"
	"ocsml/internal/metrics"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
	"ocsml/internal/wire"
)

// rbRig is process 0 as a real node on a real fsstore, holding checkpoints
// 1..3, and process 1 as a bare mesh standing in for the coordinator: it
// sends RB_* frames and collects the node's replies.
type rbRig struct {
	t       *testing.T
	node    *Node
	fs      *fsstore.Store
	peer    *Mesh
	replies chan *protocol.Envelope
	apps    chan *protocol.Envelope // the application frames the node sent process 1
}

func newRbRig(t *testing.T) *rbRig { return newRbRigWith(t, rewindApp{}, nil) }

// newRbRigWith is newRbRig with the node running app, and checkpoint seq
// logging log[seq].
func newRbRigWith(t *testing.T, app protocol.App, log map[int][]checkpoint.LoggedMsg) *rbRig {
	t.Helper()
	r := &rbRig{t: t, replies: make(chan *protocol.Envelope, 64), apps: make(chan *protocol.Envelope, 64)}
	datadir := t.TempDir()
	fs, err := fsstore.Open(datadir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	r.fs = fs
	ckpts := checkpoint.NewStore(2)
	lns, addrs := listenLocal(t, 2)
	r.node, err = NewNode(NodeConfig{
		ID: 0, N: 2, Addrs: addrs, Listener: lns[0], Seed: 1, Resume: -1,
		Proto: core.New(core.Options{}), App: app, FS: fs,
		Rec: trace.NewRecorder(), Ckpts: ckpts,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.peer, err = NewMesh(MeshConfig{ID: 1, Addrs: addrs, Seed: 1}, lns[1], func(int) func([]byte) {
		dec := new(wire.Decoder) // the node writes stream frames: one decoder per connection
		return func(frame []byte) {
			e, err := dec.DecodeOwned(frame)
			switch {
			case err != nil:
			case protocol.IsRecoveryTag(e.CtlTag):
				r.replies <- e
			case e.Kind == protocol.KindApp:
				r.apps <- e
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	r.node.Start()
	r.peer.Start()
	t.Cleanup(func() { r.node.Close(); r.peer.Close() })
	// Checkpoints 1..3, in memory and on disk, once the protocol has
	// started and recorded the initial one.
	r.waitEpoch(0)
	for seq := 1; seq <= 3; seq++ {
		rec := checkpoint.Record{Tentative: checkpoint.Tentative{Proc: 0, Seq: seq}, FinalizedAt: 1, Log: log[seq]}
		ckpts.Proc(0).Add(rec)
		if err := fs.Finalize(rec); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func (r *rbRig) send(tag string, payload any) {
	r.t.Helper()
	frame, err := wire.Encode(&protocol.Envelope{
		Src: 1, Dst: 0, Kind: protocol.KindCtl, CtlTag: tag, Payload: payload,
	})
	if err != nil {
		r.t.Fatal(err)
	}
	r.peer.Send(0, wire.RawFrame(frame))
}

// acksBeforeLine sends RB_BGN and counts the RB_ACKs that arrive ahead of
// its RB_LINE answer. One connection and one loop keep the order, so
// everything the node did with the frames sent earlier is counted.
func (r *rbRig) acksBeforeLine() (acks int) {
	r.t.Helper()
	r.send(protocol.TagRbBegin, protocol.RbMsg{Round: 1})
	for {
		select {
		case e := <-r.replies:
			if e.CtlTag == protocol.TagRbLine {
				return acks
			}
			acks++
		case <-time.After(10 * time.Second):
			r.t.Fatal("no RB_LINE from the node")
		}
	}
}

// storageIdle returns once the storage goroutine has run everything queued
// before the call.
func (r *rbRig) storageIdle() {
	idle := make(chan struct{})
	r.node.postStorage(func() { close(idle) })
	<-idle
}

func (r *rbRig) waitEpoch(epoch int) {
	r.t.Helper()
	waitFor(r.t, 10*time.Second, func() bool {
		st, err := r.node.StatusSnapshot(time.Second)
		return err == nil && st.Epoch == epoch
	})
}

// rewindApp is the idle application of a process that can be rolled back.
type rewindApp struct{ nopApp }

func (rewindApp) Progress() int64                { return 0 }
func (rewindApp) Restore(protocol.AppCtx, int64) {}

// sendOnRestore is a rewindable application whose first act after a
// rollback is one fresh send to process 1.
type sendOnRestore struct{ rewindApp }

func (sendOnRestore) Restore(ctx protocol.AppCtx, _ int64) { ctx.Send(1, protocol.AppMsg{Bytes: 8}) }

// TestRollbackResendsLineLog: a survivor's rollback re-sends every Sent
// entry of its line record, under its original ID and application
// sequence number, in the new epoch and ahead of the restarted
// application's first send. The entries of other lines and the received
// ones are not sent.
func TestRollbackResendsLineLog(t *testing.T) {
	sent := func(id, appSeq int64) checkpoint.LoggedMsg {
		return checkpoint.LoggedMsg{ID: id, Src: 0, Dst: 1, Dir: checkpoint.Sent, Bytes: 64, Tag: uint64(id), AppSeq: appSeq}
	}
	r := newRbRigWith(t, sendOnRestore{}, map[int][]checkpoint.LoggedMsg{
		1: {sent(401, 3)},
		2: {sent(501, 7), {ID: 9, Src: 1, Dst: 0, Dir: checkpoint.Received, Tag: 9}, sent(502, 8)},
		3: {sent(601, 9)},
	})
	r.send(protocol.TagRbCommit, protocol.RbMsg{Round: 1, Line: 2, Epoch: 1})
	var got []string
	for len(got) < 3 {
		select {
		case e := <-r.apps:
			got = append(got, fmt.Sprintf("id=%d seq=%d tag=%d epoch=%d", e.ID, e.App.Seq, e.App.Tag, e.Epoch))
		case <-time.After(10 * time.Second):
			t.Fatalf("the node sent %v after the rollback, want three application frames", got)
		}
	}
	want := []string{"id=501 seq=7 tag=501 epoch=1", "id=502 seq=8 tag=502 epoch=1"}
	if !reflect.DeepEqual(got[:2], want) {
		t.Fatalf("first frames after the rollback %v, want the line's logged sends %v", got, want)
	}
	if v, _ := r.node.cfg.Metrics.Value(metrics.EventFamily, "recovery.reinjected"); v != 2 {
		t.Fatalf("recovery.reinjected = %d, want 2", v)
	}
}

// TestDuplicateCommitAckWaitsForTruncation: the in-memory rollback raises
// the epoch at once, the disk follows on the storage goroutine. A
// rebroadcast RB_CMT arriving in between must not be acknowledged.
func TestDuplicateCommitAckWaitsForTruncation(t *testing.T) {
	r := newRbRig(t)
	release := make(chan struct{})
	free := sync.OnceFunc(func() { close(release) })
	t.Cleanup(free) // runs before the rig's cleanup: a held disk would hang Close

	r.node.postStorage(func() { <-release }) // the disk is busy
	cmt := protocol.RbMsg{Round: 1, Line: 1, Epoch: 1}
	r.send(protocol.TagRbCommit, cmt)
	r.waitEpoch(1)
	r.send(protocol.TagRbCommit, cmt)
	if acks := r.acksBeforeLine(); acks != 0 {
		t.Fatalf("RB_ACK sent %d time(s) while the truncation was still queued", acks)
	}
	if got := r.fs.Manifest().Seqs; !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("manifest %v while the disk is held, want [1 2 3]", got)
	}
	free()
	// One truncation was queued, so one ACK follows it; from then on every
	// duplicate is answered.
	waitFor(t, 10*time.Second, func() bool { return len(r.replies) == 1 })
	if got := r.fs.Manifest().Seqs; !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("manifest %v at the ACK, want [1]", got)
	}
	r.send(protocol.TagRbCommit, cmt)
	if acks := r.acksBeforeLine(); acks != 2 {
		t.Fatalf("%d RB_ACK(s) for one landed truncation and one duplicate after it, want 2", acks)
	}
}

// TestDuplicateCommitRetriesFailedTruncation: a truncation that failed is
// not acknowledged either; the next rebroadcast runs it again.
func TestDuplicateCommitRetriesFailedTruncation(t *testing.T) {
	r := newRbRig(t)
	r.fs.SetFaultHook(failFirstSync()) // the truncation frame's fsync fails
	cmt := protocol.RbMsg{Round: 1, Line: 1, Epoch: 1}
	r.send(protocol.TagRbCommit, cmt)
	r.waitEpoch(1)
	r.storageIdle()
	if v, _ := r.node.cfg.Metrics.Value(metrics.EventFamily, "fsstore.errors"); v != 1 {
		t.Fatalf("fsstore.errors = %d, want the one failed truncation", v)
	}
	if acks := r.acksBeforeLine(); acks != 0 {
		t.Fatalf("RB_ACK sent %d time(s) after a failed truncation", acks)
	}
	r.send(protocol.TagRbCommit, cmt)
	waitFor(t, 10*time.Second, func() bool { return len(r.replies) == 1 })
	if got := r.fs.Manifest().Seqs; !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("manifest %v at the ACK, want [1]", got)
	}
}

// TestRecoveryFramesRefused: what is not a commit the node can execute
// changes nothing and is counted — RB_LINE and RB_ACK (leftovers of a
// round some other incarnation coordinated), an RB_* tag on a payload that
// is no RbMsg, and a commit to a line the node never finalized, which also
// gets no ACK.
func TestRecoveryFramesRefused(t *testing.T) {
	r := newRbRig(t)
	r.send(protocol.TagRbLine, protocol.RbMsg{Round: 1, Epoch: 5, Seqs: []int{1}})
	r.send(protocol.TagRbAck, protocol.RbMsg{Round: 1, Line: 1, Epoch: 5})
	r.send(protocol.TagRbCommit, core.CtlMsg{Csn: 1})
	r.send(protocol.TagRbCommit, protocol.RbMsg{Round: 1, Line: 7, Epoch: 1})
	if acks := r.acksBeforeLine(); acks != 0 {
		t.Fatalf("%d answer(s) to frames the node refuses", acks)
	}
	for name, want := range map[string]int64{
		"recovery.stray_frames": 2, "recovery.bad_frames": 1, "recovery.line_missing": 1, "recovery.rollbacks": 0,
	} {
		if v, _ := r.node.cfg.Metrics.Value(metrics.EventFamily, name); v != want {
			t.Errorf("%s = %d, want %d", name, v, want)
		}
	}
	r.waitEpoch(0)
	if got := r.fs.Manifest().Seqs; !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("manifest %v, want [1 2 3]", got)
	}
}
