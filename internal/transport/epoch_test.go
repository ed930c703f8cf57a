package transport

import (
	"sync"
	"testing"
	"time"

	"ocsml/internal/fsstore"
	"ocsml/internal/protocol"
	"ocsml/internal/trace"
	"ocsml/internal/wire"
)

// TestNoFrameCrossesEpochs: a survivor whose RB_CMT is late is still in
// the old epoch while the others, rolled back already, send it traffic of
// the new one. None of it may be processed before the survivor's own
// rollback: it would be processed in the epoch that rollback discards, and
// its sender, having seen it acknowledged, would never send it again.
// The delay is the mesh hook's, on the coordinator's RB_CMT to one
// survivor. (An epoch fence that only drops older frames fails this.)
func TestNoFrameCrossesEpochs(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	const victim, slow = 1, 2
	dir := t.TempDir()
	cfg := testClusterConfig(dir, 3)
	cfg.Workload.Steps = 100000 // the test stops the cluster
	var late sync.WaitGroup
	defer late.Wait()
	cfg.Hook = func(src, dst int, f *wire.Frame, deliver func(*wire.Frame)) {
		if src == victim && dst == slow {
			if e, err := wire.Decode(f.Bytes()); err == nil && e.CtlTag == protocol.TagRbCommit {
				late.Add(1)
				time.AfterFunc(400*time.Millisecond, func() { deliver(f); late.Done() })
				return
			}
		}
		deliver(f)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	waitFor(t, 20*time.Second, func() bool {
		last, err := fsstore.LastCompleteSeq(dir, cfg.N)
		return err == nil && last >= 2
	})
	c.Kill(victim)
	line, err := c.Recover(victim)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, func() bool {
		last, err := fsstore.LastCompleteSeq(dir, cfg.N)
		return err == nil && last >= line+1
	})
	c.Stop()

	// Each process's last restore is its rollback to the line; a message
	// sent after its sender's is of the new epoch.
	ev := c.Rec.Events()
	restored := make([]int, cfg.N)
	for i, e := range ev {
		if e.Kind == trace.KRestore {
			restored[e.Proc] = i
		}
	}
	if restored[slow] == 0 {
		t.Fatal("the late survivor never rolled back")
	}
	newEpoch := map[int64]bool{}
	window := 0 // new-epoch sends to the late survivor before its rollback
	for i, e := range ev {
		switch {
		case e.Kind == trace.KSend && e.Proc != victim && e.Proc != slow && i > restored[e.Proc]:
			newEpoch[e.MsgID] = true
			if e.Peer == slow && i < restored[slow] {
				window++
			}
		case e.Kind == trace.KRecv && e.Proc == slow && i < restored[slow] && newEpoch[e.MsgID]:
			t.Fatalf("P%d processed message %d of the new epoch before its own rollback (event %d < %d)",
				slow, e.MsgID, i, restored[slow])
		}
	}
	if window == 0 {
		t.Fatal("no new-epoch message was sent to the late survivor before its rollback: the test exercised nothing")
	}
	t.Logf("%d new-epoch message(s) sent to P%d before its rollback, none processed early", window, slow)
	if _, err := c.CheckGlobals(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRestoresEveryProcessOnce: after Cluster.Recover each of the N
// processes, the restarted victim included, records exactly one KRestore,
// at the agreed line — every restart goes through host.Restart.
// engine.TestRecoveryRestoresEveryProcessOnce is its twin on the DES.
func TestRecoverRestoresEveryProcessOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	const victim = 2
	dir := t.TempDir()
	cfg := testClusterConfig(dir, 5)
	cfg.Workload.Steps = 100000 // the test stops the cluster
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	waitFor(t, 20*time.Second, func() bool {
		last, err := fsstore.LastCompleteSeq(dir, cfg.N)
		return err == nil && last >= 1
	})
	c.Kill(victim)
	line, err := c.Recover(victim)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, func() bool {
		last, err := fsstore.LastCompleteSeq(dir, cfg.N)
		return err == nil && last >= line+1
	})
	c.Stop()
	restores := make([]int, cfg.N)
	for _, e := range c.Rec.Events() {
		if e.Kind != trace.KRestore {
			continue
		}
		if e.Seq != line {
			t.Fatalf("P%d restored to %d, the line is %d", e.Proc, e.Seq, line)
		}
		restores[e.Proc]++
	}
	for _, n := range restores {
		if n != 1 {
			t.Fatalf("restores by process %v, want one each", restores)
		}
	}
}

// TestRestartedIncarnationsNeverReuseIDs kills and recovers the same
// process twice, with no other recovery in between. A restarted node's ID
// counter starts at zero again, so no fresh application send of an
// incarnation may carry an envelope ID of an earlier one: the trace
// checker would pair a pre-crash receive with it. Only the line's logged
// re-sends carry old IDs, and they are no fresh send (the host traces no
// KSend for them). The node of each restarted incarnation is built before
// its round decides the epoch it resumes in, so the ID may not take its
// epoch bits from the node's starting epoch: the second incarnation would
// then start in the first one's epoch and alias its IDs.
func TestRestartedIncarnationsNeverReuseIDs(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time cluster test")
	}
	const victim = 1
	dir := t.TempDir()
	cfg := testClusterConfig(dir, 7)
	cfg.Workload.Steps = 100000 // the test stops the cluster
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	// sent waits until the victim has made a fresh send since mark.
	sent := func(mark int) {
		waitFor(t, 10*time.Second, func() bool {
			for _, e := range c.Rec.Events()[mark:] {
				if e.Kind == trace.KSend && e.Proc == victim {
					return true
				}
			}
			return false
		})
	}
	waitFor(t, 20*time.Second, func() bool {
		last, err := fsstore.LastCompleteSeq(dir, cfg.N)
		return err == nil && last >= 1
	})
	for range 2 {
		c.Kill(victim)
		mark := c.Rec.Len()
		if _, err := c.Recover(victim); err != nil {
			t.Fatal(err)
		}
		sent(mark)
	}
	c.Stop()

	incarnation := 0
	first := map[int64]int{} // fresh send ID → the incarnation that sent it
	for _, e := range c.Rec.Events() {
		switch {
		case e.Proc != victim:
		case e.Kind == trace.KFail:
			incarnation++
		case e.Kind == trace.KSend:
			if inc, ok := first[e.MsgID]; ok {
				t.Fatalf("incarnation %d of P%d sent ID %d, already sent by incarnation %d", incarnation, victim, e.MsgID, inc)
			}
			first[e.MsgID] = incarnation
		}
	}
	if incarnation != 2 {
		t.Fatalf("%d crashes of P%d traced, want 2", incarnation, victim)
	}
}
