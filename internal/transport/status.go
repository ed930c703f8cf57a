package transport

import (
	"fmt"
	"time"

	"ocsml/internal/core"
	"ocsml/internal/protocol"
)

// This file is the admin control plane's read/write surface on a node:
// consistent snapshots of loop-owned protocol state, taken ON the loop
// goroutine (never by reaching into fields from outside), plus the
// checkpoint trigger and the graceful storage drain.

// NodeStatus is one node's state snapshot as the admin API reports it.
type NodeStatus struct {
	ID    int `json:"id"`
	N     int `json:"n"`
	Epoch int `json:"epoch"`
	// Csn/Stat/TentSet/LogLen mirror the paper's per-process protocol
	// state (csn_i, stat_i, tentSet_i, |logSet_i|); absent (csn -1, empty
	// stat) when the protocol does not expose them.
	Csn     int    `json:"csn"`
	Stat    string `json:"stat,omitempty"`
	TentSet []int  `json:"tentSet,omitempty"`
	LogLen  int    `json:"logLen"`
	Proto   string `json:"proto"`
	AppDone bool   `json:"appDone"`
	// RecoveredLine is the line of the last committed rollback or resume
	// (-1: this incarnation never rolled back).
	RecoveredLine int `json:"recoveredLine"`
	// DurableSeq is the highest checkpoint seq in the on-disk manifest
	// (-1 without a store or before the first finalization).
	DurableSeq int `json:"durableSeq"`
	// DurableLine is the newest S_k the node has heard every process hold
	// durably (Node.DurableLine; -1 before it has heard one).
	DurableLine int `json:"durableLine"`
	// StorageQueue is the number of stable-storage writes queued or in
	// service.
	StorageQueue int        `json:"storageQueue"`
	Peers        []PeerInfo `json:"peers"`
}

// coreStatus is what the OCSML protocol exposes for status snapshots.
type coreStatus interface {
	Csn() int
	LogLen() int
	TentProcs() []int
}

// unwrapped returns the innermost protocol (through the reliable
// middleware, which exposes Inner).
func (n *Node) unwrapped() protocol.Protocol {
	p := n.cfg.Proto
	for {
		u, ok := p.(interface{ Inner() protocol.Protocol })
		if !ok {
			return p
		}
		p = u.Inner()
	}
}

// StatusSnapshot captures the node's state consistently by running on
// the loop goroutine. It fails when the node is closed or the loop does
// not get to the request within timeout (a wedged loop is itself a
// finding for the operator).
func (n *Node) StatusSnapshot(timeout time.Duration) (NodeStatus, error) {
	ch := make(chan NodeStatus, 1)
	n.post(func() {
		st := NodeStatus{
			ID: n.cfg.ID, N: n.cfg.N, Epoch: n.h.Epoch(),
			Csn: -1, Proto: n.cfg.Proto.Name(), AppDone: n.h.Finished(),
			RecoveredLine: n.recLine,
			DurableSeq:    -1,
			DurableLine:   n.DurableLine(),
			StorageQueue:  int(n.storageQ.Load()),
			Peers:         n.mesh.Peers(),
		}
		inner := n.unwrapped()
		if cs, ok := inner.(coreStatus); ok {
			st.Csn = cs.Csn()
			st.LogLen = cs.LogLen()
			st.TentSet = cs.TentProcs()
		}
		if ss, ok := inner.(interface{ Status() core.Status }); ok {
			st.Stat = ss.Status().String()
		}
		if n.cfg.FS != nil {
			st.DurableSeq = n.cfg.FS.LastSeq()
		}
		ch <- st
	})
	select {
	case st := <-ch:
		return st, nil
	case <-n.quit:
		return NodeStatus{}, fmt.Errorf("transport: P%d is closed", n.cfg.ID)
	case <-time.After(timeout):
		return NodeStatus{}, fmt.Errorf("transport: P%d status snapshot timed out after %v", n.cfg.ID, timeout)
	}
}

// TriggerCheckpoint asks the protocol to initiate a tentative
// checkpoint round (the admin API's POST /v1/checkpoint); a process that
// is recovering refuses. The returned
// csn is the sequence number current AFTER the initiation attempt; a
// protocol already in a tentative round ignores the trigger (paper
// §3.4: status tentative forbids a new checkpoint) and the prior csn
// comes back unchanged.
func (n *Node) TriggerCheckpoint(timeout time.Duration) (int, error) {
	type result struct {
		csn int
		err error
	}
	ch := make(chan result, 1)
	n.post(func() {
		if n.h.Down() {
			ch <- result{-1, fmt.Errorf("transport: P%d is recovering", n.cfg.ID)}
			return
		}
		inner := n.unwrapped()
		init, ok := inner.(interface{ Initiate() })
		if !ok {
			ch <- result{-1, fmt.Errorf("transport: protocol %q cannot initiate checkpoints", n.cfg.Proto.Name())}
			return
		}
		init.Initiate()
		csn := -1
		if cs, ok := inner.(coreStatus); ok {
			csn = cs.Csn()
		}
		ch <- result{csn, nil}
	})
	select {
	case r := <-ch:
		return r.csn, r.err
	case <-n.quit:
		return -1, fmt.Errorf("transport: P%d is closed", n.cfg.ID)
	case <-time.After(timeout):
		return -1, fmt.Errorf("transport: P%d checkpoint trigger timed out after %v", n.cfg.ID, timeout)
	}
}

// WaitStorageIdle blocks until every issued stable-storage write has
// been serviced, or the timeout elapses, or the node closes. The
// graceful-shutdown path calls it before Close so in-flight
// finalizations reach the disk instead of being dropped with the
// storage goroutine.
func (n *Node) WaitStorageIdle(timeout time.Duration) bool {
	deadline := time.After(timeout)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if n.storageQ.Load() == 0 && len(n.storageCh) == 0 {
			return true
		}
		select {
		case <-deadline:
			return false
		case <-n.quit:
			return false
		case <-tick.C:
		}
	}
}
