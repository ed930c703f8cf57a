package transport

import (
	"fmt"

	"ocsml/internal/core"
	"ocsml/internal/protocol"
	"ocsml/internal/wire"
)

// The durable line and storage GC (DESIGN.md §14.3). Each process of a
// cluster with a store tells every peer, in a frame sent straight to it,
// how far its own store is durable. The minimum of what it has heard and
// its own is the cluster's durable line as this process knows it
// (DurableLine): the newest S_k every process holds on disk. With
// ClusterConfig.GC each process also collects its own store below that
// line. Nobody reads another process's directory, so hosts with their own
// disks know the line, and collect, as well as one shared datadir does.
//
// dsnTag (protocol.TagDSN) is the report's control tag, a code in the
// wire's tag table. The payload is an ordinary core.CtlMsg whose Csn is
// the sender's committed watermark, and the envelope's Epoch is the epoch
// that watermark belongs to: the one of the sender's last durable
// truncation (its start epoch before any). The sender is the connection
// the report arrived on.
const dsnTag = protocol.TagDSN

// heardSeq is a committed watermark and the epoch it belongs to.
type heardSeq struct{ epoch, seq int }

// hearPeers turns the node's reports and line on, and with gc its
// collector; Cluster.buildNode calls it before Start for every node with a
// store. Until every peer has reported in the node's own epoch, the node
// knows no line and collects nothing.
func (n *Node) hearPeers(gc bool) {
	n.gc = gc
	n.heard = make([]heardSeq, n.cfg.N)
	for j := range n.heard {
		n.heard[j].epoch = -1
	}
}

// DurableLine is the newest seq the node has heard that every process
// holds durably: the minimum of its own committed seq and every peer's last
// report in its epoch. It is -1 until every peer has reported in the
// node's epoch, and always without a store or for a node NewNode built
// alone. Safe to call from any goroutine, also after Close.
func (n *Node) DurableLine() int { return int(n.line.Load()) }

// onDurableReport takes a peer's report off a mesh reader goroutine to
// the storage goroutine, which owns what the node has heard.
func (n *Node) onDurableReport(v *protocol.Envelope) {
	m, ok := v.Payload.(*core.CtlMsg)
	if !ok || n.heard == nil {
		return
	}
	src, h := v.Src, heardSeq{v.Epoch, m.Csn}
	n.postStorage(func() {
		// Reports of one epoch only grow; a reordered older one is ignored.
		if old := n.heard[src]; h.epoch > old.epoch || h.epoch == old.epoch && h.seq > old.seq {
			n.heard[src] = h
			n.collect()
		}
	})
}

// durableRose runs on the storage goroutine after a commit raised the
// watermark: the loop reports it to every peer, and the line moves.
func (n *Node) durableRose() {
	h := heardSeq{n.dsnEpoch, n.persisted}
	n.post(func() { n.reportDurable(h) })
	n.collect()
}

// reportDurable sends h to every peer, on the loop. A watermark that may
// have been committed after this process voted in a recovery round is not
// sent until a rollback of a newer epoch has landed: the round's line is
// the minimum of the votes, and a report above its sender's vote could let
// a peer collect that line.
func (n *Node) reportDurable(h heardSeq) {
	if int64(h.epoch) <= n.voted.Load() {
		return
	}
	for j := range n.cfg.N {
		if j == n.cfg.ID {
			continue
		}
		frame, err := wire.Encode(&protocol.Envelope{
			Src: n.cfg.ID, Dst: j, Epoch: h.epoch, Kind: protocol.KindCtl, CtlTag: dsnTag,
			Payload: core.CtlMsg{Csn: h.seq},
		})
		if err != nil {
			panic(fmt.Sprintf("transport: P%d cannot encode its durable report: %v", n.cfg.ID, err))
		}
		n.mesh.Send(j, wire.RawFrame(frame))
	}
}

// collect moves the line, on the storage goroutine: serialized with every
// commit and truncation of the node's store. The line is the minimum of
// the node's own committed seq and the last report of every peer,
// counting only reports of the epoch of the node's last landed truncation
// (one from before a rollback may name seqs the rollback discarded). It
// does not move while the node has voted in a round whose rollback has not
// landed yet (see reportDurable). With gc, the node then collects its
// store, on disk and in memory, below the line whenever that rose.
func (n *Node) collect() {
	if n.heard == nil || int64(n.dsnEpoch) <= n.voted.Load() {
		return
	}
	n.heard[n.cfg.ID] = heardSeq{n.dsnEpoch, n.persisted}
	wm := n.persisted
	for _, h := range n.heard {
		if h.epoch != n.dsnEpoch {
			return
		}
		wm = min(wm, h.seq)
	}
	n.line.Store(int64(wm))
	if !n.gc || wm <= n.collected {
		return
	}
	if err := n.cfg.FS.GCTo(wm); err != nil {
		n.count("fsstore.gc_errors", 1)
		return
	}
	// Memory follows the disk: neither a later line nor a flush reads a
	// record below wm.
	n.cfg.Ckpts.Proc(n.cfg.ID).GC(wm)
	n.collected = wm
	n.count("fsstore.gc_sweeps", 1)
}
