package transport

import (
	"fmt"
	"net"
	"time"

	"ocsml/internal/checkpoint"
	"ocsml/internal/core"
	"ocsml/internal/fsstore"
	"ocsml/internal/handshake"
	"ocsml/internal/protocol"
	"ocsml/internal/reliable"
	"ocsml/internal/wire"
)

// rbTimeout bounds a whole handshake; every rbRetry its current frame goes
// again to the survivors that have not answered. Recovery frames bypass the
// reliable middleware, so a lost one is recovered by this idempotent resend:
// a frame written before its connection's death was known, or a survivor
// slow to answer (its RB_ACK follows an fsync). It is not the common path.
// It was, until the mesh learnt connection liveness (DESIGN.md §13.2): every
// survivor wrote its RB_LINE into the connection it still held to the
// victim's dead incarnation, where a first write succeeds and vanishes.
const (
	rbTimeout = 20 * time.Second
	rbRetry   = 150 * time.Millisecond
)

// coordinate runs one recovery round over the wire as the crashed victim,
// from its already-bound listener and with its durable manifest seqs as
// its vote, and returns the agreed line once every survivor has made its
// rollback to it durable; c.epoch is then the epoch they adopted. Every
// decision is the handshake.Coordinator's (DESIGN.md §9); here are the
// mesh, the round id, the ticker and the deadline that feed it. The listener
// is closed before returning, so the restarted node can rebind the address.
func (c *Cluster) coordinate(victim int, ln net.Listener, seqs []int) (line int, err error) {
	in := make(chan handshake.Frame, 256) // a full buffer drops; the resend refills it
	mesh, err := NewMesh(MeshConfig{
		ID: victim, Addrs: c.addrs, Seed: c.cfg.Seed, Hook: c.cfg.Hook,
	}, ln, func(src int) func(frame []byte) {
		// Survivors keep retransmitting ordinary pre-crash traffic at this
		// address; only recovery frames matter to the coordinator. The
		// decoder is per-connection and stateful, so a survivor's
		// delta-encoded app traffic decodes (and is then discarded)
		// instead of erroring.
		dec := new(wire.Decoder)
		return func(frame []byte) {
			e, err := dec.DecodeOwned(frame)
			if err != nil || !protocol.IsRecoveryTag(e.CtlTag) {
				return
			}
			if rb, ok := e.Payload.(protocol.RbMsg); ok {
				select {
				case in <- handshake.Frame{Peer: src, Tag: e.CtlTag, Msg: rb}:
				default:
				}
			}
		}
	})
	if err != nil {
		ln.Close()
		return -1, err
	}
	mesh.Start()
	defer mesh.Close()

	// The round id makes every reply attributable to this attempt; an
	// abandoned attempt's leftovers carry a different round and are
	// ignored. Wall-clock uniqueness across incarnations suffices —
	// rounds never appear in deterministic reports.
	round := time.Now().UnixNano()
	hs := handshake.NewCoordinator(victim, len(c.addrs), round, seqs, c.epoch)
	send := func(frames []handshake.Frame) {
		for _, f := range frames {
			frame, err := wire.Encode(&protocol.Envelope{
				Src: victim, Dst: f.Peer, Kind: protocol.KindCtl, CtlTag: f.Tag, Payload: f.Msg,
			})
			if err != nil {
				panic(fmt.Sprintf("transport: coordinator cannot encode %s: %v", f.Tag, err))
			}
			c.count("ctl."+f.Tag, 1)
			mesh.Send(f.Peer, wire.RawFrame(frame))
		}
	}
	deadline := time.After(rbTimeout)
	tick := time.NewTicker(rbRetry)
	defer tick.Stop()
	send(hs.Tick())
	for !hs.Done() {
		select {
		case f := <-in:
			send(hs.Receive(f))
		case <-tick.C:
			send(hs.Tick())
		case <-deadline:
			unanswered := hs.Tick()
			return -1, fmt.Errorf("transport: recovery of P%d: %d of %d survivors left %s unanswered for %v",
				victim, len(unanswered), len(c.addrs)-1, unanswered[0].Tag, rbTimeout)
		}
	}
	c.count("recovery.coordinated", 1)
	line, c.epoch = hs.Decision()
	return line, nil
}

// ResumeProtocol builds a process's protocol stack — fresh when line < 0,
// otherwise restarted from its on-disk store at the recovery line:
// checkpoints above the line are truncated on disk and ps (the process's
// in-memory view of its durable checkpoints) is reloaded from what
// remains, which must end at the line (or be empty at line 0, the initial
// state). The protocol needs no telling: at Start it continues from the
// last checkpoint its store holds. With line as NodeConfig.Resume this is
// the one restart-from-disk sequence, and Cluster.buildNode its one
// caller: Recover passes the line the handshake agreed (ocsmld -recover),
// NewClusterAt the operator's (ocsmld -resume).
func ResumeProtocol(opt core.Options, rel bool, fs *fsstore.Store, ps *checkpoint.ProcStore, line int) (protocol.Protocol, error) {
	var proto protocol.Protocol = core.New(opt)
	if rel {
		proto = reliable.Wrap(proto, reliable.Options{})
	}
	if line < 0 {
		return proto, nil
	}
	if fs == nil {
		return nil, fmt.Errorf("transport: resuming at line %d needs a datadir", line)
	}
	if err := fs.TruncateAfter(line); err != nil {
		return nil, fmt.Errorf("transport: truncating above recovery line %d: %w", line, err)
	}
	recs, err := fs.LoadAll()
	if err != nil {
		return nil, fmt.Errorf("transport: loading durable checkpoints: %w", err)
	}
	ps.TruncateAfter(-1)
	for _, rec := range recs {
		ps.Add(rec)
	}
	if max(ps.MaxSeq(), 0) != line {
		return nil, fmt.Errorf("transport: P%d has no durable checkpoint at line %d", ps.Proc(), line)
	}
	return proto, nil
}
