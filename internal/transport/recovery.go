package transport

import (
	"fmt"
	"net"
	"time"

	"ocsml/internal/checkpoint"
	"ocsml/internal/core"
	"ocsml/internal/fsstore"
	"ocsml/internal/protocol"
	"ocsml/internal/reliable"
	"ocsml/internal/wire"
)

// RecoveryDecision is the outcome of a coordinated recovery round: the
// agreed recovery line (highest sequence number every process has durably
// finalized; 0 = initial state) and the epoch the whole cluster adopts
// when it commits the rollback.
type RecoveryDecision struct {
	Line  int
	Epoch int
}

// CoordinatorConfig parameterizes one wire-level recovery round, run from
// the crashed process's identity and address.
type CoordinatorConfig struct {
	// ID is the crashed process whose restarted incarnation coordinates;
	// Addrs is the cluster address table (the ID'th entry is bound
	// locally by the caller).
	ID    int
	Addrs []string
	// Seed derives the coordinator mesh's reconnect jitter.
	Seed int64
	// Seqs is the coordinator's own durable manifest — its vote in the
	// recovery-line intersection.
	Seqs []int
	// Epoch is the highest epoch the coordinator knows of (0 for a
	// first recovery); peers report theirs and the maximum + 1 becomes
	// the post-rollback epoch.
	Epoch int
	// Timeout bounds the whole handshake (default 20s).
	Timeout time.Duration
	// Retry is the rebroadcast period toward unanswered peers (default
	// 150ms). Recovery frames bypass the reliable middleware, so lost
	// frames are recovered here, by idempotent rebroadcast.
	Retry time.Duration
	// Hook, when non-nil, filters outgoing frames (fault injection).
	Hook SendHook
	// Count, when non-nil, receives the coordinator's counters.
	Count func(name string, delta int64)
}

// Coordinate drives one recovery round over the wire, from the crashed
// process's already-bound listener:
//
//  1. RB_BGN is broadcast (and rebroadcast) until every survivor answers
//     with RB_LINE — its durable manifest and current epoch.
//  2. The recovery line is the highest member of the intersection of all
//     N manifests (the coordinator's own included), or 0 when the
//     intersection is empty. The commit epoch is max(reported)+1.
//  3. RB_CMT carries the decision; a survivor ACKs only after its
//     rollback — including the on-disk truncation — has committed.
//
// Coordinate returns once every survivor has acknowledged; the caller
// then restarts the crashed process at the agreed line with the agreed
// epoch. The listener is closed before returning, so the restarted node
// can rebind the same address.
func Coordinate(cfg CoordinatorConfig, ln net.Listener) (RecoveryDecision, error) {
	n := len(cfg.Addrs)
	if n < 2 || cfg.ID < 0 || cfg.ID >= n {
		ln.Close()
		return RecoveryDecision{}, fmt.Errorf("transport: invalid coordinator id %d of %d", cfg.ID, n)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 20 * time.Second
	}
	if cfg.Retry <= 0 {
		cfg.Retry = 150 * time.Millisecond
	}
	count := cfg.Count
	if count == nil {
		count = func(string, int64) {}
	}

	type rbFrame struct {
		src int
		tag string
		rb  protocol.RbMsg
	}
	in := make(chan rbFrame, 256)
	mesh, err := NewMesh(MeshConfig{
		ID: cfg.ID, Addrs: cfg.Addrs, Seed: cfg.Seed, Hook: cfg.Hook,
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
			rb, ok := e.Payload.(protocol.RbMsg)
			if !ok {
				return
			}
			select {
			case in <- rbFrame{src: src, tag: e.CtlTag, rb: rb}:
			default: // full buffer: the rebroadcast will refill it
			}
		}
	})
	if err != nil {
		ln.Close()
		return RecoveryDecision{}, err
	}
	mesh.Start()
	defer mesh.Close()

	// The round id makes every reply attributable to this attempt; an
	// abandoned attempt's leftovers carry a different round and are
	// ignored. Wall-clock uniqueness across incarnations suffices —
	// rounds never appear in deterministic reports.
	round := time.Now().UnixNano() //ocsml:wallclock round ids need cross-incarnation uniqueness, never replayed
	send := func(dst int, tag string, rb protocol.RbMsg) {
		frame, err := wire.Encode(&protocol.Envelope{
			Src: cfg.ID, Dst: dst, Kind: protocol.KindCtl, CtlTag: tag, Payload: rb,
		})
		if err != nil {
			panic(fmt.Sprintf("transport: coordinator cannot encode %s: %v", tag, err))
		}
		count("ctl."+tag, 1)
		mesh.Send(dst, wire.RawFrame(frame))
	}
	eachPeer := func(fn func(j int)) {
		for j := 0; j < n; j++ {
			if j != cfg.ID {
				fn(j)
			}
		}
	}
	deadline := time.After(cfg.Timeout)
	tick := time.NewTicker(cfg.Retry)
	defer tick.Stop()

	// Phase 1: collect every survivor's durable-line report.
	reports := map[int][]int{}
	epoch := cfg.Epoch
	begin := protocol.RbMsg{Round: round}
	eachPeer(func(j int) { send(j, protocol.TagRbBegin, begin) })
	for len(reports) < n-1 {
		select {
		case f := <-in:
			if f.tag != protocol.TagRbLine || f.rb.Round != round {
				continue
			}
			reports[f.src] = f.rb.Seqs
			if f.rb.Epoch > epoch {
				epoch = f.rb.Epoch
			}
		case <-tick.C:
			eachPeer(func(j int) {
				if _, ok := reports[j]; !ok {
					send(j, protocol.TagRbBegin, begin)
				}
			})
		case <-deadline:
			return RecoveryDecision{}, fmt.Errorf("transport: recovery round got %d/%d line reports within %v",
				len(reports), n-1, cfg.Timeout)
		}
	}

	// Line agreement: a sequence number is a valid line only if every
	// process has it durable — the same true-intersection rule
	// fsstore.CompleteSeqs applies to a datadir, here computed from the
	// reported manifests.
	groups := make([][]int, 0, n)
	groups = append(groups, cfg.Seqs)
	for _, seqs := range reports {
		groups = append(groups, seqs)
	}
	dec := RecoveryDecision{Epoch: epoch + 1}
	if common := fsstore.Intersect(groups); len(common) > 0 {
		dec.Line = common[len(common)-1]
	}

	// Phase 2: commit. A survivor's ACK means its rollback is durable.
	cmt := protocol.RbMsg{Round: round, Line: dec.Line, Epoch: dec.Epoch}
	acked := make(map[int]bool, n-1)
	eachPeer(func(j int) { send(j, protocol.TagRbCommit, cmt) })
	for len(acked) < n-1 {
		select {
		case f := <-in:
			if f.tag != protocol.TagRbAck || f.rb.Round != round {
				continue
			}
			acked[f.src] = true
		case <-tick.C:
			eachPeer(func(j int) {
				if !acked[j] {
					send(j, protocol.TagRbCommit, cmt)
				}
			})
		case <-deadline:
			return dec, fmt.Errorf("transport: recovery commit (line %d, epoch %d) acked by %d/%d within %v",
				dec.Line, dec.Epoch, len(acked), n-1, cfg.Timeout)
		}
	}
	count("recovery.coordinated", 1)
	return dec, nil
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
