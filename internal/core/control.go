package core

import (
	"fmt"

	"ocsml/internal/protocol"
)

// This file implements the paper's §3.5.1 convergence mechanism (Figure
// 4): when a tentative checkpoint is not finalized within the timeout,
// control messages force progress.
//
//   CK_BGN  — a timed-out process notifies P0.
//   CK_REQ  — P0 circulates a request around the ring; every process takes
//             the tentative checkpoint if it has not; with SkipREQ the
//             message skips processes already known to be tentative.
//   CK_END  — P0 announces that all processes have taken the tentative
//             checkpoint; receivers finalize.

func (p *Protocol) sendCtl(dst int, tag string, csn int) {
	if dst == p.env.ID() {
		panic(fmt.Sprintf("core: P%d sending control message to itself", dst))
	}
	p.env.Send(&protocol.Envelope{
		Dst: dst, Kind: protocol.KindCtl, CtlTag: tag,
		Bytes: ctlBytes, Payload: CtlMsg{Csn: csn},
	})
}

func (p *Protocol) broadcastEND(csn int) {
	if p.endSentCsn >= csn {
		return
	}
	p.endSentCsn = csn
	p.env.Broadcast(&protocol.Envelope{
		Kind: protocol.KindCtl, CtlTag: TagEND,
		Bytes: ctlBytes, Payload: CtlMsg{Csn: csn},
	})
}

// onConvergeTimeout handles the expiry of the convergence timer of
// generation gen (convGen).
func (p *Protocol) onConvergeTimeout(gen int) {
	if p.stat != Tentative || p.convGen != gen {
		return // canceled, finalized or superseded; the timer is moot
	}
	if p.env.ID() == 0 {
		// P0 initiates CK_REQ messages directly (Fig. 4).
		if p.reqSentCsn < p.csn {
			p.forwardREQ()
		}
		return
	}
	if p.opt.SuppressBGN && !p.escalated && p.tentSet.HasBelow(p.env.ID()) {
		// §3.5.1 case 1: a lower-id process is known to have taken this
		// tentative checkpoint; it (or an even lower one) will notify
		// P0. Stay silent.
		p.env.Count("bgn_suppressed", 1)
		if p.opt.EscalateBGN {
			// Extension: guarantee convergence without P0's broadcast-
			// on-finalize by escalating on the second expiry.
			p.escalated = true
			p.armConvTimer()
		}
		return
	}
	p.sendCtl(0, TagBGN, p.csn)
}

// forwardREQ implements forwardCheckpointRequest(P_i, CM): send CK_REQ to
// the next process that, to our knowledge, has not taken the tentative
// checkpoint; if all higher-id processes have, return it to P0.
func (p *Protocol) forwardREQ() {
	i := p.env.ID()
	csn := p.csn
	var dst int
	if p.stat == Normal {
		// §3.5.1 case 2: "If it has finalized this checkpoint, it
		// forwards the message to P0 directly." (tentSet is empty once
		// normal, so the search below would wrongly pick i+1.)
		dst = 0
	} else if p.opt.SkipREQ {
		dst = p.tentSet.NextAbsent(i + 1)
		if dst == -1 {
			dst = 0
		} else if skipped := dst - (i + 1); skipped > 0 {
			p.env.Count("req_skipped", int64(skipped))
		}
	} else {
		dst = i + 1
		if dst == p.env.N() {
			dst = 0
		}
	}
	p.reqSentCsn = csn
	if dst == i {
		// Only possible for P0 when every other process is already in
		// tentSet: the request's round trip is complete.
		if i != 0 {
			panic(fmt.Sprintf("core: P%d computed itself as CK_REQ target", i))
		}
		p.completeRound(csn)
		return
	}
	p.sendCtl(dst, TagREQ, csn)
}

// completeRound is P0 learning that every process has taken the tentative
// checkpoint with sequence number csn: broadcast CK_END and finalize.
func (p *Protocol) completeRound(csn int) {
	p.broadcastEND(csn)
	if p.stat == Tentative && p.csn == csn {
		p.finalize()
	}
}

// onControl implements the "When P_i receives CM from P_j" rules of
// Figure 4.
func (p *Protocol) onControl(e *protocol.Envelope) {
	cm, ok := e.Payload.(CtlMsg)
	if !ok {
		panic(fmt.Sprintf("core: P%d received foreign control message %q", p.env.ID(), e.CtlTag))
	}
	switch {
	case cm.Csn < p.csn:
		// Stale: we already finalized that sequence number (csn only
		// advances past a finalized checkpoint). Deviation (ii) in
		// DESIGN.md: the paper's pseudocode leaves this case implicit.
		// A stale CK_BGN/CK_REQ means its sender is still waiting to
		// finalize cm.Csn — answer with a targeted CK_END so it cannot
		// strand (its own timer does not re-arm).
		p.env.Count("ctl_stale", 1)
		if e.CtlTag == TagBGN || e.CtlTag == TagREQ {
			p.sendCtl(e.Src, TagEND, cm.Csn)
		}
		return

	case cm.Csn == p.csn+1:
		// We lag one initiation behind: finalize the current tentative
		// checkpoint if any (its global checkpoint is complete — the
		// sender could only reach csn+1 afterwards), then join.
		if p.stat == Tentative {
			p.finalize()
		}
		p.takeTentative()
		if e.CtlTag == TagEND {
			// Deviation (i) in DESIGN.md: CK_END(csn+1) proves every
			// process took csn+1, so finalize immediately rather than
			// forwarding a CK_REQ into a completed round. (Unreachable
			// under faithful knowledge propagation; kept defensive.)
			p.finalize()
			return
		}
		p.forwardREQ()

	case cm.Csn == p.csn:
		// Paper: the convergence timer is canceled when a CM with the
		// current sequence number arrives (the round is in progress).
		p.cancelConvTimer()
		switch e.CtlTag {
		case TagBGN:
			if p.stat == Tentative {
				if p.reqSentCsn >= p.csn {
					return // round already initiated for this csn
				}
				p.forwardREQ()
				return
			}
			// Already finalized: if we are P0 the round is complete.
			if p.env.ID() == 0 {
				p.broadcastEND(cm.Csn)
			}
		case TagREQ:
			if p.env.ID() == 0 {
				p.completeRound(cm.Csn)
				return
			}
			if p.reqSentCsn >= cm.Csn {
				return // duplicate round traffic
			}
			p.forwardREQ()
		case TagEND:
			if p.stat == Tentative {
				p.finalize()
			}
		default:
			panic(fmt.Sprintf("core: unknown control tag %q", e.CtlTag))
		}

	default: // cm.Csn > p.csn+1
		// Deviation (vi) in DESIGN.md: the paper's pseudocode treats a
		// control message more than one initiation ahead as impossible,
		// and this used to panic. It is reachable in a long-lived
		// deployment — a daemon resuming behind a cluster that kept
		// initiating, or version skew — and a control frame must never
		// crash an OS process. Drop it, counted, and catch up one round:
		// a tentative non-coordinator nudges P0 with CK_BGN(csn); P0's
		// stale-message handling (deviation (ii)) answers with a targeted
		// CK_END, finalizing our round so the next one closes the gap.
		p.env.Count("ctl_ahead_dropped", 1)
		if p.stat == Tentative && p.env.ID() != 0 && p.aheadNudge < p.csn {
			p.aheadNudge = p.csn
			p.sendCtl(0, TagBGN, p.csn)
		}
	}
}
