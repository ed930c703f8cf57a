// Package nop implements the null checkpointing protocol: it never
// checkpoints and passes every message straight through. It is the
// baseline against which checkpointing overhead is measured (the
// "no-checkpointing" makespan).
package nop

import "ocsml/internal/protocol"

// Protocol is the null protocol.
//
// No piggyback: null baseline, no checkpointing, nothing to attach.
type Protocol struct {
	env protocol.Env
}

// Factory builds null protocol instances.
func Factory() func(i, n int) protocol.Protocol {
	return func(int, int) protocol.Protocol { return &Protocol{} }
}

// Name implements protocol.Protocol.
func (p *Protocol) Name() string { return "none" }

// Start implements protocol.Protocol.
func (p *Protocol) Start(env protocol.Env) { p.env = env }

// OnAppSend implements protocol.Protocol.
func (p *Protocol) OnAppSend(e *protocol.Envelope) {}

// OnDeliver implements protocol.Protocol.
func (p *Protocol) OnDeliver(e *protocol.Envelope) {
	if e.IsApp() {
		p.env.DeliverApp(e, nil)
	}
}

// OnTimer implements protocol.Protocol.
func (p *Protocol) OnTimer(kind, gen int) {}

// Finish implements protocol.Protocol.
func (p *Protocol) Finish() {}
