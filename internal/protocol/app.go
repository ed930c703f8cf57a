package protocol

import (
	"math/rand"

	"ocsml/internal/des"
)

// App is a synthetic distributed application driven by the engine. The
// checkpointing protocol sits between the App and the network.
type App interface {
	// Start begins the application on one process.
	Start(ctx AppCtx)
	// OnMessage processes an application message. It runs when the
	// protocol layer delivers the message (paper: messages are processed
	// first, then checkpointing actions are taken).
	OnMessage(ctx AppCtx, src int, m AppMsg)
}

// AppCtx is the interface the engine offers to applications.
type AppCtx interface {
	ID() int
	N() int
	Now() des.Time
	Rand() *rand.Rand
	// Send emits an application message; the protocol layer piggybacks
	// its state on it.
	Send(dst int, m AppMsg)
	// After schedules local application work. Stalled processes (blocked
	// by a synchronous checkpoint write, or muted by a blocking
	// protocol) have their callbacks deferred until resumed — this is
	// how blocking inflates the makespan. A callback cannot be canceled;
	// a rollback voids those scheduled before it.
	After(d des.Duration, fn func())
	// DoWork accounts units of application progress.
	DoWork(units int64)
	// Done signals that this process finished its workload quota. The
	// run ends when every process is done and queues drain.
	Done()
}
