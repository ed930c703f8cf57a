//go:build race

package trace

// raceEnabled gates allocation assertions: the race detector's
// instrumentation allocates.
const raceEnabled = true
