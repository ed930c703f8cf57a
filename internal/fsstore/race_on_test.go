//go:build race

package fsstore

// raceEnabled gates allocation assertions: the race detector's
// instrumentation allocates, so AllocsPerRun is not meaningful under
// -race.
const raceEnabled = true
