//go:build !race

package fsstore

const raceEnabled = false
