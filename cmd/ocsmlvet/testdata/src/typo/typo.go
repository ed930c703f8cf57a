// Package typo carries directives no registered analyzer reads: a
// misspelled guardedby, which would otherwise leave its field unchecked,
// and a hotpath left behind by a deleted analyzer.
package typo

import "sync"

type counter struct {
	mu sync.Mutex
	n  int /* want `unknown directive //ocsml:gaurdedby` */ //ocsml:gaurdedby mu
	m  int //ocsml:guardedby mu
}

/* want `unknown directive //ocsml:hotpath` */ //ocsml:hotpath
func (c *counter) bump() {
	c.mu.Lock()
	c.m++
	c.mu.Unlock()
}
