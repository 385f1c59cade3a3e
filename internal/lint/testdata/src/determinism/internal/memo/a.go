// Package memo is the determinism fixture for the memo table: its import
// path ends in internal/memo, which puts it in the analyzer's time/rand
// scope. Which entry a bounded table evicts decides which later requests
// a server reports as cached, so eviction must follow use order, not the
// wall clock or a random source.
package memo

import (
	"math/rand"
	"time"
)

type entry struct {
	lastUsed int64
}

// touch stamps an entry with the wall clock: forbidden.
func touch(e *entry) {
	e.lastUsed = time.Now().UnixNano() // want `time\.Now is wall-clock`
}

// victim picks a random entry from the global source: forbidden.
func victim(entries []entry) int {
	return rand.Intn(len(entries)) // want `rand\.Intn uses a process-global random source`
}

// pushFront is the sanctioned idiom: the list order is the use order.
func pushFront(list []*entry, e *entry) []*entry {
	return append([]*entry{e}, list...)
}
