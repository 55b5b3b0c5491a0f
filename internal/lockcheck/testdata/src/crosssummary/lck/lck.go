// Package lck is the callee side of the crosssummary fixture: a lock
// manager whose entry points take the lock.manager latch. Its
// LockClasses facts are what the caller's order check consults.
package lck

import "sync"

// Mgr is a lock manager behind one latch.
type Mgr struct {
	//sqlcm:lock lock.manager after cross.low
	//sqlcm:guards n
	mu sync.Mutex
	n  int
}

// Acquire takes the manager latch.
func (m *Mgr) Acquire(id int) {
	m.mu.Lock()
	m.n += id
	m.mu.Unlock()
}

var global Mgr

// Acquire takes the process-wide manager's latch.
func Acquire(id int) {
	global.Acquire(id)
}
