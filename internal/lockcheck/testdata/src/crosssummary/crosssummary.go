// Package crosssummary seeds cross-package lock-ordering edges. The
// callee package (lck) takes the lock.manager latch, declared after
// cross.low; its LockClasses facts carry that acquisition to the call
// sites here, the edge a package-local walk cannot see.
package crosssummary

import (
	"sync"

	"crosssummary/lck"
)

type engine struct {
	//sqlcm:lock cross.low
	low sync.Mutex

	//sqlcm:lock cross.high
	high sync.Mutex
}

// good holds cross.low, which has a declared path to lock.manager: the
// cross-package acquire is in order.
func (e *engine) good(m *lck.Mgr) {
	e.low.Lock()
	defer e.low.Unlock()
	m.Acquire(1)
}

// bad holds cross.high, which has no declared path to lock.manager: the
// fact-driven order check must flag the call.
func (e *engine) bad(m *lck.Mgr) {
	e.high.Lock()
	defer e.high.Unlock()
	m.Acquire(1)
}

// badFunc takes the package-function form of the same edge.
func (e *engine) badFunc() {
	e.high.Lock()
	defer e.high.Unlock()
	lck.Acquire(2)
}

// unheld calls the manager with nothing held: no ordering obligation.
func (e *engine) unheld(m *lck.Mgr) {
	m.Acquire(1)
}
