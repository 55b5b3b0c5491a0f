package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lockFindings keeps the lockorder analyzer's findings (all four tags):
// these fixtures seed lock defects, not the other analyzers' patterns.
func lockFindings(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		switch d.Analyzer {
		case "lockorder", "lockunlock", "locksend", "lockclass":
			out = append(out, d)
		}
	}
	return out
}

const lockHeader = `package x

import "sync"

type guarded struct {
	//sqlcm:lock x.a
	a sync.Mutex
	//sqlcm:lock x.b after x.a
	b sync.Mutex
	ch chan int
}
`

func TestDeclaredOrderAccepted(t *testing.T) {
	wantFindings(t, lockFindings(analyzeSrc(t, lockHeader+`
func (g *guarded) ok() {
	g.a.Lock()
	g.b.Lock()
	g.b.Unlock()
	g.a.Unlock()
}
`)))
}

func TestInversionFlagged(t *testing.T) {
	wantFindings(t, lockFindings(analyzeSrc(t, lockHeader+`
func (g *guarded) bad() {
	g.b.Lock()
	g.a.Lock()
	g.a.Unlock()
	g.b.Unlock()
}
`)), `acquiring "x.a" while holding "x.b"`)
}

func TestTryLockIsAnAcquire(t *testing.T) {
	wantFindings(t, lockFindings(analyzeSrc(t, lockHeader+`
func (g *guarded) bad() {
	g.b.Lock()
	if g.a.TryLock() {
		g.a.Unlock()
	}
	g.b.Unlock()
}
`)), `acquiring "x.a" while holding "x.b"`)
}

func TestRWMutexSharesClass(t *testing.T) {
	wantFindings(t, lockFindings(analyzeSrc(t, `package x

import "sync"

type g2 struct {
	//sqlcm:lock x.rw
	rw sync.RWMutex
	//sqlcm:lock x.m after x.rw
	m sync.Mutex
}

func (g *g2) bad() {
	g.m.Lock()
	g.rw.RLock()
	g.rw.RUnlock()
	g.m.Unlock()
}
`)), `acquiring "x.rw" while holding "x.m"`)
}

func TestInterproceduralSummary(t *testing.T) {
	// callee locks x.b; calling it while holding x.a is legal (a -> b),
	// while holding x.b is a same-class double acquire.
	wantFindings(t, lockFindings(analyzeSrc(t, lockHeader+`
func (g *guarded) lockB() {
	g.b.Lock()
	g.b.Unlock()
}

func (g *guarded) ok() {
	g.a.Lock()
	g.lockB()
	g.a.Unlock()
}

func (g *guarded) bad() {
	g.b.Lock()
	g.lockB()
	g.b.Unlock()
}
`)), `call to guarded.lockB acquires "x.b" which is already held`)
}

func TestLockHeldRequirement(t *testing.T) {
	wantFindings(t, lockFindings(analyzeSrc(t, lockHeader+`
//sqlcm:lock-held x.a
func (g *guarded) stepLocked() {}

func (g *guarded) ok() {
	g.a.Lock()
	g.stepLocked()
	g.a.Unlock()
}

func (g *guarded) bad() {
	g.stepLocked()
}
`)), `call to guarded.stepLocked requires "x.a" to be held`)
}

func TestLockHandoff(t *testing.T) {
	// The waitLocked pattern: enter held, release inside, re-acquire and
	// release again on a branch. No findings.
	wantFindings(t, lockFindings(analyzeSrc(t, lockHeader+`
//sqlcm:lock-held x.a
//sqlcm:lock-release x.a
func (g *guarded) waitLocked(fail bool) error {
	if fail {
		g.a.Unlock()
		return nil
	}
	g.a.Unlock()
	g.a.Lock()
	g.a.Unlock()
	return nil
}

func (g *guarded) acquire() error {
	g.a.Lock()
	return g.waitLocked(false)
}
`)))
}

func TestConditionalPairedLock(t *testing.T) {
	// "if cond { lock }; work; if cond { unlock }" must not report: the
	// class is only maybe-held after the merge.
	wantFindings(t, lockFindings(analyzeSrc(t, lockHeader+`
func (g *guarded) insert(bounded bool) {
	if bounded {
		g.a.Lock()
	}
	g.b.Lock()
	g.b.Unlock()
	if bounded {
		g.a.Unlock()
	}
}
`)))
}

func TestMaybeHeldStillOrdersAcquires(t *testing.T) {
	wantFindings(t, lockFindings(analyzeSrc(t, `package x

import "sync"

type g3 struct {
	//sqlcm:lock y.a
	a sync.Mutex
	//sqlcm:lock y.b
	b sync.Mutex
}

func (g *g3) bad(cond bool) {
	if cond {
		g.b.Lock()
	}
	g.a.Lock()
	g.a.Unlock()
	if cond {
		g.b.Unlock()
	}
}
`)), `acquiring "y.a" while holding "y.b"`)
}

func TestGoroutineBodyStartsUnlocked(t *testing.T) {
	wantFindings(t, lockFindings(analyzeSrc(t, lockHeader+`
func (g *guarded) ok() {
	g.a.Lock()
	go func() {
		g.ch <- 1
	}()
	g.a.Unlock()
}
`)))
}

func TestDeferredUnlockInLiteral(t *testing.T) {
	wantFindings(t, lockFindings(analyzeSrc(t, lockHeader+`
func (g *guarded) ok() {
	g.a.Lock()
	defer func() {
		g.a.Unlock()
	}()
	if len(g.ch) > 0 {
		return
	}
}
`)))
}

func TestCallbackReturnIsNotALeak(t *testing.T) {
	// A return inside an inline callback must not report the enclosing
	// function's held locks as leaked.
	wantFindings(t, lockFindings(analyzeSrc(t, lockHeader+`
func (g *guarded) scan(fn func(int) bool) {}

func (g *guarded) ok() {
	g.a.Lock()
	g.scan(func(v int) bool {
		if v == 0 {
			return false
		}
		return true
	})
	g.a.Unlock()
}
`)))
}

func TestUnlockNotHeld(t *testing.T) {
	wantFindings(t, lockFindings(analyzeSrc(t, lockHeader+`
func (g *guarded) bad() {
	g.a.Unlock()
}
`)), `unlock of "x.a" which is not held`)
}

func TestPanicEndsPath(t *testing.T) {
	// A panicking path is no leak, and it drops out of the merge: after
	// bad's if, x.a is definitely held, so falling off the end leaks it.
	wantFindings(t, lockFindings(analyzeSrc(t, lockHeader+`
func (g *guarded) ok(stop bool) {
	g.a.Lock()
	if stop {
		panic("stop")
	}
	g.a.Unlock()
}

func (g *guarded) bad(stop bool) {
	g.a.Lock()
	if stop {
		g.a.Unlock()
		panic("stop")
	}
}
`)), `lock "x.a" acquired at`)
}

func TestDocRendersChains(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(lockHeader), 0o644); err != nil {
		t.Fatalf("write fixture: %v", err)
	}
	prog, err := LoadTree(dir)
	if err != nil {
		t.Fatalf("LoadTree: %v", err)
	}
	doc := prog.LockOrderDoc()
	for _, want := range []string{"x.a -> x.b", "| x.a | — (root) |", "`x.guarded.b` (fixture.go)", "## Chains"} {
		if !strings.Contains(doc, want) {
			t.Errorf("doc missing %q:\n%s", want, doc)
		}
	}
}
