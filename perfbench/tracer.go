package main

import (
	"sync"
	"time"

	"sqlcm/internal/engine"
	"sqlcm/internal/lock"
	"sqlcm/internal/monitor"
)

// stmtSpan is the engine side of one statement, timed from outside the
// engine by the hook decorator. Times are ns since the run's base.
type stmtSpan struct {
	app        string
	qid        int64
	typ        engine.QueryType
	start      int64 // QueryInfo.StartTime
	execEnd    int64 // StartTime + the duration the engine reports
	commitAt   int64 // QueryCommit called
	end        int64 // QueryCommit returned
	startHook  int64 // ns in QueryStart + QueryCompiled
	planHit    bool
	autocommit bool
	blocked    int64 // QueryInfo.TimeBlocked at commit
	maxChain   int64
}

func (s stmtSpan) span() span { return span{s.start, s.end} }

// sessTrace is the per-session state of the tracer. Hooks run on the
// goroutine that owns the session they report on (the lock manager calls
// the blocking hooks on the waiter's and on the releasing holder's
// goroutine), so only that goroutine touches it while the load runs.
type sessTrace struct {
	cur      stmtSpan
	curOK    bool
	implicit lock.TxnID
	spans    []stmtSpan

	blockHooks []int64 // ns per QueryBlocked / QueryUnblocked / BlockReleased call
	waits      []int64 // lock waits in ns, from QueryUnblocked
	blockedN   int64   // QueryBlocked calls
}

// tracer wraps the monitor's engine.Hooks and times the calls into them;
// the hooks it does not override pass straight through. It is installed
// with Engine().SetHooks for the traced windows of a run.
type tracer struct {
	engine.Hooks
	sigs *monitor.SigCache
	base time.Time

	sessions sync.Map // session ID -> *sessTrace
}

func (t *tracer) ns(ts time.Time) int64 { return ts.Sub(t.base).Nanoseconds() }

func (t *tracer) sess(id int64) *sessTrace {
	if s, ok := t.sessions.Load(id); ok {
		return s.(*sessTrace)
	}
	s, _ := t.sessions.LoadOrStore(id, &sessTrace{})
	return s.(*sessTrace)
}

func (t *tracer) QueryStart(q *engine.QueryInfo) {
	t0 := time.Now()
	t.Hooks.QueryStart(q)
	d := time.Since(t0)
	s := t.sess(q.SessionID)
	s.cur = stmtSpan{
		app:        q.App,
		qid:        q.ID,
		typ:        q.Type,
		start:      t.ns(q.StartTime),
		startHook:  d.Nanoseconds(),
		planHit:    q.PlanCacheHit,
		autocommit: q.TxnID == s.implicit,
	}
	s.curOK = true
}

func (t *tracer) QueryCompiled(q *engine.QueryInfo) {
	t0 := time.Now()
	t.Hooks.QueryCompiled(q)
	d := time.Since(t0)
	if s := t.sess(q.SessionID); s.curOK && s.cur.qid == q.ID {
		s.cur.startHook += d.Nanoseconds()
	}
}

func (t *tracer) QueryCommit(q *engine.QueryInfo, dur time.Duration) {
	t0 := time.Now()
	t.Hooks.QueryCommit(q, dur)
	t1 := time.Now()
	s := t.sess(q.SessionID)
	if !s.curOK || s.cur.qid != q.ID {
		return // started before this tracer was installed
	}
	c := s.cur
	c.execEnd = c.start + dur.Nanoseconds()
	c.commitAt = t.ns(t0)
	c.end = t.ns(t1)
	c.blocked = q.TimeBlocked().Nanoseconds()
	c.maxChain = q.MaxChain()
	s.spans = append(s.spans, c)
	s.curOK = false
}

func (t *tracer) QueryAbort(q *engine.QueryInfo, dur time.Duration, cancelled bool) {
	t.Hooks.QueryAbort(q, dur, cancelled)
	t.sess(q.SessionID).curOK = false
}

func (t *tracer) QueryBlocked(ev engine.BlockEvent) {
	t0 := time.Now()
	t.Hooks.QueryBlocked(ev)
	s := t.sess(ev.Waiter.SessionID)
	s.blockHooks = append(s.blockHooks, time.Since(t0).Nanoseconds())
	s.blockedN++
}

func (t *tracer) QueryUnblocked(ev engine.BlockEvent) {
	t0 := time.Now()
	t.Hooks.QueryUnblocked(ev)
	s := t.sess(ev.Waiter.SessionID)
	s.blockHooks = append(s.blockHooks, time.Since(t0).Nanoseconds())
	s.waits = append(s.waits, ev.Waited.Nanoseconds())
}

func (t *tracer) BlockReleased(holder *engine.QueryInfo, waiters []engine.BlockEvent) {
	t0 := time.Now()
	t.Hooks.BlockReleased(holder, waiters)
	s := t.sess(holder.SessionID)
	s.blockHooks = append(s.blockHooks, time.Since(t0).Nanoseconds())
}

func (t *tracer) TxnBegin(ti *engine.TxnInfo) {
	if ti.Implicit {
		t.sess(ti.SessionID).implicit = ti.ID
	}
	t.Hooks.TxnBegin(ti)
}

// collected is everything the tracer recorded, over all sessions.
type collected struct {
	stmts             []stmtSpan
	blockHooks, waits []int64
	blockedN          int64
}

// collect gathers the per-session records. Call it only after the load
// has stopped and the server (if any) has shut down.
func (t *tracer) collect() collected {
	var c collected
	t.sessions.Range(func(_, v any) bool {
		s := v.(*sessTrace)
		c.stmts = append(c.stmts, s.spans...)
		c.blockHooks = append(c.blockHooks, s.blockHooks...)
		c.waits = append(c.waits, s.waits...)
		c.blockedN += s.blockedN
		return true
	})
	return c
}
