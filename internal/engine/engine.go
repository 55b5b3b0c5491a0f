// Package engine is the embedded relational database engine SQLCM monitors:
// sessions, SQL execution (parse → plan → lock or snapshot → execute),
// stored procedures, a plan cache, multi-version storage with snapshot
// reads, transactions whose writers take strict two-phase table locks, and
// the instrumentation hook points (Hooks) that the monitoring framework
// attaches to.
package engine

import (
	"fmt"
	"sync/atomic"
	"time"

	"sqlcm/internal/catalog"
	"sqlcm/internal/exec"
	"sqlcm/internal/lock"
	"sqlcm/internal/lockcheck"
	"sqlcm/internal/plan"
	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
	"sqlcm/internal/storage"
	"sqlcm/internal/txn"
)

// Config tunes an Engine.
type Config struct {
	// PoolPages is the buffer-pool capacity in pages (default 2048 ≈ 16 MiB).
	PoolPages int
	// DataPath, when set, backs pages with a file; empty uses memory.
	DataPath string
	// Disk, when set, overrides the disk manager entirely (DataPath is
	// ignored). Fault-injection harnesses use it to wrap the page store
	// with failing or slow writes.
	Disk storage.DiskManager
	// LockTimeout bounds lock waits; zero waits forever (deadlock detection
	// still applies). Default 10s.
	LockTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.PoolPages == 0 {
		c.PoolPages = 2048
	}
	if c.LockTimeout == 0 {
		c.LockTimeout = 10 * time.Second
	}
	return c
}

// Engine is an embedded relational database instance.
type Engine struct {
	cfg   Config
	cat   *catalog.Catalog
	reg   *exec.Registry
	disk  storage.DiskManager
	pool  *storage.BufferPool
	locks *lock.Manager
	tm    *txn.Manager

	// hooksMu protects the installed hook set.
	//sqlcm:lock engine.hooks
	//sqlcm:guards hooks
	hooksMu lockcheck.RWMutex
	hooks   Hooks

	// planMu protects the plan cache.
	//sqlcm:lock engine.plan
	//sqlcm:guards planCache
	planMu    lockcheck.Mutex
	planCache map[string]*cachedPlan

	// queryMu protects the active-query and transaction-info maps.
	//sqlcm:lock engine.query
	//sqlcm:guards active, byTxn, txnInfo
	queryMu lockcheck.RWMutex
	// active queries by query id and the current query of each transaction
	active  map[int64]*QueryInfo
	byTxn   map[lock.TxnID]*QueryInfo
	txnInfo map[lock.TxnID]*TxnInfo

	querySeq   atomic.Int64
	sessionSeq atomic.Int64
	closed     atomic.Bool

	// mvccStats aggregates version-store counters across all tables (the
	// Versions_Pruned / Versions_Retained probes).
	mvccStats storage.VersionStats

	// planGen counts plan-cache invalidations (DDL). Prepared statements
	// snapshot it and re-plan when it moves, so a handle never executes a
	// plan compiled against dropped or re-indexed schema.
	planGen atomic.Int64
}

type cachedPlan struct {
	stmt      sqlparser.Statement
	logical   plan.Logical
	physical  plan.Physical
	estCost   float64
	qtype     QueryType
	optimize  time.Duration
	instances atomic.Int64
}

// Open creates an engine.
func Open(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	var disk storage.DiskManager
	if cfg.Disk != nil {
		disk = cfg.Disk
	} else if cfg.DataPath != "" {
		fd, err := storage.NewFileDisk(cfg.DataPath)
		if err != nil {
			return nil, err
		}
		disk = fd
	} else {
		disk = storage.NewMemDisk()
	}
	locks := lock.NewManager(cfg.LockTimeout)
	e := &Engine{
		cfg:       cfg,
		cat:       catalog.New(),
		reg:       exec.NewRegistry(),
		disk:      disk,
		pool:      storage.NewBufferPool(disk, cfg.PoolPages),
		locks:     locks,
		tm:        txn.NewManager(locks),
		planCache: make(map[string]*cachedPlan),
		active:    make(map[int64]*QueryInfo),
		byTxn:     make(map[lock.TxnID]*QueryInfo),
		txnInfo:   make(map[lock.TxnID]*TxnInfo),
	}
	e.hooksMu.SetClass("engine.hooks")
	e.planMu.SetClass("engine.plan")
	e.queryMu.SetClass("engine.query")
	locks.SetNotifier(&lockBridge{e: e})
	return e, nil
}

// pruneAll runs one version-garbage-collection pass over every table at
// the current watermark (oldest active snapshot), each table under its
// exclusive lock. Only Close uses it: while the engine runs, writers
// prune the tables they write (exec.TableStore.NoteGarbage).
func (e *Engine) pruneAll() {
	for _, name := range e.reg.Names() {
		// A table dropped meanwhile has nothing left to prune.
		_ = e.writeDirect(name, func(_ *exec.Ctx, ts *exec.TableStore) error {
			ts.PruneVersions(e.tm.Watermark())
			return nil
		})
	}
}

// MVCCStats exposes the cross-table version-store counters (monitoring
// probes and tests).
func (e *Engine) MVCCStats() *storage.VersionStats { return &e.mvccStats }

// Close shuts the engine down. Tables are fully pruned first (at shutdown
// the watermark is the newest commit, so every superseded version and
// deleted row is reclaimed) so the flushed heaps hold exactly the live row
// images.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	e.pruneAll()
	if err := e.pool.FlushAll(); err != nil {
		return err
	}
	return e.disk.Close()
}

// SetHooks installs (or, with nil, removes) the monitoring hook set.
func (e *Engine) SetHooks(h Hooks) {
	e.hooksMu.Lock()
	e.hooks = h
	e.hooksMu.Unlock()
}

func (e *Engine) hooksRef() Hooks {
	e.hooksMu.RLock()
	h := e.hooks
	e.hooksMu.RUnlock()
	return h
}

// Catalog exposes the metadata catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Pool exposes the buffer pool (stats, pressure injection).
func (e *Engine) Pool() *storage.BufferPool { return e.pool }

// Locks exposes the lock manager (block-graph snapshots).
func (e *Engine) Locks() *lock.Manager { return e.locks }

// Txns exposes the transaction manager.
func (e *Engine) Txns() *txn.Manager { return e.tm }

// Stores exposes the table storage registry.
func (e *Engine) Stores() *exec.Registry { return e.reg }

// ---------------------------------------------------------------------------
// Query registry (active statements)
// ---------------------------------------------------------------------------

func (e *Engine) registerQuery(q *QueryInfo) {
	e.queryMu.Lock()
	e.active[q.ID] = q
	e.byTxn[q.TxnID] = q
	e.queryMu.Unlock()
}

// unregisterQuery removes a finished statement from the active set. The
// byTxn mapping is intentionally retained until the transaction ends: a
// transaction that holds locks after its statement completed must still
// resolve to a query when its eventual lock release unblocks waiters (the
// paper's Blocker object refers to the blocking statement).
func (e *Engine) unregisterQuery(q *QueryInfo) {
	q.done.Store(true)
	e.queryMu.Lock()
	delete(e.active, q.ID)
	e.queryMu.Unlock()
}

// queryForTxn resolves a transaction to its currently executing (or most
// recent) statement.
func (e *Engine) queryForTxn(id lock.TxnID) *QueryInfo {
	e.queryMu.RLock()
	defer e.queryMu.RUnlock()
	return e.byTxn[id]
}

// QueryInfoForTxn resolves a transaction to its current (or most recent)
// statement; used by the monitor to materialize Blocker/Blocked objects
// from lock-graph snapshots.
func (e *Engine) QueryInfoForTxn(id lock.TxnID) (*QueryInfo, bool) {
	q := e.queryForTxn(id)
	return q, q != nil
}

// QuerySnapshot is a point-in-time view of an executing statement, the unit
// returned by the polling API that client-side monitoring tools (the PULL
// baselines) consume.
type QuerySnapshot struct {
	ID          int64
	SessionID   int64
	User, App   string
	Text        string
	Type        QueryType
	StartTime   time.Time
	Elapsed     time.Duration
	TimeBlocked time.Duration
	TxnID       lock.TxnID
}

// ActiveQueries returns a snapshot of currently executing statements. Each
// call does real work proportional to the number of active queries —
// exactly the per-poll cost the paper's PULL approaches pay.
func (e *Engine) ActiveQueries() []QuerySnapshot {
	now := time.Now()
	e.queryMu.RLock()
	defer e.queryMu.RUnlock()
	out := make([]QuerySnapshot, 0, len(e.active))
	for _, q := range e.active {
		out = append(out, QuerySnapshot{
			ID:          q.ID,
			SessionID:   q.SessionID,
			User:        q.User,
			App:         q.App,
			Text:        q.Text,
			Type:        q.Type,
			StartTime:   q.StartTime,
			Elapsed:     now.Sub(q.StartTime),
			TimeBlocked: q.TimeBlocked(),
			TxnID:       q.TxnID,
		})
	}
	return out
}

// ActiveQueryInfos returns the live QueryInfo records (used by the rule
// engine when a Timer-triggered rule iterates over all Query objects).
func (e *Engine) ActiveQueryInfos() []*QueryInfo {
	e.queryMu.RLock()
	defer e.queryMu.RUnlock()
	out := make([]*QueryInfo, 0, len(e.active))
	for _, q := range e.active {
		out = append(out, q)
	}
	return out
}

// CancelQuery cancels the statement with the given id (and its transaction
// lock waits). It reports whether the query was found. The cancellation
// is attributed as an admin cancel (rules' CANCEL action, operators).
func (e *Engine) CancelQuery(id int64) bool {
	e.queryMu.RLock()
	q, ok := e.active[id]
	e.queryMu.RUnlock()
	if !ok {
		return false
	}
	q.MarkCancelled(CancelAdmin)
	return e.tm.Cancel(q.TxnID)
}

// ---------------------------------------------------------------------------
// Lock notifications → query-level blocking events
// ---------------------------------------------------------------------------

type lockBridge struct{ e *Engine }

func (b *lockBridge) Blocked(waiter lock.TxnID, res lock.Resource, holders []lock.TxnID) {
	h := b.e.hooksRef()
	wq := b.e.queryForTxn(waiter)
	if wq == nil {
		return
	}
	if h == nil {
		return
	}
	hqs := make([]*QueryInfo, 0, len(holders))
	for _, ht := range holders {
		hqs = append(hqs, b.e.queryForTxn(ht))
	}
	h.QueryBlocked(BlockEvent{Waiter: wq, Holders: hqs, Resource: res})
}

func (b *lockBridge) Unblocked(waiter lock.TxnID, res lock.Resource, waited time.Duration) {
	wq := b.e.queryForTxn(waiter)
	if wq == nil {
		return
	}
	wq.AddBlocked(waited)
	if h := b.e.hooksRef(); h != nil {
		h.QueryUnblocked(BlockEvent{Waiter: wq, Resource: res, Waited: waited})
	}
}

func (b *lockBridge) ReleasedWithWaiters(holder lock.TxnID, res lock.Resource, waiters []lock.WaiterInfo) {
	hq := b.e.queryForTxn(holder)
	var evs []BlockEvent
	for _, w := range waiters {
		if hq != nil {
			hq.AddQueryBlocked()
		}
		wq := b.e.queryForTxn(w.Txn)
		if wq == nil {
			continue
		}
		evs = append(evs, BlockEvent{Waiter: wq, Resource: res, Waited: w.Waited})
	}
	if h := b.e.hooksRef(); h != nil && hq != nil && len(evs) > 0 {
		h.BlockReleased(hq, evs)
	}
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

// getPlan returns the cached plan for sql, compiling it on a miss. DDL is
// never cached.
func (e *Engine) getPlan(sql string) (*cachedPlan, bool, error) {
	e.planMu.Lock()
	if cp, ok := e.planCache[sql]; ok {
		e.planMu.Unlock()
		return cp, true, nil
	}
	e.planMu.Unlock()

	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, false, err
	}
	switch stmt.(type) {
	case *sqlparser.Select, *sqlparser.Insert, *sqlparser.Update, *sqlparser.Delete:
	default:
		return &cachedPlan{stmt: stmt}, false, nil // not cacheable, not a query
	}
	start := time.Now()
	l, err := plan.BuildLogical(stmt, e.cat)
	if err != nil {
		return nil, false, err
	}
	p, err := plan.Optimize(l, e.cat)
	if err != nil {
		return nil, false, err
	}
	optTime := time.Since(start)
	cp := &cachedPlan{
		stmt:     stmt,
		logical:  l,
		physical: p,
		estCost:  p.EstCost(),
		qtype:    queryTypeOf(stmt),
		optimize: optTime,
	}
	e.planMu.Lock()
	if winner, ok := e.planCache[sql]; ok {
		// Lost a racing miss: adopt the cached plan, so every caller runs
		// one plan and the monitor computes its signature once.
		e.planMu.Unlock()
		return winner, false, nil
	}
	e.planCache[sql] = cp
	e.planMu.Unlock()
	return cp, false, nil
}

// invalidatePlans clears the plan cache (after DDL).
func (e *Engine) invalidatePlans() {
	e.planMu.Lock()
	e.planCache = make(map[string]*cachedPlan)
	e.planMu.Unlock()
	e.planGen.Add(1)
}

// PlanCacheSize returns the number of cached plans.
func (e *Engine) PlanCacheSize() int {
	e.planMu.Lock()
	defer e.planMu.Unlock()
	return len(e.planCache)
}

func queryTypeOf(stmt sqlparser.Statement) QueryType {
	switch stmt.(type) {
	case *sqlparser.Select:
		return QuerySelect
	case *sqlparser.Insert:
		return QueryInsert
	case *sqlparser.Update:
		return QueryUpdate
	case *sqlparser.Delete:
		return QueryDelete
	default:
		return ""
	}
}

// ---------------------------------------------------------------------------
// DDL and direct-row APIs (used by LAT persistence)
// ---------------------------------------------------------------------------

// CreateTable creates a table and its storage.
func (e *Engine) CreateTable(name string, cols []catalog.Column) error {
	meta, err := e.cat.CreateTable(name, cols)
	if err != nil {
		return err
	}
	ts, err := exec.NewTableStore(meta, e.pool, &e.mvccStats)
	if err != nil {
		return err
	}
	e.reg.Register(name, ts)
	e.invalidatePlans()
	return nil
}

// DropTable removes a table.
func (e *Engine) DropTable(name string) error {
	if err := e.cat.DropTable(name); err != nil {
		return err
	}
	e.reg.Unregister(name)
	e.invalidatePlans()
	return nil
}

// writeDirect runs body in a short internal transaction that holds the
// exclusive lock on table: begin, lock, body, then commit, or roll back
// when the lock or body fails. The transaction carries no QueryInfo, so
// it is invisible to the monitor. The watermark read under the lock is
// safe to prune at: no writer on the table is in its commit window.
func (e *Engine) writeDirect(table string, body func(ctx *exec.Ctx, ts *exec.TableStore) error) error {
	ts, err := e.reg.Store(table)
	if err != nil {
		return err
	}
	t := e.tm.Begin(true)
	if err := e.locks.Acquire(t.ID, lock.TableResource(table), lock.Exclusive); err != nil {
		e.tm.Rollback(t) //nolint:errcheck
		return err
	}
	if err := body(&exec.Ctx{Txn: t}, ts); err != nil {
		e.tm.Rollback(t) //nolint:errcheck
		return err
	}
	return e.tm.Commit(t)
}

// noteGarbage counts an UPDATE or DELETE statement that changed n rows of
// table. Every so often the table is pruned right there, under the
// exclusive lock the statement holds, so the pass never waits and its
// time is part of the statement's Duration.
func (e *Engine) noteGarbage(table string, n int64) {
	if ts, err := e.reg.Store(table); err == nil && n > 0 {
		ts.NoteGarbage(e.tm.Watermark)
	}
}

// InsertRowDirect appends one row to a table outside any user transaction
// (used by monitoring actions such as LAT persistence, which must not
// interfere with user transactions). The caller supplies values in table
// column order.
func (e *Engine) InsertRowDirect(table string, row []sqltypes.Value) error {
	return e.writeDirect(table, func(ctx *exec.Ctx, ts *exec.TableStore) error {
		return exec.InsertRow(ctx, ts, row, e.cat)
	})
}

// DeleteRowsDirect removes every row matching pred outside any user
// transaction (used by the LAT checkpointer to garbage-collect superseded
// checkpoint generations). It returns the number of rows deleted.
func (e *Engine) DeleteRowsDirect(table string, pred func(row []sqltypes.Value) bool) (int64, error) {
	var n int64
	err := e.writeDirect(table, func(ctx *exec.Ctx, ts *exec.TableStore) error {
		ncols := len(ts.Meta.Columns)
		type victim struct {
			rid storage.RID
			row []sqltypes.Value
		}
		var victims []victim
		// The chains are authoritative (the heap still holds deleted-but-
		// unpruned row images).
		for _, cr := range ts.Vers.CurrentScan() {
			row, err := exec.DecodeRow(cr.Rec, ncols)
			if err != nil {
				return err
			}
			if pred(row) {
				victims = append(victims, victim{rid: cr.Rid, row: row})
			}
		}
		for _, v := range victims {
			if err := exec.DeleteRow(ctx, ts, v.rid, v.row, e.cat); err != nil {
				return err
			}
		}
		n = int64(len(victims))
		e.noteGarbage(table, n)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// ReadTableDirect returns all rows of a table (used to reload persisted
// LATs at startup and by tests).
func (e *Engine) ReadTableDirect(table string) ([][]sqltypes.Value, error) {
	ts, err := e.reg.Store(table)
	if err != nil {
		return nil, err
	}
	ncols := len(ts.Meta.Columns)
	var out [][]sqltypes.Value
	for _, cr := range ts.Vers.CurrentScan() {
		row, err := exec.DecodeRow(cr.Rec, ncols)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// NewQueryID allocates a fresh query id (exported for the monitor's
// synthetic objects such as evicted LAT rows).
func (e *Engine) NewQueryID() int64 { return e.querySeq.Add(1) }

var errClosed = fmt.Errorf("engine: closed")
