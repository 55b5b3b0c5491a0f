package exec

import (
	"bytes"
	"fmt"

	"sqlcm/internal/catalog"
	"sqlcm/internal/index"
	"sqlcm/internal/plan"
	"sqlcm/internal/sqltypes"
	"sqlcm/internal/storage"
)

// DML execution. Statement errors leave the transaction's undo log with the
// inverse of every row change applied so far; the engine responds to a DML
// error by rolling back the transaction (statement-level atomicity is
// subsumed by transaction rollback, a behaviour documented in DESIGN.md).

// ExecInsert runs an insert plan, returning the number of rows inserted.
//
//sqlcm:cancellable
func ExecInsert(ctx *Ctx, sp StoreProvider, p *plan.PhysInsert, cat *catalog.Catalog) (int64, error) {
	ts, err := sp.Store(p.Table.Name)
	if err != nil {
		return 0, err
	}
	evalsPerRow := make([][]Evaluator, len(p.RowsSrc))
	for i, row := range p.RowsSrc {
		// A multi-row INSERT can carry arbitrarily many rows: the compile
		// loop is a statement-deadline boundary just like the apply loop.
		if err := ctx.checkCancel(); err != nil {
			return 0, err
		}
		evalsPerRow[i] = make([]Evaluator, len(row))
		//sqlcm:allow bounded by one row's width
		for j, e := range row {
			ev, err := Compile(e, nil)
			if err != nil {
				return 0, err
			}
			evalsPerRow[i][j] = ev
		}
	}
	var n int64
	for _, evals := range evalsPerRow {
		if err := ctx.checkCancel(); err != nil {
			return n, err
		}
		row := make(Row, len(p.Table.Columns))
		//sqlcm:allow bounded by the table's column count
		for i := range row {
			row[i] = sqltypes.Null
		}
		//sqlcm:allow bounded by one row's width
		for j, ev := range evals {
			v, err := ev.Eval(nil, ctx.Params)
			if err != nil {
				return n, err
			}
			cv, err := CoerceValue(p.Table.Columns[p.Columns[j]].Type, v)
			if err != nil {
				return n, fmt.Errorf("column %q: %w", p.Table.Columns[p.Columns[j]].Name, err)
			}
			row[p.Columns[j]] = cv
		}
		if err := InsertRow(ctx, ts, row, cat); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// InsertRow inserts one fully materialized row into a table store,
// maintaining indexes, NOT NULL constraints, statistics and the undo log.
// It is also the entry point used by the engine for programmatic inserts
// (e.g. persisting LATs).
func InsertRow(ctx *Ctx, ts *TableStore, row Row, cat *catalog.Catalog) error {
	meta := ts.Meta
	if len(row) != len(meta.Columns) {
		return fmt.Errorf("exec: row width %d != %d columns of %q", len(row), len(meta.Columns), meta.Name)
	}
	for i, col := range meta.Columns {
		if col.NotNull && row[i].IsNull() {
			return fmt.Errorf("exec: NULL in NOT NULL column %q of %q", col.Name, meta.Name)
		}
	}
	rec := EncodeRow(row)
	rid, err := ts.Heap.Insert(rec)
	if err != nil {
		return err
	}
	// Maintain indexes; unwind on unique violation.
	var done []*catalog.Index
	for _, ix := range meta.Indexes() {
		bt := ts.Index(ix.Name)
		if bt == nil {
			continue
		}
		if err := insertEntry(ts, bt, ts.IndexKey(ix, row), rid); err != nil {
			for _, u := range done {
				ts.Index(u.Name).Delete(ts.IndexKey(u, row), rid)
			}
			if derr := ts.Heap.Delete(rid); derr != nil {
				return fmt.Errorf("exec: unwind failed (%v) after: %w", derr, err)
			}
			return fmt.Errorf("exec: %s on %q: %w", ix.Name, meta.Name, err)
		}
		done = append(done, ix)
	}
	// The chain makes the row readable: install it last so no reader
	// resolves the row before its entries exist. Uncommitted inserts are
	// invisible to every other snapshot until the commit stamp.
	if ctx.Txn != nil {
		v := ts.Vers.Install(rid, rec, int64(ctx.Txn.ID), false)
		ctx.Txn.OnCommit(v.SetCommit)
	} else {
		ts.Vers.Install(rid, rec, 0, true)
	}
	if cat != nil {
		cat.AddRows(meta.Name, 1)
	}
	if ctx.Txn != nil {
		rowCopy := row.Clone()
		ctx.Txn.OnRollback(func() error {
			heapRid := ts.Vers.CurrentRID(rid)
			ts.Vers.Discard(rid)
			for _, ix := range meta.Indexes() {
				if bt := ts.Index(ix.Name); bt != nil {
					bt.Delete(ts.IndexKey(ix, rowCopy), rid)
				}
			}
			if cat != nil {
				cat.AddRows(meta.Name, -1)
			}
			return ts.Heap.Delete(heapRid)
		})
	}
	return nil
}

// insertEntry adds entry (key → rid). On a unique violation it reclaims
// the conflicting entry when that entry's row is dead (deleted but
// retained for older snapshots) and retries once — the dead row then
// ceases to be findable through this index, a documented limitation of
// deferred index cleanup.
func insertEntry(ts *TableStore, bt *index.BTree, key []byte, rid storage.RID) error {
	err := bt.Insert(key, rid)
	if err == nil {
		return nil
	}
	ex, ok := bt.Get(key)
	if !ok || !ts.Vers.Dead(ex) {
		return err
	}
	bt.Delete(key, ex)
	return bt.Insert(key, rid)
}

// targetRow is a row located for update/delete.
type targetRow struct {
	rid storage.RID
	row Row
}

// collectTargetsWithRIDs materializes the (rid, row) pairs matched by an
// access path. DML collects all targets before mutating so the scan never
// observes its own writes (Halloween protection).
//
//sqlcm:cancellable
func collectTargetsWithRIDs(ctx *Ctx, ts *TableStore, access *plan.AccessPath, schema []plan.ColMeta) ([]targetRow, error) {
	var residual Evaluator
	if access.Residual != nil {
		ev, err := Compile(access.Residual, schema)
		if err != nil {
			return nil, err
		}
		residual = ev
	}
	ncols := len(ts.Meta.Columns)
	var out []targetRow
	matchRow := func(rid storage.RID, row Row) error {
		ctx.RowsExamined++
		if residual != nil {
			ok, err := EvalBool(residual, row, ctx.Params)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		out = append(out, targetRow{rid: rid, row: row})
		return nil
	}
	if access.Index == nil {
		// The chains are the authoritative current state (the heap still
		// holds deleted-but-unpruned rows).
		for _, cr := range ts.Vers.CurrentScan() {
			if err := ctx.checkCancel(); err != nil {
				return nil, err
			}
			row, err := DecodeRow(cr.Rec, ncols)
			if err != nil {
				return nil, err
			}
			if err := matchRow(cr.Rid, row); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	bt := ts.Index(access.Index.Name)
	if bt == nil {
		return nil, fmt.Errorf("exec: index %q has no storage", access.Index.Name)
	}
	var eqVals []sqltypes.Value
	//sqlcm:allow bounded by the index's key width
	for _, e := range access.Eq {
		ev, err := Compile(e, nil)
		if err != nil {
			return nil, err
		}
		v, err := ev.Eval(nil, ctx.Params)
		if err != nil {
			return nil, err
		}
		eqVals = append(eqVals, v)
	}
	prefix := sqltypes.EncodeKey(eqVals...)
	lo, hi := prefix, prefix
	loIncl, hiIncl := true, true
	if access.Lo != nil {
		ev, err := Compile(access.Lo, nil)
		if err != nil {
			return nil, err
		}
		v, err := ev.Eval(nil, ctx.Params)
		if err != nil {
			return nil, err
		}
		lo = v.Encode(append([]byte(nil), prefix...))
		loIncl = access.LoIncl
	}
	if access.Hi != nil {
		ev, err := Compile(access.Hi, nil)
		if err != nil {
			return nil, err
		}
		v, err := ev.Eval(nil, ctx.Params)
		if err != nil {
			return nil, err
		}
		hi = v.Encode(append([]byte(nil), prefix...))
		hiIncl = access.HiIncl
	} else if access.Lo != nil || len(eqVals) < len(access.Index.Columns) {
		hi = prefixSuccessor(prefix)
		hiIncl = false
	}
	type entryRef struct {
		key []byte
		rid storage.RID
	}
	var entries []entryRef
	bt.ScanRange(lo, hi, loIncl, hiIncl, func(k []byte, rid storage.RID) bool {
		entries = append(entries, entryRef{key: append([]byte(nil), k...), rid: rid})
		return true
	})
	for _, e := range entries {
		if err := ctx.checkCancel(); err != nil {
			return nil, err
		}
		curRid, rec, ok := ts.Vers.CurrentAt(e.rid)
		if !ok {
			continue // row deleted; entry retained for older snapshots
		}
		row, err := DecodeRow(rec, ncols)
		if err != nil {
			return nil, err
		}
		// Stale-entry recheck: entries survive key changes until the
		// garbage collector passes; the row's current key must still match
		// this entry (the current key's own entry finds it otherwise), and
		// the recheck also keeps RowsExamined counts identical to eager
		// index maintenance.
		if !bytes.Equal(ts.IndexKey(access.Index, row), e.key) {
			continue
		}
		if err := matchRow(curRid, row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ExecUpdate runs an update plan, returning the number of rows changed.
//
//sqlcm:cancellable
func ExecUpdate(ctx *Ctx, sp StoreProvider, p *plan.PhysUpdate, cat *catalog.Catalog) (int64, error) {
	ts, err := sp.Store(p.Table.Name)
	if err != nil {
		return 0, err
	}
	schema := make([]plan.ColMeta, len(ts.Meta.Columns))
	//sqlcm:allow bounded by the table's column count
	for i, c := range ts.Meta.Columns {
		schema[i] = plan.ColMeta{Qual: ts.Meta.Name, Name: c.Name}
	}
	targets, err := collectTargetsWithRIDs(ctx, ts, p.Access, schema)
	if err != nil {
		return 0, err
	}
	setEvals := make([]Evaluator, len(p.Sets))
	//sqlcm:allow bounded by the statement's SET list
	for i, s := range p.Sets {
		ev, err := Compile(s.Expr, schema)
		if err != nil {
			return 0, err
		}
		setEvals[i] = ev
	}
	var n int64
	for _, tgt := range targets {
		if err := ctx.checkCancel(); err != nil {
			return n, err
		}
		newRow := tgt.row.Clone()
		//sqlcm:allow bounded by the statement's SET list
		for i, s := range p.Sets {
			v, err := setEvals[i].Eval(tgt.row, ctx.Params)
			if err != nil {
				return n, err
			}
			cv, err := CoerceValue(ts.Meta.Columns[s.Column].Type, v)
			if err != nil {
				return n, fmt.Errorf("column %q: %w", ts.Meta.Columns[s.Column].Name, err)
			}
			if ts.Meta.Columns[s.Column].NotNull && cv.IsNull() {
				return n, fmt.Errorf("exec: NULL in NOT NULL column %q", ts.Meta.Columns[s.Column].Name)
			}
			newRow[s.Column] = cv
		}
		if _, err := updateRow(ctx, ts, tgt.rid, tgt.row, newRow, true); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// ixDelta records the index work one update applied for one index, so
// unique-violation unwind and transaction rollback revert it exactly.
type ixDelta struct {
	ix       *catalog.Index
	oldKey   []byte
	newKey   []byte
	inserted bool // a fresh entry (newKey, anchor) went into the index
	// canceled, when non-nil, is the deferred removal canceled because
	// newKey returned to the row (its entry was still physically present).
	canceled *storage.Pending
}

// revertIndexDeltas undoes deltas in reverse: drops the deferred oldKey
// removals this update registered, removes entries it inserted, and
// re-registers removals it canceled.
func revertIndexDeltas(ts *TableStore, rid, anchor storage.RID, deltas []ixDelta) {
	for i := len(deltas) - 1; i >= 0; i-- {
		d := deltas[i]
		ts.Vers.TakePending(rid, d.ix.Name, d.oldKey)
		if d.inserted {
			if bt := ts.Index(d.ix.Name); bt != nil {
				bt.Delete(d.newKey, anchor)
			}
		}
		if d.canceled != nil {
			ts.Vers.RestorePending(rid, *d.canceled)
		}
	}
}

// updateRow replaces oldRow (at rid) with newRow, optionally recording
// undo, and returns the row's new RID. It pushes a new version (readers
// resolve through the chain), mirrors the current image into the heap, and
// maintains indexes rid-stably — equal keys need no entry work even across
// relocation, changed keys insert the new entry and defer removal of the
// old one to the garbage collector so older snapshots keep finding the row
// under its old key.
func updateRow(ctx *Ctx, ts *TableStore, rid storage.RID, oldRow, newRow Row, recordUndo bool) (storage.RID, error) {
	newRec := EncodeRow(newRow)
	var txnID int64
	if ctx.Txn != nil {
		txnID = int64(ctx.Txn.ID)
	}
	v := ts.Vers.Push(rid, newRec, txnID)
	if ctx.Txn != nil {
		ctx.Txn.OnCommit(v.SetCommit)
	} else {
		v.SetCommit(storage.BaseCommitTS)
	}
	newRid, err := ts.Heap.Update(rid, newRec)
	if err != nil {
		ts.Vers.Pop(rid)
		return rid, err
	}
	if newRid != rid {
		ts.Vers.Relocate(rid, newRid)
	}
	anchor := ts.Vers.Anchor(newRid)

	var deltas []ixDelta
	for _, ix := range ts.Meta.Indexes() {
		bt := ts.Index(ix.Name)
		if bt == nil {
			continue
		}
		oldKey := ts.IndexKey(ix, oldRow)
		newKey := ts.IndexKey(ix, newRow)
		if bytes.Equal(oldKey, newKey) {
			continue
		}
		d := ixDelta{ix: ix, oldKey: oldKey, newKey: newKey}
		if p, ok := ts.Vers.TakePending(newRid, ix.Name, newKey); ok {
			d.canceled = &p
		} else if err := insertEntry(ts, bt, newKey, anchor); err != nil {
			// Unique violation: revert the completed index work, pop the
			// version, and restore the heap image; the caller aborts the
			// transaction.
			revertIndexDeltas(ts, newRid, anchor, deltas)
			ts.Vers.Pop(newRid)
			restored, rerr := ts.Heap.Update(newRid, EncodeRow(oldRow))
			if rerr != nil {
				return rid, fmt.Errorf("exec: unwind failed (%v) after: %w", rerr, err)
			}
			if restored != newRid {
				ts.Vers.Relocate(newRid, restored)
			}
			return rid, fmt.Errorf("exec: %s on %q: %w", ix.Name, ts.Meta.Name, err)
		} else {
			d.inserted = true
		}
		ts.Vers.AddPending(newRid, ix.Name, oldKey, anchor, v)
		deltas = append(deltas, d)
	}
	if recordUndo && ctx.Txn != nil {
		oldCopy := oldRow.Clone()
		finalRid := newRid
		ds := deltas
		ctx.Txn.OnRollback(func() error {
			cur := ts.Vers.CurrentRID(finalRid)
			revertIndexDeltas(ts, cur, anchor, ds)
			ts.Vers.Pop(cur)
			restored, err := ts.Heap.Update(cur, EncodeRow(oldCopy))
			if err != nil {
				return err
			}
			if restored != cur {
				ts.Vers.Relocate(cur, restored)
			}
			return nil
		})
	}
	return newRid, nil
}

// ExecDelete runs a delete plan, returning the number of rows removed.
//
//sqlcm:cancellable
func ExecDelete(ctx *Ctx, sp StoreProvider, p *plan.PhysDelete, cat *catalog.Catalog) (int64, error) {
	ts, err := sp.Store(p.Table.Name)
	if err != nil {
		return 0, err
	}
	schema := make([]plan.ColMeta, len(ts.Meta.Columns))
	//sqlcm:allow bounded by the table's column count
	for i, c := range ts.Meta.Columns {
		schema[i] = plan.ColMeta{Qual: ts.Meta.Name, Name: c.Name}
	}
	targets, err := collectTargetsWithRIDs(ctx, ts, p.Access, schema)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, tgt := range targets {
		if err := ctx.checkCancel(); err != nil {
			return n, err
		}
		if err := DeleteRow(ctx, ts, tgt.rid, tgt.row, cat); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// DeleteRow removes one row, maintaining statistics and undo. The delete
// is logical: a tombstone version goes onto the chain, the heap record and
// index entries stay for older snapshots, and every index entry is
// registered for deferred removal once the tombstone's commit passes the
// version-garbage watermark.
func DeleteRow(ctx *Ctx, ts *TableStore, rid storage.RID, row Row, cat *catalog.Catalog) error {
	var txnID int64
	if ctx.Txn != nil {
		txnID = int64(ctx.Txn.ID)
	}
	v := ts.Vers.Tombstone(rid, txnID)
	if ctx.Txn != nil {
		ctx.Txn.OnCommit(v.SetCommit)
	} else {
		v.SetCommit(storage.BaseCommitTS)
	}
	anchor := ts.Vers.Anchor(rid)
	for _, ix := range ts.Meta.Indexes() {
		if ts.Index(ix.Name) == nil {
			continue
		}
		ts.Vers.AddPending(rid, ix.Name, ts.IndexKey(ix, row), anchor, v)
	}
	if cat != nil {
		cat.AddRows(ts.Meta.Name, -1)
	}
	if ctx.Txn != nil {
		rowCopy := row.Clone()
		ctx.Txn.OnRollback(func() error {
			cur := ts.Vers.CurrentRID(rid)
			for _, ix := range ts.Meta.Indexes() {
				if ts.Index(ix.Name) == nil {
					continue
				}
				ts.Vers.TakePending(cur, ix.Name, ts.IndexKey(ix, rowCopy))
			}
			ts.Vers.Pop(cur)
			if cat != nil {
				cat.AddRows(ts.Meta.Name, 1)
			}
			return nil
		})
	}
	return nil
}
