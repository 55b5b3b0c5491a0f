package lat

import (
	"container/heap"
	"fmt"

	"sqlcm/internal/sqltypes"
)

// Restore rebuilds table rows from checkpointed output values (§4.3:
// LATs are persistable to a disk table and reloadable at startup).
// Restore reconstructs the accumulator of every aggregate whose state is
// determined by its output — COUNT, SUM, MIN, MAX, FIRST, LAST resume
// exactly; AVG resumes with the correct current value but unit weight for
// future observations; STDEV and aging aggregates resume as a single
// observation (their accumulators are not recoverable from one output
// value). Restoring into a non-empty group overwrites that group's
// aggregate state.
func (t *Table) Restore(rows [][]sqltypes.Value) error {
	now := t.now()
	ng := len(t.spec.GroupBy)
	for _, vals := range rows {
		if len(vals) != len(t.cols) {
			return fmt.Errorf("lat %s: restore row has %d values, want %d", t.spec.Name, len(vals), len(t.cols))
		}
		groupVals := vals[:ng]
		key := string(sqltypes.EncodeKey(groupVals...))
		sh := shardFor(t, key)

		if t.bounded {
			t.orderMu.Lock()
		}
		sh.mu.Lock()
		r := sh.groups[key]
		if r == nil {
			r = t.addGroupLocked(sh, key, groupVals, now)
		}
		r.mu.Lock()
		oldMem := r.mem
		for i := range t.spec.Aggs {
			r.aggs[i] = aggState{}
			r.aggs[i].init(&t.spec, &t.spec.Aggs[i])
			r.aggs[i].restoreFrom(&t.spec, &t.spec.Aggs[i], vals[ng+i], now)
		}
		r.mem = r.memSize()
		t.mem.Add(r.mem - oldMem)
		if t.bounded {
			t.orderKeyLocked(r, now)
		}
		r.mu.Unlock()
		sh.mu.Unlock()

		if t.bounded {
			// Reposition in the eviction heap and enforce limits; the shard
			// latch is released so eviction can take victim shard latches in
			// the orderMu → shard.mu order.
			heap.Fix(&t.order, r.heapIdx)
			evicted := t.enforceLimitsLocked(now)
			t.orderMu.Unlock()
			t.deliverEvictions(evicted)
		}
	}
	return nil
}
