// Package lat implements SQLCM's light-weight aggregation tables (LATs,
// §4.3 of the paper): in-memory GROUP BY containers over monitored-object
// attributes with
//
//   - grouping columns and aggregation columns (COUNT, SUM, AVG, MIN, MAX,
//     STDEV, FIRST, LAST) plus aging (moving-window, block-based) variants,
//   - ordering columns with a bounded size (rows or bytes) and
//     least-important-first eviction backed by a heap,
//   - latch-based concurrency (the group hash striped into shard latches,
//     a small ordering latch for the eviction heap, a per-row latch for
//     aggregate state), and
//   - snapshot/persist support.
package lat

import (
	"container/heap"
	"fmt"
	"hash/fnv"
	"sort"
	"sync/atomic"
	"time"

	"sqlcm/internal/clock"
	"sqlcm/internal/lockcheck"
	"sqlcm/internal/sqltypes"
)

// AggFunc enumerates the aggregation functions a LAT column can compute.
type AggFunc uint8

// Aggregation functions (paper §4.3).
const (
	Count AggFunc = iota
	Sum
	Avg
	Min
	Max
	Stdev
	First
	Last
)

// String returns the SQL-ish name of the function.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Stdev:
		return "STDEV"
	case First:
		return "FIRST"
	case Last:
		return "LAST"
	default:
		return fmt.Sprintf("AggFunc(%d)", uint8(f))
	}
}

// AggFuncFromName parses an aggregation function name.
func AggFuncFromName(name string) (AggFunc, error) {
	switch name {
	case "COUNT":
		return Count, nil
	case "SUM":
		return Sum, nil
	case "AVG", "AVERAGE":
		return Avg, nil
	case "MIN":
		return Min, nil
	case "MAX":
		return Max, nil
	case "STDEV", "STDDEV":
		return Stdev, nil
	case "FIRST":
		return First, nil
	case "LAST":
		return Last, nil
	default:
		return Count, fmt.Errorf("lat: unknown aggregation function %q", name)
	}
}

// AggCol declares one aggregation column.
type AggCol struct {
	Func AggFunc
	Attr string // source attribute of the monitored class ("" for COUNT)
	Name string // output column name (referenced by rules as LAT.Name)
	// Aging computes the moving-window version: only values newer than the
	// table's AgingWindow contribute.
	Aging bool
}

// OrderKey is one ordering column of the LAT.
type OrderKey struct {
	Col  string // an output column (grouping or aggregation) name
	Desc bool
}

// Spec declares a LAT.
type Spec struct {
	Name    string
	GroupBy []string // attribute names; also the output grouping columns
	Aggs    []AggCol
	// OrderBy determines both row ordering and eviction priority: when the
	// size limit is exceeded, the row with the smallest ordering value
	// (i.e. the last row in the declared order) is discarded.
	OrderBy []OrderKey
	// MaxRows bounds the row count (0 = unbounded).
	MaxRows int
	// MaxBytes bounds the approximate memory footprint (0 = unbounded).
	MaxBytes int64
	// AgingWindow is t: aging aggregates ignore values older than t.
	AgingWindow time.Duration
	// AgingBlock is Δ: the granularity at which old values age out. At
	// most ceil(t/Δ)+1 blocks are retained per aging aggregate, matching
	// the paper's 2t/Δ storage bound.
	AgingBlock time.Duration
}

// validate checks internal consistency.
func (s *Spec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("lat: spec needs a name")
	}
	if len(s.GroupBy) == 0 {
		return fmt.Errorf("lat %s: at least one grouping column required", s.Name)
	}
	names := map[string]bool{}
	for _, g := range s.GroupBy {
		if names[g] {
			return fmt.Errorf("lat %s: duplicate column %q", s.Name, g)
		}
		names[g] = true
	}
	hasAging := false
	for _, a := range s.Aggs {
		if a.Name == "" {
			return fmt.Errorf("lat %s: aggregation column needs a name", s.Name)
		}
		if names[a.Name] {
			return fmt.Errorf("lat %s: duplicate column %q", s.Name, a.Name)
		}
		names[a.Name] = true
		if a.Func != Count && a.Attr == "" {
			return fmt.Errorf("lat %s: %s(%s) needs a source attribute", s.Name, a.Func, a.Name)
		}
		if a.Aging {
			hasAging = true
		}
	}
	if hasAging {
		if s.AgingWindow <= 0 || s.AgingBlock <= 0 {
			return fmt.Errorf("lat %s: aging aggregates need AgingWindow and AgingBlock", s.Name)
		}
		if s.AgingBlock > s.AgingWindow {
			return fmt.Errorf("lat %s: AgingBlock must not exceed AgingWindow", s.Name)
		}
	}
	for _, o := range s.OrderBy {
		if !names[o.Col] {
			return fmt.Errorf("lat %s: ordering column %q is not an output column", s.Name, o.Col)
		}
	}
	if (s.MaxRows > 0 || s.MaxBytes > 0) && len(s.OrderBy) == 0 {
		return fmt.Errorf("lat %s: a size limit requires ordering columns (eviction priority)", s.Name)
	}
	return nil
}

// Columns returns the output column names: grouping columns then
// aggregation columns.
func (s Spec) Columns() []string {
	out := append([]string{}, s.GroupBy...)
	for _, a := range s.Aggs {
		out = append(out, a.Name)
	}
	return out
}

// AttrGetter supplies monitored-object attribute values during Insert.
type AttrGetter func(attr string) (sqltypes.Value, bool)

// Stats aggregates table counters.
type Stats struct {
	Inserts    int64
	NewGroups  int64
	Evictions  int64
	MemBytes   int64
	GroupCount int
}

// latShards is the number of stripes the group hash is split into. A
// power of two, so shard selection is a mask over the FNV hash of the
// encoded grouping key. 16 stripes keep the probability of two concurrent
// Observe calls on different groups colliding on one latch below ~6% at
// realistic thread counts while costing ~2KB per table.
const latShards = 16

// maxFreePerShard bounds each shard's recycled-row pool (64 rows per
// table, matching the seed's single free list).
const maxFreePerShard = 4

// latShard is one stripe of the group hash: a latch, the groups that hash
// into the stripe, and a small pool of evicted rows for reuse (§6.1:
// "evicted leafs can be re-used for the newly inserted value, keeping
// memory fragmentation low").
type latShard struct {
	// mu protects the stripe's group map and free list.
	//sqlcm:lock lat.shard after lat.order
	//sqlcm:guards groups, free
	mu     lockcheck.RWMutex
	groups map[string]*row
	free   []*row
	_      [24]byte // pad shards onto distinct cache lines
}

// Table is a live LAT.
//
// Latching discipline (mirrors the paper's per-row + structure latches,
// with the structure latch striped): shard latches protect the per-stripe
// hash maps and free lists; the ordering latch protects the eviction heap
// and every row's heapIdx; row latches protect aggregate state. Latches
// nest only in the order orderMu → shard.mu → row.mu, so concurrent
// Observe calls on different groups touch disjoint shard and row latches
// and — in the unbounded case — never share a latch at all. Memory and
// group counters are atomics. The ordering heap is maintained only when
// the spec carries a size limit; an unbounded LAT pays no ordering latch.
type Table struct {
	spec Spec
	// Clock is injectable for deterministic aging tests.
	clock func() time.Time

	shards [latShards]latShard

	// bounded is true when the spec has MaxRows or MaxBytes: only then do
	// inserts maintain the eviction heap under orderMu.
	bounded bool
	// orderMu is the ordering latch: eviction heap + row heapIdx.
	//sqlcm:lock lat.order
	//sqlcm:guards order
	orderMu lockcheck.Mutex
	order   rowHeap

	mem     atomic.Int64
	nGroups atomic.Int64

	onEvict atomic.Pointer[func(EvictedRow)]

	inserts   atomic.Int64
	newGroups atomic.Int64
	evictions atomic.Int64
}

// row is one group's state.
//
// The row latch protects the aggregate state, mem, live and key; heapIdx
// is protected by the table's ordering latch. Ordering-heap comparisons
// read orderKey, an atomically published snapshot of the row's
// ordering-column values, so they never need the row latch.
type row struct {
	// mu is the row latch: aggregate state, mem, live, key.
	//sqlcm:lock lat.row after lat.shard
	//sqlcm:guards key, groupVal, aggs, mem, live
	mu       lockcheck.Mutex
	key      string
	groupVal []sqltypes.Value
	aggs     []aggState
	mem      int64
	live     bool

	// heapIdx is the row's position in the eviction heap.
	//sqlcm:guarded-by lat.order
	heapIdx int
	// orderKey is the atomically published ordering-column snapshot for
	// heap comparisons, so they never need the row latch.
	orderKey atomic.Pointer[[]sqltypes.Value]
}

// shardFor picks the stripe for an encoded grouping key.
func (t *Table) shardFor(key string) *latShard {
	h := fnv.New64a()
	h.Write([]byte(key)) //nolint:errcheck
	return &t.shards[h.Sum64()&(latShards-1)]
}

// EvictedRow is delivered to the eviction callback; the paper exposes each
// evicted row as a monitored object so rules can persist it.
type EvictedRow struct {
	Table   string
	Columns []string
	Values  []sqltypes.Value
}

// New creates a LAT from a spec.
func New(spec Spec) (*Table, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	t := &Table{
		spec:    spec,
		clock:   time.Now,
		bounded: spec.MaxRows > 0 || spec.MaxBytes > 0,
	}
	t.orderMu.SetClass("lat.order")
	for i := range t.shards {
		t.shards[i].mu.SetClass("lat.shard")
		t.shards[i].groups = make(map[string]*row)
	}
	return t, nil
}

// SetClock injects a time source (tests).
func (t *Table) SetClock(fn func() time.Time) { t.clock = fn }

// SetClockSource injects a clock.Clock; aging windows and eviction
// ordering then run against it (the simulation harness passes a virtual
// clock here).
func (t *Table) SetClockSource(c clock.Clock) { t.clock = c.Now }

// SetOnEvict installs the eviction callback.
func (t *Table) SetOnEvict(fn func(EvictedRow)) {
	if fn == nil {
		t.onEvict.Store(nil)
		return
	}
	t.onEvict.Store(&fn)
}

// Spec returns the table's specification.
func (t *Table) Spec() Spec { return t.spec }

// Name returns the LAT name.
func (t *Table) Name() string { return t.spec.Name }

// Len returns the number of groups.
func (t *Table) Len() int { return int(t.nGroups.Load()) }

// Stats returns a snapshot of counters.
func (t *Table) Stats() Stats {
	return Stats{
		Inserts:    t.inserts.Load(),
		NewGroups:  t.newGroups.Load(),
		Evictions:  t.evictions.Load(),
		MemBytes:   t.mem.Load(),
		GroupCount: int(t.nGroups.Load()),
	}
}

// Insert folds one monitored object into the table: the object is assigned
// to its group (creating it if needed), every aggregation column is
// updated, and the size limit enforced (paper action Insert(LATName)).
func (t *Table) Insert(get AttrGetter) error {
	t.inserts.Add(1)
	return t.insert(get)
}

// insert is Insert without the statistics update; eviction races retry
// through it so one logical insert counts once.
func (t *Table) insert(get AttrGetter) error {
	now := t.clock()

	groupVals := make([]sqltypes.Value, len(t.spec.GroupBy))
	for i, attr := range t.spec.GroupBy {
		v, ok := get(attr)
		if !ok {
			return fmt.Errorf("lat %s: object has no attribute %q", t.spec.Name, attr)
		}
		groupVals[i] = v
	}
	key := string(sqltypes.EncodeKey(groupVals...))
	sh := t.shardFor(key)

	// Fast path: existing group under the shard read latch.
	sh.mu.RLock()
	r := sh.groups[key]
	sh.mu.RUnlock()

	if r == nil {
		// Group creation. Bounded tables also register the row in the
		// eviction heap, so the ordering latch is taken first (latch order
		// orderMu → shard.mu) making creation atomic with respect to
		// eviction and Reset.
		if t.bounded {
			t.orderMu.Lock()
		}
		sh.mu.Lock()
		r = sh.groups[key]
		if r == nil {
			if n := len(sh.free); n > 0 {
				// Reuse an evicted row's memory. Reinitialization and its
				// memory accounting happen under the row latch: a stale
				// updater that still holds a pointer to this row
				// revalidates its key after latching, and may then update
				// the reused row at once. (heapIdx is already -1: rows
				// enter the free list only via an eviction pop.)
				r = sh.free[n-1]
				sh.free = sh.free[:n-1]
				r.mu.Lock()
				r.key = key
				r.groupVal = groupVals
				for i := range r.aggs {
					r.aggs[i] = aggState{}
					r.aggs[i].init(&t.spec, &t.spec.Aggs[i])
				}
				r.live = true
				r.mem = r.memSize()
				t.mem.Add(r.mem)
				r.storeOrderKey(t.orderKeyLocked(r, now))
				r.mu.Unlock()
			} else {
				r = &row{key: key, groupVal: groupVals, heapIdx: -1, live: true}
				r.mu.SetClass("lat.row")
				r.aggs = make([]aggState, len(t.spec.Aggs))
				for i := range r.aggs {
					r.aggs[i].init(&t.spec, &t.spec.Aggs[i])
				}
				//sqlcm:allow fresh row: not yet published to any shard map, this goroutine has exclusive access
				r.mem = r.memSize()
				//sqlcm:allow fresh row: exclusive access until published below (see above)
				t.mem.Add(r.mem)
				//sqlcm:allow fresh row: exclusive access until published below (see above)
				r.storeOrderKey(t.orderKeyLocked(r, now))
			}
			sh.groups[key] = r
			if t.bounded {
				heap.Push(&rowHeapRef{t: t}, r)
			}
			t.nGroups.Add(1)
			t.newGroups.Add(1)
		}
		sh.mu.Unlock()
		if t.bounded {
			t.orderMu.Unlock()
		}
	}

	// Update the row under its own latch. The key revalidation catches the
	// eviction + reuse race: a row looked up before its group was evicted
	// may belong to a different group by the time the latch is acquired.
	r.mu.Lock()
	if !r.live || r.key != key {
		r.mu.Unlock()
		return t.insert(get)
	}
	oldMem := r.mem
	for i := range t.spec.Aggs {
		col := &t.spec.Aggs[i]
		var v sqltypes.Value
		ok := true
		if col.Attr != "" {
			v, ok = get(col.Attr)
		}
		if !ok {
			continue
		}
		r.aggs[i].add(&t.spec, col, v, now)
	}
	r.mem = r.memSize()
	// Account the update while the row latch is held: eviction retires a
	// row under this latch, subtracting r.mem as it stands, and Reset
	// marks every row dead under its latch before zeroing the total, so
	// the table's memory stays the sum of its live rows' mem.
	t.mem.Add(r.mem - oldMem)
	r.storeOrderKey(t.orderKeyLocked(r, now))
	r.mu.Unlock()

	// Bounded tables reposition the row in the ordering heap and enforce
	// limits. Membership is re-checked under the shard latch: a row
	// evicted (or Reset) between the latches has left the heap. (The
	// local key is used, never r.key, which may be concurrently
	// reinitialized by row reuse.)
	if !t.bounded {
		return nil
	}
	t.orderMu.Lock()
	sh.mu.RLock()
	present := sh.groups[key] == r
	sh.mu.RUnlock()
	var evicted []EvictedRow
	if present {
		if r.heapIdx >= 0 && len(t.spec.OrderBy) > 0 {
			heap.Fix(&rowHeapRef{t: t}, r.heapIdx)
		}
		evicted = t.enforceLimitsLocked(now)
	}
	t.orderMu.Unlock()
	t.deliverEvictions(evicted)
	return nil
}

// storeOrderKey publishes an ordering-key snapshot for heap comparisons.
func (r *row) storeOrderKey(k []sqltypes.Value) { r.orderKey.Store(&k) }

// loadOrderKey returns the published ordering-key snapshot (nil before
// the first store — only reachable for rows never registered in a heap).
func (r *row) loadOrderKey() []sqltypes.Value {
	if p := r.orderKey.Load(); p != nil {
		return *p
	}
	return nil
}

// orderKeyLocked snapshots the row's ordering-column values. Caller holds
// the row latch (or has exclusive access to a fresh row — such call sites
// carry //sqlcm:allow).
//
//sqlcm:lock-held lat.row
func (t *Table) orderKeyLocked(r *row, now time.Time) []sqltypes.Value {
	if len(t.spec.OrderBy) == 0 {
		return []sqltypes.Value{}
	}
	out := make([]sqltypes.Value, len(t.spec.OrderBy))
outer:
	for i, o := range t.spec.OrderBy {
		for gi, g := range t.spec.GroupBy {
			if g == o.Col {
				out[i] = r.groupVal[gi]
				continue outer
			}
		}
		for ai := range t.spec.Aggs {
			if t.spec.Aggs[ai].Name == o.Col {
				out[i] = r.aggs[ai].value(&t.spec, &t.spec.Aggs[ai], now)
				continue outer
			}
		}
		out[i] = sqltypes.Null
	}
	return out
}

// enforceLimitsLocked evicts least-important rows while over limits,
// returning the evicted snapshots. Caller holds the ordering latch;
// eviction callbacks must be delivered after releasing it. Victim shard
// and row latches nest inside the ordering latch (orderMu → shard.mu →
// row.mu).
//
//sqlcm:lock-held lat.order
func (t *Table) enforceLimitsLocked(now time.Time) []EvictedRow {
	if !t.bounded {
		return nil
	}
	// Snapshots of evicted rows are only materialized when a callback is
	// installed (i.e. some rule listens on LATRow.Evicted).
	fn := t.onEvict.Load()
	var out []EvictedRow
	for {
		over := false
		if t.spec.MaxRows > 0 && len(t.order) > t.spec.MaxRows {
			over = true
		}
		if t.spec.MaxBytes > 0 && t.mem.Load() > t.spec.MaxBytes {
			over = true
		}
		if !over || len(t.order) == 0 {
			return out
		}
		victim := heap.Pop(&rowHeapRef{t: t}).(*row)
		// victim.key is stable here: reuse-reinitialization can only happen
		// after the row is returned to a free list below.
		//sqlcm:allow victim.key is stable: rows are only reinitialized after returning to a free list, which happens below
		vsh := t.shardFor(victim.key)
		vsh.mu.Lock()
		//sqlcm:allow victim.key is stable until the row is freed (see above)
		delete(vsh.groups, victim.key)
		victim.mu.Lock()
		victim.live = false
		t.mem.Add(-victim.mem)
		var vals []sqltypes.Value
		if fn != nil {
			vals = t.rowValuesRowLocked(victim, now)
		}
		victim.mu.Unlock()
		if len(vsh.free) < maxFreePerShard {
			vsh.free = append(vsh.free, victim)
		}
		vsh.mu.Unlock()
		t.nGroups.Add(-1)
		t.evictions.Add(1)
		if fn != nil {
			out = append(out, EvictedRow{
				Table:   t.spec.Name,
				Columns: t.spec.Columns(),
				Values:  vals,
			})
		}
	}
}

// deliverEvictions invokes the eviction callback outside all latches.
func (t *Table) deliverEvictions(rows []EvictedRow) {
	if len(rows) == 0 {
		return
	}
	fn := t.onEvict.Load()
	if fn == nil {
		return
	}
	for _, r := range rows {
		(*fn)(r)
	}
}

// rowValues materializes the output values of a row (group then aggs).
func (t *Table) rowValues(r *row, now time.Time) []sqltypes.Value {
	r.mu.Lock()
	defer r.mu.Unlock()
	return t.rowValuesRowLocked(r, now)
}

// rowValuesRowLocked is rowValues with the row latch already held.
//
//sqlcm:lock-held lat.row
func (t *Table) rowValuesRowLocked(r *row, now time.Time) []sqltypes.Value {
	out := make([]sqltypes.Value, 0, len(r.groupVal)+len(r.aggs))
	out = append(out, r.groupVal...)
	for i := range r.aggs {
		out = append(out, r.aggs[i].value(&t.spec, &t.spec.Aggs[i], now))
	}
	return out
}

// Lookup returns the output values of the group matching the given
// grouping-attribute values, in declared column order. The second result
// reports whether a matching row exists (rules treat a missing row as a
// false condition, §5.2).
func (t *Table) Lookup(groupVals []sqltypes.Value) ([]sqltypes.Value, bool) {
	key := string(sqltypes.EncodeKey(groupVals...))
	sh := t.shardFor(key)
	now := t.clock()
	sh.mu.RLock()
	r := sh.groups[key]
	if r == nil {
		sh.mu.RUnlock()
		return nil, false
	}
	// Materialize under the shard latch (shard.mu → row.mu) so a
	// concurrent eviction + row reuse cannot hand back another group's
	// values.
	vals := t.rowValues(r, now)
	sh.mu.RUnlock()
	return vals, true
}

// LookupByGetter resolves the grouping attributes through an object
// accessor and looks the group up.
func (t *Table) LookupByGetter(get AttrGetter) ([]sqltypes.Value, bool) {
	groupVals := make([]sqltypes.Value, len(t.spec.GroupBy))
	for i, attr := range t.spec.GroupBy {
		v, ok := get(attr)
		if !ok {
			return nil, false
		}
		groupVals[i] = v
	}
	return t.Lookup(groupVals)
}

// ColumnIndex returns the position of an output column, or -1.
func (t *Table) ColumnIndex(col string) int {
	for i, c := range t.spec.Columns() {
		if c == col {
			return i
		}
	}
	return -1
}

// Rows returns a snapshot of all rows in declared order (most important
// first). Each row is the output values in column order. The snapshot is
// taken shard by shard: rows are materialized under their shard latch so
// a concurrent eviction + reuse cannot duplicate or corrupt a row, but
// the snapshot as a whole is not a single point in time.
func (t *Table) Rows() [][]sqltypes.Value {
	now := t.clock()
	out := make([][]sqltypes.Value, 0, t.nGroups.Load())
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for _, r := range sh.groups {
			out = append(out, t.rowValues(r, now))
		}
		sh.mu.RUnlock()
	}
	// Heap order is not sorted order: sort by the spec (most important
	// first = reverse of eviction priority).
	t.sortRows(out)
	return out
}

// sortRows sorts materialized rows by the ordering spec, most important
// first; without ordering columns the order is unspecified but stable.
func (t *Table) sortRows(rows [][]sqltypes.Value) {
	if len(t.spec.OrderBy) == 0 {
		return
	}
	idx := make([]int, len(t.spec.OrderBy))
	for i, o := range t.spec.OrderBy {
		idx[i] = t.ColumnIndex(o.Col)
	}
	sortSliceStable(rows, func(a, b []sqltypes.Value) bool {
		for i, o := range t.spec.OrderBy {
			c := sqltypes.Compare(a[idx[i]], b[idx[i]])
			if c == 0 {
				continue
			}
			if o.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

// Reset clears the table (paper action Reset(LATName)). It takes the
// ordering latch and every shard latch (in latch order), so it is atomic
// with respect to concurrent inserts.
func (t *Table) Reset() {
	t.orderMu.Lock()
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, r := range sh.groups {
			r.mu.Lock()
			r.live = false
			r.mu.Unlock()
		}
		sh.groups = make(map[string]*row)
		sh.free = nil
		sh.mu.Unlock()
	}
	t.order = nil
	t.mem.Store(0)
	t.nGroups.Store(0)
	t.orderMu.Unlock()
}

// Load replays persisted rows into the table as single observations (used
// to carry LAT contents across server restarts, §4.3). Aggregates resume
// approximately: each persisted AVG/SUM/… row is folded back as one
// observation per aggregate column.
func (t *Table) Load(rows [][]sqltypes.Value) error {
	cols := t.spec.Columns()
	for _, vals := range rows {
		if len(vals) != len(cols) {
			return fmt.Errorf("lat %s: load row has %d values, want %d", t.spec.Name, len(vals), len(cols))
		}
		attrByName := make(map[string]sqltypes.Value, len(cols))
		for i, c := range cols {
			attrByName[c] = vals[i]
		}
		err := t.Insert(func(attr string) (sqltypes.Value, bool) {
			// Grouping attributes resolve by name; aggregation sources
			// resolve through their output column value.
			if v, ok := attrByName[attr]; ok {
				return v, true
			}
			for i, a := range t.spec.Aggs {
				if a.Attr == attr {
					return vals[len(t.spec.GroupBy)+i], true
				}
			}
			return sqltypes.Null, false
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// --- ordering heap (least important at the top) ---

type rowHeap []*row

// rowHeapRef adapts the table to heap.Interface with access to the spec.
// Every method runs under the ordering latch: container/heap operations
// on the table are only issued while orderMu is held.
type rowHeapRef struct{ t *Table }

//sqlcm:lock-held lat.order
func (h *rowHeapRef) Len() int { return len(h.t.order) }

//sqlcm:lock-held lat.order
func (h *rowHeapRef) Less(i, j int) bool {
	return h.t.lessImportant(h.t.order[i], h.t.order[j])
}

//sqlcm:lock-held lat.order
func (h *rowHeapRef) Swap(i, j int) {
	o := h.t.order
	o[i], o[j] = o[j], o[i]
	o[i].heapIdx = i
	o[j].heapIdx = j
}

//sqlcm:lock-held lat.order
func (h *rowHeapRef) Push(x interface{}) {
	r := x.(*row)
	r.heapIdx = len(h.t.order)
	h.t.order = append(h.t.order, r)
}

//sqlcm:lock-held lat.order
func (h *rowHeapRef) Pop() interface{} {
	o := h.t.order
	r := o[len(o)-1]
	r.heapIdx = -1
	h.t.order = o[:len(o)-1]
	return r
}

// lessImportant orders rows by eviction priority: true when a should be
// evicted before b. It compares the atomically published ordering-key
// snapshots, so it is safe under the table latch alone.
func (t *Table) lessImportant(a, b *row) bool {
	ak := a.loadOrderKey()
	bk := b.loadOrderKey()
	for i, o := range t.spec.OrderBy {
		var av, bv sqltypes.Value
		if i < len(ak) {
			av = ak[i]
		}
		if i < len(bk) {
			bv = bk[i]
		}
		c := sqltypes.Compare(av, bv)
		if c == 0 {
			continue
		}
		if o.Desc {
			return c < 0 // descending spec: smallest is least important
		}
		return c > 0 // ascending spec: largest is least important
	}
	return false
}

// memSize approximates the row's footprint. Caller holds the row latch
// (or has exclusive access to a fresh row — such call sites carry
// //sqlcm:allow).
//
//sqlcm:lock-held lat.row
func (r *row) memSize() int64 {
	var n int64 = 64
	for _, v := range r.groupVal {
		n += int64(v.MemSize())
	}
	for i := range r.aggs {
		n += r.aggs[i].memSize()
	}
	return n
}

func sortSliceStable(rows [][]sqltypes.Value, less func(a, b []sqltypes.Value) bool) {
	sort.SliceStable(rows, func(i, j int) bool { return less(rows[i], rows[j]) })
}
