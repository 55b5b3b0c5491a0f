package lat

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sqlcm/internal/sqltypes"
)

// boundedCountSpec orders by observation count so eviction discards the
// coldest group, the canonical "top-K most frequent" LAT from §4.3.
func boundedCountSpec(maxRows int) Spec {
	return Spec{
		Name:    "Hot_Queries",
		GroupBy: []string{"Logical_Signature"},
		Aggs: []AggCol{
			{Func: Count, Name: "N"},
			{Func: Max, Attr: "Duration", Name: "Max_Duration"},
		},
		OrderBy: []OrderKey{{Col: "N", Desc: true}},
		MaxRows: maxRows,
	}
}

// TestConcurrentInsertEvictAndRead drives a bounded striped LAT from many
// writers while a reader scans it, then checks the invariants that must
// survive arbitrary interleavings:
//
//   - the table never ends over its row bound;
//   - observations are conserved exactly: every insert lands in exactly
//     one group exactly once, so the COUNTs snapshotted at eviction plus
//     the COUNTs still live sum to the number of inserts.
func TestConcurrentInsertEvictAndRead(t *testing.T) {
	const (
		maxRows = 16
		writers = 8
		perG    = 2000
		keys    = 128
	)
	tab, err := New(boundedCountSpec(maxRows))
	if err != nil {
		t.Fatal(err)
	}

	var evictMu sync.Mutex
	var evictedCount int64
	var evictions int64
	tab.SetOnEvict(func(ev EvictedRow) {
		evictMu.Lock()
		defer evictMu.Unlock()
		evictions++
		for i, col := range ev.Columns {
			if col == "N" {
				evictedCount += ev.Values[i].Int()
			}
		}
	})

	stop := make(chan struct{})
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() {
		defer readerDone.Done()
		nCols := len(tab.Spec().GroupBy) + len(tab.Spec().Aggs)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, r := range tab.Rows() {
				if len(r) != nCols {
					t.Errorf("malformed row: %v", r)
					return
				}
			}
			tab.Len()
			tab.Stats()
		}
	}()

	var wg sync.WaitGroup
	var inserts atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Skewed keyspace: low ids are hot, so some groups grow
				// large while cold ones churn through eviction.
				k := (w*perG + i) % keys
				if i%3 == 0 {
					k %= 4
				}
				if err := tab.Insert(queryObj(fmt.Sprintf("sig%03d", k), float64(i))); err != nil {
					t.Error(err)
					return
				}
				inserts.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerDone.Wait()

	if got := tab.Len(); got > maxRows {
		t.Errorf("Len = %d, want <= %d", got, maxRows)
	}
	rows := tab.Rows()
	if len(rows) > maxRows {
		t.Errorf("Rows returned %d rows, want <= %d", len(rows), maxRows)
	}
	nIdx := tab.ColumnIndex("N")
	var liveCount int64
	for i, r := range rows {
		liveCount += r[nIdx].Int()
		// Rows() materializes in spec order: most important (highest N)
		// first.
		if i > 0 && r[nIdx].Int() > rows[i-1][nIdx].Int() {
			t.Errorf("rows out of order at %d: %d after %d", i, r[nIdx].Int(), rows[i-1][nIdx].Int())
		}
	}
	total := inserts.Load()
	if evictedCount+liveCount != total {
		t.Errorf("count conservation broken: evicted %d + live %d != inserts %d",
			evictedCount, liveCount, total)
	}
	st := tab.Stats()
	if st.Inserts != total {
		t.Errorf("Stats.Inserts = %d, want %d", st.Inserts, total)
	}
	if st.Evictions != evictions {
		t.Errorf("Stats.Evictions = %d, callbacks saw %d", st.Evictions, evictions)
	}
	if st.GroupCount != tab.Len() {
		t.Errorf("Stats.GroupCount = %d, Len = %d", st.GroupCount, tab.Len())
	}
}

// TestConcurrentInsertUnbounded checks the no-global-lock fast path: on an
// unbounded table every distinct group survives and every observation is
// counted exactly once.
func TestConcurrentInsertUnbounded(t *testing.T) {
	const (
		writers = 8
		perG    = 2000
		keys    = 64
	)
	spec := durationSpec() // unbounded: no OrderBy, no MaxRows
	tab, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() {
		defer readerDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tab.Rows()
			tab.LookupByGetter(queryObj("sig007", 0))
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				sig := fmt.Sprintf("sig%03d", (w+i)%keys)
				if err := tab.Insert(queryObj(sig, float64(i%100))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerDone.Wait()

	if got := tab.Len(); got != keys {
		t.Errorf("Len = %d, want %d", got, keys)
	}
	nIdx := tab.ColumnIndex("N")
	var liveCount int64
	for _, r := range tab.Rows() {
		liveCount += r[nIdx].Int()
	}
	if want := int64(writers * perG); liveCount != want {
		t.Errorf("summed counts = %d, want %d", liveCount, want)
	}
	st := tab.Stats()
	if st.Evictions != 0 {
		t.Errorf("unbounded table evicted %d rows", st.Evictions)
	}
	if st.NewGroups != keys {
		t.Errorf("Stats.NewGroups = %d, want %d", st.NewGroups, keys)
	}
	if st.MemBytes <= 0 {
		t.Errorf("Stats.MemBytes = %d, want > 0", st.MemBytes)
	}
}

// TestResetDuringConcurrentInserts makes sure Reset is atomic against the
// insert path: after the dust settles the table is internally consistent
// (group count matches live rows, memory accounting is non-negative).
func TestResetDuringConcurrentInserts(t *testing.T) {
	tab, err := New(boundedCountSpec(32))
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if err := tab.Insert(queryObj(fmt.Sprintf("sig%02d", i%50), 1)); err != nil {
					t.Error(err)
					return
				}
				if w == 0 && i%200 == 199 {
					tab.Reset()
				}
			}
		}(w)
	}
	wg.Wait()

	if got, want := tab.Len(), len(tab.Rows()); got != want {
		t.Errorf("Len = %d but Rows has %d entries", got, want)
	}
	if mem := tab.Stats().MemBytes; mem < 0 {
		t.Errorf("MemBytes went negative: %d", mem)
	}
}

// liveMemBytes sums the recomputed size of every row still in the table.
func liveMemBytes(tab *Table) int64 {
	var n int64
	for i := range tab.shards {
		sh := &tab.shards[i]
		sh.mu.RLock()
		for _, r := range sh.groups {
			r.mu.Lock()
			n += r.memSize()
			r.mu.Unlock()
		}
		sh.mu.RUnlock()
	}
	return n
}

// TestConcurrentBoundedInsertMemAccounting pins the memory accounting of a
// bounded LAT under the eviction race: two writers insert distinct IDs
// into a 10-row table ordered by ID, so a freshly created row is often
// evicted by the other writer between its update and the update's
// accounting. Once inserts stop, MemBytes must equal the sum of the live
// rows' sizes and the group counters must balance.
func TestConcurrentBoundedInsertMemAccounting(t *testing.T) {
	const (
		writers = 2
		perG    = 20000
		maxRows = 10
	)
	tab, err := New(Spec{
		Name:    "Last_Queries",
		GroupBy: []string{"ID"},
		Aggs: []AggCol{
			{Func: Last, Attr: "Query_Text", Name: "Text"},
			{Func: Last, Attr: "Duration", Name: "Dur"},
		},
		OrderBy: []OrderKey{{Col: "ID", Desc: true}},
		MaxRows: maxRows,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := int64(i*writers + w)
				attrs := map[string]sqltypes.Value{
					"ID":         sqltypes.NewInt(id),
					"Query_Text": sqltypes.NewString(fmt.Sprintf("SELECT * FROM t WHERE id = %d", id)),
					"Duration":   sqltypes.NewFloat(float64(i % 100)),
				}
				if err := tab.Insert(func(attr string) (sqltypes.Value, bool) {
					v, ok := attrs[attr]
					return v, ok
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := tab.Stats()
	if st.GroupCount != maxRows || len(tab.Rows()) != maxRows {
		t.Errorf("GroupCount = %d, Rows = %d, want %d", st.GroupCount, len(tab.Rows()), maxRows)
	}
	if st.NewGroups-st.Evictions != int64(st.GroupCount) {
		t.Errorf("NewGroups %d - Evictions %d != GroupCount %d", st.NewGroups, st.Evictions, st.GroupCount)
	}
	if want := liveMemBytes(tab); st.MemBytes != want {
		t.Errorf("MemBytes = %d, live rows hold %d", st.MemBytes, want)
	}
}

// TestResetUnboundedAccounting races Reset against unbounded inserts,
// which take no ordering latch: a group created in a shard Reset has
// already swept must keep its memory and group-count accounting. Once
// the writers stop, MemBytes must equal the live rows' sizes and
// GroupCount the number of live rows. Several short trials make the
// interleaving that loses a new group's accounting likely to occur.
func TestResetUnboundedAccounting(t *testing.T) {
	const (
		trials  = 20
		writers = 2
		resets  = 200
		keys    = 8
	)
	for trial := 0; trial < trials; trial++ {
		tab, err := New(durationSpec())
		if err != nil {
			t.Fatal(err)
		}
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; !stop.Load(); i++ {
					if err := tab.Insert(queryObj(fmt.Sprintf("sig%d", (w+i)%keys), float64(i%10))); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		for i := 0; i < resets; i++ {
			// Reset only after fresh inserts, so every Reset races live
			// group creation.
			for seen := tab.Stats().Inserts; tab.Stats().Inserts == seen; {
				runtime.Gosched()
			}
			tab.Reset()
		}
		stop.Store(true)
		wg.Wait()

		st := tab.Stats()
		if want := liveMemBytes(tab); st.MemBytes != want {
			t.Fatalf("trial %d: MemBytes = %d, live rows hold %d", trial, st.MemBytes, want)
		}
		if rows := len(tab.Rows()); st.GroupCount != rows {
			t.Fatalf("trial %d: GroupCount = %d, Rows = %d", trial, st.GroupCount, rows)
		}
	}
}

// TestConcurrentOrderKeyProtocol exercises the ordering-key protocol: a
// row's ordering key changes only under the ordering latch, with the row
// latch held, immediately before its heap position is fixed. Writers
// update existing groups of a table ordered by SUM desc, so every update
// moves its row in the heap, while other writers create groups and force
// evictions. Once the writers stop, the heap must satisfy the heap
// property over the stored keys, every stored key must equal a fresh
// recomputation from the row, and the group accounting must balance.
func TestConcurrentOrderKeyProtocol(t *testing.T) {
	const (
		maxRows  = 16
		hot      = 8
		updaters = 2
		creators = 2
		perG     = 3000
	)
	tab, err := New(Spec{
		Name:    "Busiest",
		GroupBy: []string{"K"},
		Aggs: []AggCol{
			{Func: Sum, Attr: "W", Name: "Total"},
			{Func: Count, Name: "N"},
		},
		OrderBy: []OrderKey{{Col: "Total", Desc: true}},
		MaxRows: maxRows,
	})
	if err != nil {
		t.Fatal(err)
	}
	insert := func(k string, w int64) {
		if err := tab.Insert(obj(map[string]sqltypes.Value{
			"K": sqltypes.NewString(k), "W": sqltypes.NewInt(w),
		})); err != nil {
			t.Error(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < updaters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				insert(fmt.Sprintf("hot%d", (i+g)%hot), int64(i%7+1))
			}
		}(g)
	}
	for g := 0; g < creators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				insert(fmt.Sprintf("new%d-%d", g, i), int64(i%5+1))
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	tab.orderMu.Lock()
	defer tab.orderMu.Unlock()
	rows := tab.order.rows
	if len(rows) != maxRows {
		t.Fatalf("heap holds %d rows, want %d", len(rows), maxRows)
	}
	for i, r := range rows {
		if r.heapIdx != i {
			t.Fatalf("row at heap slot %d records heapIdx %d", i, r.heapIdx)
		}
		if i > 0 && lessImportant(tab.spec.OrderBy, r, rows[(i-1)/2]) {
			t.Fatalf("heap property violated at slot %d: child %v is less important than parent %v",
				i, r.orderKey, rows[(i-1)/2].orderKey)
		}
		sh := shardFor(tab, r.key)
		sh.mu.RLock()
		inMap := sh.groups[r.key] == r
		sh.mu.RUnlock()
		if !inMap {
			t.Fatalf("heap row %q is not its group's row", r.key)
		}
		r.mu.Lock()
		stored := append([]sqltypes.Value(nil), r.orderKey...)
		tab.orderKeyLocked(r, tab.now())
		fresh := r.orderKey
		r.mu.Unlock()
		for j := range fresh {
			if sqltypes.Compare(stored[j], fresh[j]) != 0 {
				t.Fatalf("row %q: stored ordering key %v, recomputed %v", r.key, stored, fresh)
			}
		}
	}
	st := tab.Stats()
	if st.NewGroups-st.Evictions != int64(st.GroupCount) || st.GroupCount != maxRows {
		t.Fatalf("stats %+v: NewGroups - Evictions must equal GroupCount (%d)", st, maxRows)
	}
	if want := int64((updaters + creators) * perG); st.Inserts != want {
		t.Fatalf("%d inserts counted, want %d", st.Inserts, want)
	}
}
