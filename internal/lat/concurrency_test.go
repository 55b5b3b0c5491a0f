package lat

import (
	"fmt"
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
