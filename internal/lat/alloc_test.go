package lat

import (
	"testing"

	"sqlcm/internal/sqltypes"
	"sqlcm/internal/testutil"
)

// allocTable builds the rules-fig2 LAT shape (group by ID, LAST columns,
// newest IDs kept) over ids 1..10, bounded to 10 rows or unbounded, and
// returns it with a getter whose ID the caller sets through *id.
func allocTable(t *testing.T, maxRows int) (*Table, AttrGetter, *int64) {
	t.Helper()
	if testutil.Instrumented {
		t.Skip("instrumented build (-race or sqlcmlockdep) allocates on every latch")
	}
	tab, err := New(Spec{
		Name:    "allocs",
		GroupBy: []string{"ID"},
		Aggs: []AggCol{
			{Func: Last, Attr: "Query_Text", Name: "Text"},
			{Func: Last, Attr: "Duration", Name: "Dur"},
			{Func: Count, Name: "N"},
		},
		OrderBy: []OrderKey{{Col: "ID", Desc: true}},
		MaxRows: maxRows,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := new(int64)
	text := sqltypes.NewString("SELECT l_quantity FROM lineitem WHERE l_id = @k")
	get := func(attr string) (sqltypes.Value, bool) {
		switch attr {
		case "ID":
			return sqltypes.NewInt(*id), true
		case "Query_Text":
			return text, true
		case "Duration":
			return sqltypes.NewFloat(1.25), true
		}
		return sqltypes.Null, false
	}
	for *id = 1; *id <= 10; *id++ {
		if err := tab.Insert(get); err != nil {
			t.Fatal(err)
		}
	}
	return tab, get, id
}

// TestInsertExistingGroupAllocs: updating an existing group allocates
// nothing, bounded (heap repositioning included) or not.
func TestInsertExistingGroupAllocs(t *testing.T) {
	for _, maxRows := range []int{10, 0} {
		tab, get, id := allocTable(t, maxRows)
		n := 0
		allocs := testing.AllocsPerRun(1000, func() {
			n++
			*id = int64(n%10 + 1)
			if err := tab.Insert(get); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("MaxRows=%d: existing-group insert allocates %.2f objects, want 0", maxRows, allocs)
		}
		if st := tab.Stats(); st.NewGroups != 10 {
			t.Fatalf("MaxRows=%d: %d groups created, want 10", maxRows, st.NewGroups)
		}
	}
}

// TestInsertNewGroupEvictAllocs: an insert that creates a group and evicts
// the least important one allocates at most the new group's key: the
// evicted row is reused.
func TestInsertNewGroupEvictAllocs(t *testing.T) {
	tab, get, id := allocTable(t, 10)
	allocs := testing.AllocsPerRun(1000, func() {
		*id++
		if err := tab.Insert(get); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("new-group insert with eviction allocates %.2f objects, want <= 1", allocs)
	}
	st := tab.Stats()
	if st.GroupCount != 10 || st.NewGroups-st.Evictions != 10 {
		t.Fatalf("stats %+v: want 10 groups with every creation past the tenth evicting one", st)
	}
}

// TestLookupByGetterAllocs: a lookup allocates only the materialized row.
func TestLookupByGetterAllocs(t *testing.T) {
	tab, get, id := allocTable(t, 10)
	*id = 5
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := tab.LookupByGetter(get); !ok {
			t.Fatal("group 5 missing")
		}
	})
	if allocs != 1 {
		t.Errorf("lookup allocates %.2f objects, want 1 (the row)", allocs)
	}
}
