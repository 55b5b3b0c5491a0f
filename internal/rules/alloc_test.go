package rules

import (
	"fmt"
	"testing"

	"sqlcm/internal/lat"
	"sqlcm/internal/monitor"
	"sqlcm/internal/sqltypes"
	"sqlcm/internal/testutil"
)

// dispatchAllocs bounds what one Dispatch allocates besides its rules'
// work: the evaluation context it builds, plus one for the rehash a LAT
// shard map occasionally needs under insert/delete churn.
const dispatchAllocs = 2

// fig2Query is a Query object with every attribute the rules-fig2 LAT
// reads; tests bump its ID in place.
func fig2Query() *fakeObj {
	q := queryObj(0, "sig", 1.5)
	q.attrs["Physical_Signature"] = sqltypes.NewString("psig")
	q.attrs["Estimated_Cost"] = sqltypes.NewFloat(2.5)
	return q
}

// TestDispatchFig2Allocs is the Fig. 2 setup: Query.Commit dispatched to
// 100 one-atom rules, each inserting the query into its own 10-row LAT,
// so every firing creates a group and evicts one. A firing allocates at
// most the new group's key.
func TestDispatchFig2Allocs(t *testing.T) {
	if testutil.Instrumented {
		t.Skip("instrumented build (-race or sqlcmlockdep) allocates on every latch")
	}
	const nRules = 100
	env := newFakeEnv()
	e := NewEngine(env)
	cond, err := ParseCondition("Query.Duration >= 0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nRules; i++ {
		name := fmt.Sprintf("fig2_lat_%03d", i)
		tab, err := lat.New(lat.Spec{
			Name:    name,
			GroupBy: []string{"ID"},
			Aggs: []lat.AggCol{
				{Func: lat.Last, Attr: "Query_Text", Name: "Text"},
				{Func: lat.Last, Attr: "Duration", Name: "Dur"},
				{Func: lat.Last, Attr: "Logical_Signature", Name: "LSig"},
				{Func: lat.Last, Attr: "Physical_Signature", Name: "PSig"},
				{Func: lat.Last, Attr: "Estimated_Cost", Name: "Cost"},
			},
			OrderBy: []lat.OrderKey{{Col: "ID", Desc: true}},
			MaxRows: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		env.lats[name] = tab
		if err := e.AddRule(&Rule{
			Name: fmt.Sprintf("fig2_rule_%03d", i), Event: monitor.EvQueryCommit,
			Condition: cond, Actions: []Action{&InsertAction{LAT: name}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	q := fig2Query()
	objs := map[string]monitor.Object{monitor.ClassQuery: q}
	var id int64
	commit := func() {
		id++
		q.attrs["ID"] = sqltypes.NewInt(id)
		e.Dispatch(monitor.EvQueryCommit, objs)
	}
	for i := 0; i < 20; i++ { // fill the LATs and their free rows
		commit()
	}
	allocs := testing.AllocsPerRun(200, commit)
	if allocs > nRules+dispatchAllocs {
		t.Errorf("dispatch to %d rules allocates %.1f objects, want <= %d (1 per rule + %d)",
			nRules, allocs, nRules+dispatchAllocs, dispatchAllocs)
	}
	if st := e.Stats(); st.Fired != st.Evaluations || st.ActionErrs != 0 {
		t.Fatalf("stats %+v: every evaluation should fire without errors", st)
	}
}

// TestLATConditionAllocs: a condition over a LAT column allocates only the
// LAT row it materializes.
func TestLATConditionAllocs(t *testing.T) {
	if testutil.Instrumented {
		t.Skip("instrumented build (-race or sqlcmlockdep) allocates on every latch")
	}
	env := newFakeEnv()
	tab, err := lat.New(lat.Spec{
		Name:    "L",
		GroupBy: []string{"Logical_Signature"},
		Aggs:    []lat.AggCol{{Func: lat.Count, Name: "N"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	env.lats["L"] = tab
	q := fig2Query()
	if err := tab.Insert(q.Get); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(env)
	cond, err := ParseCondition("L.N > 0")
	if err != nil {
		t.Fatal(err)
	}
	fn, err := compileCond(cond)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{Objects: map[string]monitor.Object{monitor.ClassQuery: q}, Primary: q}
	allocs := testing.AllocsPerRun(1000, func() {
		if ok, err := e.runCond(fn, ctx); !ok || err != nil {
			t.Fatalf("L.N > 0 = %v, %v; want true", ok, err)
		}
	})
	if allocs != 1 {
		t.Errorf("LAT condition allocates %.2f objects, want 1 (the LAT row)", allocs)
	}
}
