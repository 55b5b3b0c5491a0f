package sqlcm

// Benchmarks regenerating the paper's evaluation artifacts, one family per
// table/figure (see DESIGN.md §3 for the experiment index):
//
//	E-SIG   BenchmarkSignature*          — §6.2.1 signature-computation cost
//	E-FIG2  BenchmarkRuleOverhead*       — Figure 2: per-query cost vs. rule
//	                                       count × condition complexity
//	E-FIG3  BenchmarkMonitoring*         — Figure 3: per-query cost of each
//	                                       monitoring approach
//	A-LAT   BenchmarkLATConcurrent*      — §6.1 LAT latching under stress
//	A-AGE   BenchmarkAgingAggregates     — §4.3 aging vs. plain aggregates
//	A-EVICT BenchmarkLATEviction*        — §4.3 bounded vs. unbounded LATs
//
// The full paper-shaped sweeps (absolute overhead percentages, accuracy
// counts) are produced by cmd/sqlcm-bench; these testing.B benchmarks give
// the per-operation costs behind them.

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sqlcm/internal/baseline"
	"sqlcm/internal/core"
	"sqlcm/internal/engine"
	"sqlcm/internal/event"
	"sqlcm/internal/harness"
	"sqlcm/internal/lat"
	"sqlcm/internal/monitor"
	"sqlcm/internal/plan"
	"sqlcm/internal/rules"
	"sqlcm/internal/signature"
	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
	"sqlcm/internal/workload"
)

// benchEngine opens an engine with a small TPC-H-style database.
func benchEngine(b *testing.B, lineitems int) *engine.Engine {
	b.Helper()
	eng, err := engine.Open(engine.Config{PoolPages: 2048})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	if _, err := workload.Setup(eng, workload.Config{
		Lineitems: lineitems, ShortQueries: 1, JoinQueries: 1, Seed: 1,
	}); err != nil {
		b.Fatal(err)
	}
	return eng
}

// ---------------------------------------------------------------------------
// E-SIG (§6.2.1): signature computation vs. optimization
// ---------------------------------------------------------------------------

func sigBenchPlans(b *testing.B, eng *engine.Engine, sql string) (plan.Logical, plan.Physical) {
	b.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		b.Fatal(err)
	}
	l, err := plan.BuildLogical(stmt, eng.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Optimize(l, eng.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	return l, p
}

const sigSimpleSQL = "SELECT l_quantity FROM lineitem WHERE l_id = 42"

const sigComplexSQL = `SELECT o.o_status, COUNT(*), SUM(l.l_extendedprice)
	FROM lineitem l
	JOIN orders o ON l.l_orderkey = o.o_orderkey
	JOIN part p ON l.l_partkey = p.p_partkey
	WHERE l.l_quantity > 10 AND o.o_totalprice > 1000
	GROUP BY o.o_status ORDER BY COUNT(*) DESC LIMIT 10`

func BenchmarkSignatureSimpleQuery(b *testing.B) {
	eng := benchEngine(b, 1000)
	l, p := sigBenchPlans(b, eng, sigSimpleSQL)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		signature.Logical(l)
		signature.Physical(p)
	}
}

func BenchmarkSignatureComplexQuery(b *testing.B) {
	eng := benchEngine(b, 1000)
	l, p := sigBenchPlans(b, eng, sigComplexSQL)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		signature.Logical(l)
		signature.Physical(p)
	}
}

// BenchmarkOptimizeSimpleQuery/Complex give the denominators of the
// paper's ratio.
func BenchmarkOptimizeSimpleQuery(b *testing.B) {
	eng := benchEngine(b, 1000)
	stmt, _ := sqlparser.Parse(sigSimpleSQL)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, _ := plan.BuildLogical(stmt, eng.Catalog())
		if _, err := plan.Optimize(l, eng.Catalog()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeComplexQuery(b *testing.B) {
	eng := benchEngine(b, 1000)
	stmt, _ := sqlparser.Parse(sigComplexSQL)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, _ := plan.BuildLogical(stmt, eng.Catalog())
		if _, err := plan.Optimize(l, eng.Catalog()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E-FIG2 (Figure 2): per-query cost under rule load
// ---------------------------------------------------------------------------

// benchFig2 measures the per-query cost of a single-row select with
// nRules × nConds monitoring attached (0 rules = the engine baseline).
// Each rule's LAT is the one of the rules-fig2 workload (fig2LAT in
// perfbench/workloads.go): the last 10 queries with five LAST columns, so
// the per-rule work here matches the repository benchmark's.
func benchFig2(b *testing.B, nRules, nConds int) {
	eng := benchEngine(b, 5000)
	if nRules > 0 {
		s := core.Attach(eng, core.Options{})
		b.Cleanup(func() { s.Detach() })
		for i := 0; i < nRules; i++ {
			spec := lat.Spec{
				Name:    fmt.Sprintf("b_lat_%04d", i),
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
			}
			if _, err := s.DefineLAT(spec); err != nil {
				b.Fatal(err)
			}
			cond := "Query.Duration >= 0"
			for c := 1; c < nConds; c++ {
				cond += " AND Query.ID > 0"
			}
			if _, err := s.NewRule(fmt.Sprintf("r%04d", i), "Query.Commit", cond,
				&rules.InsertAction{LAT: spec.Name}); err != nil {
				b.Fatal(err)
			}
		}
	}
	sess := eng.NewSession("bench", "fig2")
	params := map[string]sqltypes.Value{"key": sqltypes.NewInt(1)}
	if _, err := sess.Exec("SELECT l_quantity FROM lineitem WHERE l_id = @key", params); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		params["key"] = sqltypes.NewInt(int64(i%5000 + 1))
		if _, err := sess.Exec("SELECT l_quantity FROM lineitem WHERE l_id = @key", params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRuleOverheadNoRules(b *testing.B)          { benchFig2(b, 0, 0) }
func BenchmarkRuleOverhead100Rules1Cond(b *testing.B)    { benchFig2(b, 100, 1) }
func BenchmarkRuleOverhead100Rules20Conds(b *testing.B)  { benchFig2(b, 100, 20) }
func BenchmarkRuleOverhead1000Rules1Cond(b *testing.B)   { benchFig2(b, 1000, 1) }
func BenchmarkRuleOverhead1000Rules20Conds(b *testing.B) { benchFig2(b, 1000, 20) }

// ---------------------------------------------------------------------------
// E-FIG3 (Figure 3): per-query cost of each monitoring approach
// ---------------------------------------------------------------------------

func benchPointSelects(b *testing.B, eng *engine.Engine) {
	sess := eng.NewSession("bench", "fig3")
	params := map[string]sqltypes.Value{"key": sqltypes.NewInt(1)}
	if _, err := sess.Exec("SELECT l_quantity FROM lineitem WHERE l_id = @key", params); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		params["key"] = sqltypes.NewInt(int64(i%5000 + 1))
		if _, err := sess.Exec("SELECT l_quantity FROM lineitem WHERE l_id = @key", params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonitoringNone(b *testing.B) {
	eng := benchEngine(b, 5000)
	benchPointSelects(b, eng)
}

func BenchmarkMonitoringSQLCMTopK(b *testing.B) {
	eng := benchEngine(b, 5000)
	s := core.Attach(eng, core.Options{})
	b.Cleanup(func() { s.Detach() })
	if _, err := s.DefineLAT(lat.Spec{
		Name:    "TopQ",
		GroupBy: []string{"Query_Text"},
		Aggs:    []lat.AggCol{{Func: lat.Max, Attr: "Duration", Name: "Duration"}},
		OrderBy: []lat.OrderKey{{Col: "Duration", Desc: true}},
		MaxRows: 10,
	}); err != nil {
		b.Fatal(err)
	}
	if _, err := s.NewRule("topq", "Query.Commit", "", &rules.InsertAction{LAT: "TopQ"}); err != nil {
		b.Fatal(err)
	}
	benchPointSelects(b, eng)
}

func BenchmarkMonitoringQueryLogging(b *testing.B) {
	eng := benchEngine(b, 5000)
	logger, err := baseline.NewQueryLogger(eng, "query_log")
	if err != nil {
		b.Fatal(err)
	}
	eng.SetHooks(logger)
	b.Cleanup(func() { eng.SetHooks(nil) })
	benchPointSelects(b, eng)
}

func BenchmarkMonitoringPullHistory(b *testing.B) {
	eng := benchEngine(b, 5000)
	rec := baseline.NewHistoryRecorder(eng)
	eng.SetHooks(rec)
	hp := baseline.NewHistoryPoller(rec, 10*time.Millisecond)
	hp.Start()
	b.Cleanup(func() {
		hp.Stop()
		eng.SetHooks(nil)
		rec.Drain()
	})
	benchPointSelects(b, eng)
}

// ---------------------------------------------------------------------------
// A-LAT (§6.1): LAT latching under concurrent insert stress
// ---------------------------------------------------------------------------

func benchLATConcurrent(b *testing.B, goroutines int) {
	table, err := lat.New(lat.Spec{
		Name:    "conc",
		GroupBy: []string{"Sig"},
		Aggs: []lat.AggCol{
			{Func: lat.Count, Name: "N"},
			{Func: lat.Avg, Attr: "Dur", Name: "AvgD"},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.SetParallelism(goroutines)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			sig := sqltypes.NewInt(int64(i % 64))
			dur := sqltypes.NewFloat(float64(i % 100))
			table.Insert(func(attr string) (sqltypes.Value, bool) { //nolint:errcheck
				switch attr {
				case "Sig":
					return sig, true
				case "Dur":
					return dur, true
				}
				return sqltypes.Null, false
			})
		}
	})
}

func BenchmarkLATConcurrent1(b *testing.B) { benchLATConcurrent(b, 1) }
func BenchmarkLATConcurrent4(b *testing.B) { benchLATConcurrent(b, 4) }
func BenchmarkLATConcurrent8(b *testing.B) { benchLATConcurrent(b, 8) }

// ---------------------------------------------------------------------------
// A-AGE (§4.3): aging vs. plain aggregates
// ---------------------------------------------------------------------------

func benchLATInsert(b *testing.B, aging bool) {
	spec := lat.Spec{
		Name:    "age",
		GroupBy: []string{"Sig"},
		Aggs: []lat.AggCol{
			{Func: lat.Avg, Attr: "Dur", Name: "AvgD", Aging: aging},
			{Func: lat.Count, Attr: "Dur", Name: "N", Aging: aging},
		},
	}
	if aging {
		spec.AgingWindow = time.Minute
		spec.AgingBlock = time.Second
	}
	table, err := lat.New(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig := sqltypes.NewInt(int64(i % 100))
		dur := sqltypes.NewFloat(float64(i))
		table.Insert(func(attr string) (sqltypes.Value, bool) { //nolint:errcheck
			switch attr {
			case "Sig":
				return sig, true
			case "Dur":
				return dur, true
			}
			return sqltypes.Null, false
		})
	}
}

func BenchmarkPlainAggregates(b *testing.B) { benchLATInsert(b, false) }
func BenchmarkAgingAggregates(b *testing.B) { benchLATInsert(b, true) }

// ---------------------------------------------------------------------------
// A-EVICT (§4.3): insert cost at capacity (heap eviction) vs. unbounded
// ---------------------------------------------------------------------------

func benchLATEviction(b *testing.B, maxRows int) {
	spec := lat.Spec{
		Name:    "evict",
		GroupBy: []string{"ID"},
		Aggs:    []lat.AggCol{{Func: lat.Max, Attr: "Dur", Name: "Dur"}},
	}
	if maxRows > 0 {
		spec.OrderBy = []lat.OrderKey{{Col: "Dur", Desc: true}}
		spec.MaxRows = maxRows
	}
	table, err := lat.New(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := sqltypes.NewInt(int64(i))
		dur := sqltypes.NewFloat(float64(i % 1000))
		table.Insert(func(attr string) (sqltypes.Value, bool) { //nolint:errcheck
			switch attr {
			case "ID":
				return id, true
			case "Dur":
				return dur, true
			}
			return sqltypes.Null, false
		})
	}
}

func BenchmarkLATEvictionBounded100(b *testing.B) { benchLATEviction(b, 100) }
func BenchmarkLATEvictionUnbounded(b *testing.B)  { benchLATEviction(b, 0) }

// ---------------------------------------------------------------------------
// End-to-end harness smoke benchmarks (tiny scale; the full sweeps live in
// cmd/sqlcm-bench)
// ---------------------------------------------------------------------------

func BenchmarkHarnessSignatureTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunSignatureOverhead(100); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// A-PAR: hot-path scaling benchmarks. Each exercises one sharded/lock-free
// structure from b.RunParallel so throughput can be compared across
// -cpu values; on >= 4 cores the sharded paths should scale near-linearly
// where the seed's single-mutex versions flatlined.
// ---------------------------------------------------------------------------

// nullEnv is a rules.Env that does nothing: dispatch benchmarks measure
// index lookup + condition evaluation, not action side effects.
type nullEnv struct{}

func (nullEnv) LAT(string) (*lat.Table, bool) { return nil, false }
func (nullEnv) Persist(string, []string, []sqltypes.Kind, []sqltypes.Value) error {
	return nil
}
func (nullEnv) SendMail(string, string) error             { return nil }
func (nullEnv) RunExternal(string) error                  { return nil }
func (nullEnv) CancelQuery(int64) bool                    { return false }
func (nullEnv) SetTimer(string, time.Duration, int) error { return nil }
func (nullEnv) ActiveQueryObjects() []monitor.Object      { return nil }
func (nullEnv) BlockPairObjects() [][2]monitor.Object     { return nil }

// nopAction fires without side effects.
type nopAction struct{}

func (nopAction) Run(rules.Env, *rules.Ctx) error { return nil }
func (nopAction) Describe() string                { return "nop" }

// BenchmarkEventDispatchParallel pushes Query.Commit events through the
// event bus into the rule engine's copy-on-write index from all procs.
// The read side takes zero locks, so this should scale with cores.
func BenchmarkEventDispatchParallel(b *testing.B) {
	e := rules.NewEngine(nullEnv{})
	cond, err := rules.ParseCondition("Query.Duration >= 0")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := e.AddRule(&rules.Rule{
			Name:      fmt.Sprintf("r%02d", i),
			Event:     monitor.EvQueryCommit,
			Condition: cond,
			Actions:   []rules.Action{nopAction{}},
		}); err != nil {
			b.Fatal(err)
		}
	}
	bus := event.NewBus(e)
	qi := &engine.QueryInfo{ID: 1, User: "bench", App: "bench", Text: "SELECT 1"}
	obj := monitor.NewQueryObject(qi, &monitor.Sigs{})
	obj.DurationAt = time.Millisecond
	objs := map[string]monitor.Object{monitor.ClassQuery: obj}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			bus.Dispatch(monitor.EvQueryCommit, objs)
		}
	})
	if bus.Total() != int64(b.N) {
		b.Fatalf("bus counted %d events, want %d", bus.Total(), b.N)
	}
}

// benchLATObserveParallel inserts into an unbounded striped LAT from all
// procs. hot=false gives every goroutine its own key range (different
// stripes, near-zero latch contention); hot=true forces every insert onto
// one group so all procs fight over a single row latch.
func benchLATObserveParallel(b *testing.B, hot bool) {
	table, err := lat.New(lat.Spec{
		Name:    "par",
		GroupBy: []string{"Sig"},
		Aggs: []lat.AggCol{
			{Func: lat.Count, Name: "N"},
			{Func: lat.Avg, Attr: "Dur", Name: "AvgD"},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	var nextRange atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		base := nextRange.Add(1) << 8
		i := 0
		for pb.Next() {
			i++
			key := int64(0) // hot: all procs hammer one group
			if !hot {
				key = base + int64(i%256) // distinct per-goroutine key range
			}
			sig := sqltypes.NewInt(key)
			dur := sqltypes.NewFloat(float64(i % 100))
			table.Insert(func(attr string) (sqltypes.Value, bool) { //nolint:errcheck
				switch attr {
				case "Sig":
					return sig, true
				case "Dur":
					return dur, true
				}
				return sqltypes.Null, false
			})
		}
	})
}

func BenchmarkLATObserveParallel(b *testing.B) {
	b.Run("DistinctKeys", func(b *testing.B) { benchLATObserveParallel(b, false) })
	b.Run("HotKey", func(b *testing.B) { benchLATObserveParallel(b, true) })
}

// BenchmarkSigCacheParallel hits the sharded signature cache from all
// procs over a working set of pre-optimized plans (all hits after the
// first round; the interesting number is lookup throughput).
func BenchmarkSigCacheParallel(b *testing.B) {
	eng := benchEngine(b, 200)
	const plans = 32
	infos := make([]*engine.QueryInfo, plans)
	for i := range infos {
		sql := fmt.Sprintf("SELECT l_quantity FROM lineitem WHERE l_id = %d", i+1)
		l, p := sigBenchPlans(b, eng, sql)
		infos[i] = &engine.QueryInfo{Logical: l, Physical: p}
	}
	c := monitor.NewSigCache()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			c.For(infos[i%plans])
		}
	})
	// Every plan is computed at most once no matter how many procs raced.
	if n := c.Computes(); n > plans {
		b.Fatalf("Computes = %d, want <= %d", n, plans)
	}
}
