package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"sqlcm/internal/event"
	"sqlcm/internal/loadgen"
	"sqlcm/internal/lock"
	"sqlcm/internal/monitor"
	"sqlcm/internal/outbox"
	"sqlcm/internal/plan"
	"sqlcm/internal/rules"
	"sqlcm/internal/server"
	"sqlcm/internal/sqlparser"
	"sqlcm/internal/storage"
)

// Failure classes, counted against attempted operations: the classes of
// internal/loadgen, plus deadlock.
const (
	classTimeout = iota
	classReset
	classReject
	classShed
	classDeadlock
	classOther
	numClasses
)

var classNames = [numClasses]string{"timeout", "reset", "reject", "shed", "deadlock", "other"}

// loadgenClass maps loadgen's failure classes onto the ones above.
var loadgenClass = map[loadgen.ErrClass]int{
	loadgen.ClassTimeout: classTimeout,
	loadgen.ClassReset:   classReset,
	loadgen.ClassReject:  classReject,
	loadgen.ClassShed:    classShed,
	loadgen.ClassOther:   classOther,
}

// classify sorts a failed operation's error into a failure class. Lock
// deadlocks and lock timeouts, embedded or reported over the wire, are
// told apart here; everything else follows loadgen.Classify.
func classify(err error) int {
	msg := err.Error()
	var we *server.WireError
	if errors.As(err, &we) {
		msg = we.Message
	}
	switch {
	case errors.Is(err, lock.ErrDeadlock), strings.Contains(msg, lock.ErrDeadlock.Error()):
		return classDeadlock
	case errors.Is(err, lock.ErrTimeout), strings.Contains(msg, lock.ErrTimeout.Error()):
		return classTimeout
	}
	return loadgenClass[loadgen.Classify(err)]
}

func failureLines(fails [numClasses]int64, attempted int64) []metric {
	out := make([]metric, numClasses)
	for c, n := range fails {
		out[c] = metric{name: "failures." + classNames[c], value: float64(n), unit: "count",
			note: fmt.Sprintf("of %d attempted operations", attempted), info: true}
	}
	return out
}

// counters is a snapshot of every layer's exported counters.
type counters struct {
	srv                           server.Stats
	rules                         rules.Stats
	latInserts, latEvicts, latMem int64
	events, shed                  int64
	boxEnqueued, boxShed          int64
	pool                          storage.PoolStats
	pruned, retained              int64
}

func snapshot(in *instance) counters {
	mon := in.db.Monitor()
	c := counters{
		rules:  mon.Rules().Stats(),
		events: mon.Bus().Total(),
		shed:   mon.Bus().ShedTotal(),
		pool:   in.db.Engine().Pool().Stats(),
	}
	if in.srv != nil {
		c.srv = in.srv.Stats()
	}
	for _, name := range mon.LATs() {
		if t, ok := mon.LAT(name); ok {
			s := t.Stats()
			c.latInserts += s.Inserts
			c.latEvicts += s.Evictions
			c.latMem += s.MemBytes
		}
	}
	box := mon.Outbox().Stats()
	c.boxEnqueued = box.Total(func(k outbox.KindStats) int64 { return k.Enqueued })
	c.boxShed = box.Total(func(k outbox.KindStats) int64 { return k.Shed })
	mv := in.db.Engine().MVCCStats()
	c.pruned, c.retained = mv.Pruned.Load(), mv.Retained.Load()
	return c
}

// newTracer builds the timing decorator around a fresh copy of the
// monitor's hooks: core keeps its own hook set unexported, so the same
// bus gets a new signature cache and transaction tracker.
func newTracer(in *instance, base time.Time) *tracer {
	sigs := monitor.NewSigCache()
	return &tracer{
		Hooks: event.NewHooks(in.db.Monitor().Bus(), sigs, monitor.NewTxnTracker()),
		sigs:  sigs,
		base:  base,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes the per-layer breakdown from the traced windows
// (spans) and the whole timed phase (counter deltas).
func layerMetrics(w *workloadDef, in *instance, tr *tracer, ph *timedPhase, before, after counters, drain time.Duration) []metric {
	loads := ph.loads
	var ops, committed int64
	var modeOps [2]int64
	var commits []int64 // txn commit spans, ns
	for _, l := range loads {
		for _, s := range l.samples {
			ops++
			if s.kind == kindWrite && s.ok {
				committed++
			}
			if s.window >= 0 && s.ok {
				modeOps[s.window%2]++
			}
			if s.window >= 0 && s.window%2 == 1 && s.kind == kindWrite && s.ok {
				commits = append(commits, s.commit)
			}
		}
	}
	tracedOps := float64(modeOps[1])
	perOp := func(d int64) float64 { return ratio(float64(d), float64(ops)) }

	rec := tr.collect()
	stmts := rec.stmts
	var engineNs, startHooks, dispatch, chains []int64
	var blockedSum, engineSum, dispatchSum int64
	var hits int
	for _, s := range stmts {
		engineNs = append(engineNs, s.end-s.start)
		engineSum += s.end - s.start
		blockedSum += s.blocked
		startHooks = append(startHooks, s.startHook)
		dispatch = append(dispatch, s.end-s.commitAt)
		dispatchSum += s.end - s.commitAt
		if s.planHit {
			hits++
		}
		if s.typ == "SELECT" {
			chains = append(chains, s.maxChain)
		}
		if s.autocommit {
			commits = append(commits, s.commitAt-s.execEnd)
		}
	}
	engineUs, dispatchUs := sortedUs(engineNs), sortedUs(dispatch)
	commitUs := sortedUs(commits)
	chainF := make([]float64, len(chains))
	for i, c := range chains {
		chainF[i] = float64(c)
	}
	sort.Float64s(chainF)

	evals := float64(after.rules.Evaluations - before.rules.Evaluations)
	evalsPerOp := ratio(evals, float64(ops))
	hitsD := after.pool.Hits - before.pool.Hits
	missD := after.pool.Misses - before.pool.Misses

	parse, optimize := timeCompile(in, w.texts(in))

	var commitMax float64
	if len(commitUs) > 0 {
		commitMax = commitUs[len(commitUs)-1]
	}
	srvSelf, srvNote := 0.0, "no wire layer on this workload"
	if w.wire {
		self := sortedUs(serverSelf(loads, stmts))
		srvSelf, srvNote = percentile(self, 50), fmt.Sprintf("client span minus engine span, read operations, n=%d", len(self))
	}
	// Throughput per CPU-second: the host's CPU steal moves wall-clock
	// throughput far more than tracing does.
	overhead := ratio(ratio(float64(modeOps[1]), float64(ph.modeCPU[1])), ratio(float64(modeOps[0]), float64(ph.modeCPU[0])))
	wallOverhead := ratio(ratio(float64(modeOps[1]), float64(ph.modeNs[1])), ratio(float64(modeOps[0]), float64(ph.modeNs[0])))
	return []metric{
		{name: "server.self_us_p50", value: srvSelf, unit: "us", note: srvNote},
		{name: "server.errors_per_op", value: perOp(after.srv.Errors - before.srv.Errors), unit: "count"},
		{name: "server.shed_per_op", value: perOp(after.srv.Shed - before.srv.Shed), unit: "count"},
		{name: "engine.span_us_p50", value: percentile(engineUs, 50), unit: "us", note: fmt.Sprintf("QueryInfo.StartTime to QueryCommit return, n=%d", len(engineUs))},
		{name: "engine.span_us_p99", value: percentile(engineUs, 99), unit: "us"},
		{name: "engine.plan_cache_hit_ratio", value: ratio(float64(hits), float64(len(stmts))), unit: "ratio"},
		{name: "engine.plan_cache_entries", value: float64(in.db.Engine().PlanCacheSize()), unit: "count"},
		{name: "plan.parse_us_p50", value: percentile(sortedUs(parse), 50), unit: "us", note: fmt.Sprintf("sqlparser.Parse, n=%d", len(parse))},
		{name: "plan.optimize_us_p50", value: percentile(sortedUs(optimize), 50), unit: "us", note: "plan.BuildLogical + plan.Optimize"},
		{name: "signature.computes_per_op", value: ratio(float64(tr.sigs.Computes()), tracedOps), unit: "count",
			note: "the decorator's own SigCache, traced windows"},
		{name: "signature.hook_us_p50", value: percentile(sortedUs(startHooks), 50), unit: "us", note: "QueryStart + QueryCompiled"},
		{name: "lock.waits_per_op", value: ratio(float64(rec.blockedN), tracedOps), unit: "count"},
		{name: "lock.wait_us_p99", value: percentile(sortedUs(rec.waits), 99), unit: "us", note: fmt.Sprintf("n=%d", len(rec.waits))},
		{name: "lock.wait_share", value: ratio(float64(blockedSum), float64(engineSum)), unit: "ratio", note: "sum of TimeBlocked over sum of engine spans"},
		{name: "txn.commit_us_p99", value: percentile(commitUs, 99), unit: "us", note: fmt.Sprintf("autocommit: execution end to QueryCommit; explicit: COMMIT request; n=%d", len(commitUs))},
		{name: "txn.commit_us_max", value: commitMax, unit: "us"},
		{name: "storage.versions_pruned_per_commit", value: ratio(float64(after.pruned-before.pruned), float64(committed)), unit: "count", note: fmt.Sprintf("%d write transactions committed", committed)},
		{name: "storage.versions_retained", value: float64(after.retained), unit: "count"},
		{name: "storage.chain_len_p99", value: percentile(chainF, 99), unit: "count", note: "QueryInfo.MaxChain on reads"},
		{name: "storage.pool_hit_ratio", value: ratio(float64(hitsD), float64(hitsD+missD)), unit: "ratio", note: fmt.Sprintf("%d fetches; MVCC reads bypass the pool", hitsD+missD)},
		{name: "storage.pool_evictions_per_op", value: perOp(after.pool.Evictions - before.pool.Evictions), unit: "count"},
		{name: "monitor.dispatch_us_p50", value: percentile(dispatchUs, 50), unit: "us", note: "QueryCommit hook"},
		{name: "monitor.dispatch_us_p99", value: percentile(dispatchUs, 99), unit: "us"},
		{name: "monitor.dispatch_us_per_rule", value: ratio(ratio(float64(dispatchSum), tracedOps)/1e3, evalsPerOp), unit: "us",
			note: "QueryCommit hook time per operation over rule evaluations per operation"},
		{name: "monitor.blocked_hook_us_p50", value: percentile(sortedUs(rec.blockHooks), 50), unit: "us", note: fmt.Sprintf("n=%d", len(rec.blockHooks))},
		{name: "rules.evaluations_per_op", value: evalsPerOp, unit: "count"},
		{name: "rules.fired_ratio", value: ratio(float64(after.rules.Fired-before.rules.Fired), evals), unit: "ratio"},
		{name: "lat.inserts_per_op", value: perOp(after.latInserts - before.latInserts), unit: "count"},
		{name: "lat.evictions_per_op", value: perOp(after.latEvicts - before.latEvicts), unit: "count"},
		{name: "lat.mem_bytes", value: float64(after.latMem), unit: "bytes"},
		{name: "event.events_per_op", value: perOp(after.events - before.events), unit: "count"},
		{name: "event.shed", value: float64(after.shed - before.shed), unit: "count"},
		{name: "outbox.enqueued_per_op", value: perOp(after.boxEnqueued - before.boxEnqueued), unit: "count"},
		{name: "outbox.shed", value: float64(after.boxShed - before.boxShed), unit: "count"},
		{name: "outbox.drain_s", value: drain.Seconds(), unit: "s", note: "Flush after the load"},
		{name: "trace.overhead_ratio", value: overhead, unit: "ratio",
			note: fmt.Sprintf("traced over untraced operations per CPU-second (%d ops in %.2f CPU-s vs %d in %.2f CPU-s); per wall second: %.3f",
				modeOps[1], float64(ph.modeCPU[1])/1e9, modeOps[0], float64(ph.modeCPU[0])/1e9, wallOverhead)},
	}
}

// serverSelf joins each traced read operation with the engine spans of
// its connection that lie inside it (a closed-loop connection has one
// request in flight) and returns the client span's self time.
func serverSelf(loads []*connLoad, stmts []stmtSpan) []int64 {
	byApp := map[string][]span{}
	for _, s := range stmts {
		byApp[s.app] = append(byApp[s.app], s.span())
	}
	var out []int64
	for i, l := range loads {
		eng := byApp[fmt.Sprintf("conn-%d", i)]
		sort.Slice(eng, func(a, b int) bool { return eng[a].start < eng[b].start })
		j := 0
		for _, s := range l.samples {
			if s.window < 0 || s.window%2 == 0 || !s.ok || s.kind != kindRead {
				continue
			}
			op := span{s.start, s.end}
			for j < len(eng) && eng[j].start < op.start {
				j++
			}
			k := j
			for k < len(eng) && eng[k].start < op.end {
				k++
			}
			if k > j {
				out = append(out, selfTime(op, eng[j:k]))
			}
		}
	}
	return out
}

// compileSink keeps the timed compile results alive.
var compileSink plan.Physical

// timeCompile times sqlparser.Parse and plan.BuildLogical+plan.Optimize
// on the run's own statement texts, after the load.
func timeCompile(in *instance, texts []string) (parse, optimize []int64) {
	if len(texts) == 0 {
		return nil, nil
	}
	cat := in.db.Engine().Catalog()
	reps := max(1, 500/len(texts))
	for r := 0; r < reps; r++ {
		for _, sql := range texts {
			t0 := time.Now()
			stmt, err := sqlparser.Parse(sql)
			t1 := time.Now()
			if err != nil {
				continue
			}
			l, err := plan.BuildLogical(stmt, cat)
			if err != nil {
				continue
			}
			p, err := plan.Optimize(l, cat)
			t2 := time.Now()
			if err != nil {
				continue
			}
			compileSink = p
			parse = append(parse, t1.Sub(t0).Nanoseconds())
			optimize = append(optimize, t2.Sub(t1).Nanoseconds())
		}
	}
	return parse, optimize
}

// writeTrace writes the run's spans, kept in memory until now, to
// .bench_build/trace/<workload>.tsv under the working directory.
func writeTrace(name string, loads []*connLoad, tr *tracer) {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: trace not written:", err)
		return
	}
	f, err := os.Create(filepath.Join(dir, name+".tsv"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: trace not written:", err)
		return
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "# client\tconn\tkind\tstart_ns\tend_ns\twindow\tok")
	fmt.Fprintln(bw, "# stmt\tapp\tquery_id\ttype\tstart_ns\texec_end_ns\tcommit_at_ns\tend_ns\tstart_hook_ns\tblocked_ns")
	for i, l := range loads {
		for _, s := range l.samples {
			fmt.Fprintf(bw, "client\t%d\t%d\t%d\t%d\t%d\t%t\n", i, s.kind, s.start, s.end, s.window, s.ok)
		}
	}
	for _, s := range tr.collect().stmts {
		fmt.Fprintf(bw, "stmt\t%s\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n", s.app, s.qid, s.typ, s.start, s.execEnd, s.commitAt, s.end, s.startHook, s.blocked)
	}
	err = bw.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: trace not written:", err)
	}
}
