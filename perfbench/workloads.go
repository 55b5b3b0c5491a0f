package main

import (
	"fmt"
	"math/rand"
	"time"

	"sqlcm"
	"sqlcm/internal/engine"
	"sqlcm/internal/server"
	"sqlcm/internal/sqltypes"
	"sqlcm/internal/workload"
)

// Data sizes shared by every workload (TPC-H-style schema of
// internal/workload). The heap is about 460 pages of 8 KiB.
const (
	lineitems = 50_000
	orders    = 12_500
	parts     = 2_000

	joinEvery = 200   // adhoc-topk: one join per this many statements
	joinSpan  = 1_500 // adhoc-topk: lineitem keys (and result rows) per join

	fig2Rules = 100 // rules-fig2: rules, each with its own 10-row LAT
	hotPool   = 256 // hot-update: buffer-pool pages, below the heap size
	zipfSkew  = 1.1 // hot-update: skew of the hot keys
)

type opKind uint8

const (
	kindRead opKind = iota
	kindWrite
)

// opResult is one client operation as the client saw it.
type opResult struct {
	kind   opKind
	stmts  int   // SELECT/UPDATE statements that completed (each fires Query.Commit)
	commit int64 // ns of the explicit COMMIT request (write transactions only)
	err    error
	wrong  string // non-empty when the reply was wrong
}

// client is one closed-loop connection: do sends one operation and
// returns only when its reply is in.
type client interface {
	do() opResult
	close()
}

// workloadDef describes one workload: how to set it up and drive it.
type workloadDef struct {
	name  string
	conns int
	wire  bool
	pool  int // buffer-pool pages; 0 keeps the engine default
	// install defines the LATs and rules; it runs after the data load.
	install func(db *sqlcm.DB) error
	// dial opens connection i of an instance.
	dial func(in *instance, i int, r *rand.Rand) (client, error)
	// check verifies the monitoring output after the load; it runs before
	// any other statement reaches the engine.
	check func(in *instance, t *totals) []string
	// texts returns statement texts of the run for the parse/plan timing.
	texts func(in *instance) []string
}

var workloads = []*workloadDef{
	{
		name: "adhoc-topk", conns: 2, wire: true,
		install: installAdhoc, dial: dialAdhoc, check: checkAdhoc, texts: adhocTexts,
	},
	{
		name: "hot-update", conns: 2, wire: true, pool: hotPool,
		install: installHot, dial: dialHot, check: checkHot, texts: hotTexts,
	},
	{
		name: "rules-fig2", conns: 1,
		install: installFig2, dial: dialFig2, check: checkFig2, texts: fig2Texts,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// instance is one set-up database with a workload's monitoring installed.
type instance struct {
	w    *workloadDef
	db   *sqlcm.DB
	srv  *server.Server // nil for embedded workloads
	seed int64

	initQty    float64 // hot-update: SUM(l_quantity) before the load
	firedBase  int64   // rules fired when the load starts
	adhocTexts []string
}

// totals are the client-side counts over the whole load, warm-up included.
type totals struct {
	stmts     int64 // statements that completed
	committed int64 // write transactions that committed
}

// setUp opens a database, loads the data, installs the rules and, for
// wire workloads, starts the server on loopback.
func setUp(w *workloadDef, seed int64) (*instance, error) {
	db, err := sqlcm.Open(sqlcm.Config{PoolPages: w.pool})
	if err != nil {
		return nil, err
	}
	in := &instance{w: w, db: db, seed: seed}
	if err := in.load(); err != nil {
		in.close() //nolint:errcheck // the load error is the one to report
		return nil, err
	}
	return in, nil
}

func (in *instance) load() error {
	cfg := workload.Config{Lineitems: lineitems, Orders: orders, Parts: parts, Seed: in.seed}
	if _, err := workload.Setup(in.db.Engine(), cfg); err != nil {
		return err
	}
	if in.w.name == "hot-update" {
		q, err := sumQuantity(in.db)
		if err != nil {
			return err
		}
		in.initQty = q
	}
	if err := in.w.install(in.db); err != nil {
		return fmt.Errorf("install rules: %w", err)
	}
	in.firedBase = in.db.Monitor().Rules().Stats().Fired
	if !in.w.wire {
		return nil
	}
	srv, err := server.New(server.Config{
		Addr:       "127.0.0.1:0",
		MaxConns:   in.w.conns + 2,
		NewSession: in.db.RemoteSession,
		Drain:      in.db.Flush,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	in.srv = srv
	return nil
}

// stopServer shuts the wire front-end down and waits for its connection
// goroutines; afterwards only embedded sessions reach the engine.
func (in *instance) stopServer() error {
	if in.srv == nil {
		return nil
	}
	err := in.srv.Shutdown(10 * time.Second)
	in.srv = nil
	return err
}

func (in *instance) close() error {
	err := in.stopServer()
	if cerr := in.db.Close(); err == nil {
		err = cerr
	}
	return err
}

func (in *instance) dialWire(i int) (*server.Client, error) {
	return server.Dial(in.srv.Addr().String(), server.ClientConfig{
		User: "bench", App: fmt.Sprintf("conn-%d", i), Timeout: 30 * time.Second,
	})
}

func sumQuantity(db *sqlcm.DB) (float64, error) {
	res, err := db.Session("bench", "check").Exec("SELECT SUM(l_quantity) FROM lineitem", nil)
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 {
		return 0, fmt.Errorf("SUM(l_quantity) returned %d rows", len(res.Rows))
	}
	return res.Rows[0][0].Float(), nil
}

// collectLAT is the per-template collect LAT every wire workload keeps.
var collectLAT = sqlcm.LATSpec{
	Name:    "collect",
	GroupBy: []string{"Logical_Signature"},
	Aggs: []sqlcm.AggCol{
		{Func: sqlcm.Count, Attr: "ID", Name: "N"},
		{Func: sqlcm.Avg, Attr: "Duration", Name: "Avg_Duration"},
	},
}

func installCollect(db *sqlcm.DB) error {
	if _, err := db.DefineLAT(collectLAT); err != nil {
		return err
	}
	_, err := db.NewRule("collect", "Query.Commit", "", &sqlcm.InsertAction{LAT: collectLAT.Name})
	return err
}

// checkCollect: the collect LAT's COUNT sums to the completed statements.
func checkCollect(in *instance, t *totals) []string {
	lt, ok := in.db.LAT(collectLAT.Name)
	if !ok {
		return []string{"collect LAT missing"}
	}
	col := lt.ColumnIndex("N")
	var sum int64
	for _, row := range lt.Rows() {
		sum += row[col].Int()
	}
	if sum != t.stmts {
		return []string{fmt.Sprintf("collect LAT counts %d statements, clients completed %d", sum, t.stmts)}
	}
	return nil
}

// ---------------------------------------------------------------------------
// adhoc-topk: §6.2 / Fig. 3 over the wire, mostly new statement texts.
// ---------------------------------------------------------------------------

func installAdhoc(db *sqlcm.DB) error {
	if err := installCollect(db); err != nil {
		return err
	}
	if _, err := db.DefineLAT(sqlcm.LATSpec{
		Name:    "top10",
		GroupBy: []string{"ID"},
		Aggs: []sqlcm.AggCol{
			{Func: sqlcm.Last, Attr: "Duration", Name: "Dur"},
			{Func: sqlcm.Last, Attr: "Query_Text", Name: "Text"},
		},
		OrderBy: []sqlcm.OrderKey{{Col: "Dur", Desc: true}},
		MaxRows: 10,
	}); err != nil {
		return err
	}
	_, err := db.NewRule("top10", "Query.Commit", "", &sqlcm.InsertAction{LAT: "top10"})
	return err
}

const adhocJoinSQL = `SELECT l.l_id, o.o_totalprice, p.p_retailprice
	FROM lineitem l
	JOIN orders o ON l.l_orderkey = o.o_orderkey
	JOIN part p ON l.l_partkey = p.p_partkey
	WHERE l.l_id >= %d AND l.l_id < %d`

// maxTexts bounds the statement texts kept for the parse/plan timing.
const maxTexts = 1000

type adhocClient struct {
	in   *instance
	c    *server.Client
	r    *rand.Rand
	n    int
	keep bool // this connection records texts for the parse/plan timing
}

func dialAdhoc(in *instance, i int, r *rand.Rand) (client, error) {
	c, err := in.dialWire(i)
	if err != nil {
		return nil, err
	}
	return &adhocClient{in: in, c: c, r: r, keep: i == 0}, nil
}

func (a *adhocClient) do() opResult {
	a.n++
	var sql string
	var want int
	r := a.r
	switch {
	case a.n%joinEvery == 0:
		lo := 1 + r.Intn(lineitems-joinSpan+1)
		sql, want = fmt.Sprintf(adhocJoinSQL, lo, lo+joinSpan), joinSpan
	default:
		switch r.Intn(4) {
		case 0:
			sql, want = fmt.Sprintf("SELECT l_quantity, l_extendedprice FROM lineitem WHERE l_id = %d", 1+r.Intn(lineitems)), 1
		case 1:
			sql, want = fmt.Sprintf("SELECT o_totalprice, o_status FROM orders WHERE o_orderkey = %d", 1+r.Intn(orders)), 1
		case 2:
			w := 2 + r.Intn(9)
			lo := 1 + r.Intn(lineitems-w+1)
			sql, want = fmt.Sprintf("SELECT l_id, l_quantity FROM lineitem WHERE l_id >= %d AND l_id < %d", lo, lo+w), w
		default:
			w := 2 + r.Intn(9)
			lo := 1 + r.Intn(orders-w+1)
			sql, want = fmt.Sprintf("SELECT o_orderkey, o_custkey FROM orders WHERE o_orderkey >= %d AND o_orderkey < %d", lo, lo+w), w
		}
	}
	if a.keep && len(a.in.adhocTexts) < maxTexts {
		a.in.adhocTexts = append(a.in.adhocTexts, sql)
	}
	rows, err := a.c.Query(sql)
	if err != nil {
		return opResult{kind: kindRead, err: err}
	}
	res := opResult{kind: kindRead, stmts: 1}
	if len(rows.Rows) != want {
		res.wrong = fmt.Sprintf("%q returned %d rows, want %d", sql, len(rows.Rows), want)
	}
	return res
}

func (a *adhocClient) close() {
	a.c.Close() //nolint:errcheck
}

func checkAdhoc(in *instance, t *totals) []string {
	fails := checkCollect(in, t)
	lt, ok := in.db.LAT("top10")
	if !ok {
		return append(fails, "top10 LAT missing")
	}
	if n := len(lt.Rows()); n != 10 {
		fails = append(fails, fmt.Sprintf("top10 LAT holds %d rows, want 10", n))
	}
	return fails
}

func adhocTexts(in *instance) []string { return in.adhocTexts }

// ---------------------------------------------------------------------------
// hot-update: prepared Zipf point reads beside write transactions.
// ---------------------------------------------------------------------------

func installHot(db *sqlcm.DB) error {
	if err := installCollect(db); err != nil {
		return err
	}
	if _, err := db.DefineLAT(sqlcm.LATSpec{
		Name:    "blocked",
		GroupBy: []string{"Blocked.Query_Type", "Blocked.Logical_Signature"},
		Aggs: []sqlcm.AggCol{
			{Func: sqlcm.Sum, Attr: "Blocked.Time_Blocked", Name: "Time_Blocked"},
			{Func: sqlcm.Count, Name: "N"},
		},
	}); err != nil {
		return err
	}
	if _, err := db.NewRule("blocked", "Query.Blocked", "", &sqlcm.InsertAction{LAT: "blocked"}); err != nil {
		return err
	}
	if _, err := db.DefineLAT(sqlcm.LATSpec{
		Name:    "blockers",
		GroupBy: []string{"Blocker.Logical_Signature"},
		Aggs: []sqlcm.AggCol{
			{Func: sqlcm.Sum, Attr: "Blocked.Wait_Time", Name: "Wait"},
			{Func: sqlcm.Count, Name: "N"},
		},
	}); err != nil {
		return err
	}
	_, err := db.NewRule("blockers", "Query.Block_Released", "", &sqlcm.InsertAction{LAT: "blockers"})
	return err
}

var hotStmts = []struct{ name, sql string }{
	{"rl", "SELECT l_quantity, l_extendedprice FROM lineitem WHERE l_id = @k"},
	{"ro", "SELECT o_totalprice, o_status FROM orders WHERE o_orderkey = @k"},
	{"ul", "UPDATE lineitem SET l_quantity = l_quantity + 1 WHERE l_id = @k"},
	{"uo", "UPDATE orders SET o_totalprice = o_totalprice + 1 WHERE o_orderkey = @k"},
}

type hotClient struct {
	c      *server.Client
	r      *rand.Rand
	lineZ  func() int
	orderZ func() int
}

func dialHot(in *instance, i int, r *rand.Rand) (client, error) {
	c, err := in.dialWire(i)
	if err != nil {
		return nil, err
	}
	for _, s := range hotStmts {
		if err := c.Prepare(s.name, s.sql, sqltypes.KindInt); err != nil {
			c.Close() //nolint:errcheck
			return nil, fmt.Errorf("prepare %s: %w", s.name, err)
		}
	}
	return &hotClient{
		c: c, r: r,
		lineZ:  workload.Zipf(r, zipfSkew, lineitems),
		orderZ: workload.Zipf(r, zipfSkew, orders),
	}, nil
}

func (h *hotClient) do() opResult {
	if h.r.Intn(2) == 0 {
		name, key := "rl", h.lineZ()
		if h.r.Intn(2) == 0 {
			name, key = "ro", h.orderZ()
		}
		rows, err := h.c.ExecPrepared(name, sqltypes.NewInt(int64(key+1)))
		if err != nil {
			return opResult{kind: kindRead, err: err}
		}
		res := opResult{kind: kindRead, stmts: 1}
		if len(rows.Rows) != 1 {
			res.wrong = fmt.Sprintf("point read %s(%d) returned %d rows", name, key+1, len(rows.Rows))
		}
		return res
	}
	// Tables are always updated in the same order, so the two
	// connections can block each other but never deadlock.
	res := opResult{kind: kindWrite}
	if _, err := h.c.Query("BEGIN"); err != nil {
		res.err = err
		return res
	}
	for _, u := range []struct {
		name string
		key  int
	}{{"ul", h.lineZ()}, {"uo", h.orderZ()}} {
		rows, err := h.c.ExecPrepared(u.name, sqltypes.NewInt(int64(u.key+1)))
		if err != nil {
			h.c.Query("ROLLBACK") //nolint:errcheck // the engine may already have aborted it
			res.err = err
			return res
		}
		res.stmts++
		if rows.Tag != "OK 1" {
			res.wrong = fmt.Sprintf("update %s(%d) reported %q, want \"OK 1\"", u.name, u.key+1, rows.Tag)
		}
	}
	t0 := time.Now()
	_, res.err = h.c.Query("COMMIT")
	res.commit = time.Since(t0).Nanoseconds()
	return res
}

func (h *hotClient) close() {
	h.c.Close() //nolint:errcheck
}

func checkHot(in *instance, t *totals) []string {
	fails := checkCollect(in, t)
	if lt, ok := in.db.LAT("blocked"); !ok {
		fails = append(fails, "blocked LAT missing")
	} else {
		col := lt.ColumnIndex("Blocked.Query_Type")
		if col < 0 {
			fails = append(fails, "blocked LAT has no Blocked.Query_Type column")
		}
		for _, row := range lt.Rows() {
			if col >= 0 && row[col].Str() == "SELECT" {
				fails = append(fails, fmt.Sprintf("a SELECT signature appears in the Blocked LAT: %v", row))
			}
		}
	}
	qty, err := sumQuantity(in.db)
	if err != nil {
		return append(fails, err.Error())
	}
	if got := int64(qty - in.initQty); got != t.committed || qty-in.initQty != float64(got) {
		fails = append(fails, fmt.Sprintf("l_quantity grew by %v, but %d transactions committed (lost updates)", qty-in.initQty, t.committed))
	}
	return fails
}

func hotTexts(*instance) []string {
	out := make([]string, len(hotStmts))
	for i, s := range hotStmts {
		out[i] = s.sql
	}
	return out
}

// ---------------------------------------------------------------------------
// rules-fig2: the Fig. 2 point, embedded, 100 one-atom rules.
// ---------------------------------------------------------------------------

const fig2SQL = "SELECT l_quantity, l_extendedprice FROM lineitem WHERE l_id = @k"

// fig2LAT is the per-rule container of Fig. 2: every attribute of the
// last 10 queries seen.
func fig2LAT(i int) sqlcm.LATSpec {
	return sqlcm.LATSpec{
		Name:    fmt.Sprintf("fig2_lat_%03d", i),
		GroupBy: []string{"ID"},
		Aggs: []sqlcm.AggCol{
			{Func: sqlcm.Last, Attr: "Query_Text", Name: "Text"},
			{Func: sqlcm.Last, Attr: "Duration", Name: "Dur"},
			{Func: sqlcm.Last, Attr: "Logical_Signature", Name: "LSig"},
			{Func: sqlcm.Last, Attr: "Physical_Signature", Name: "PSig"},
			{Func: sqlcm.Last, Attr: "Estimated_Cost", Name: "Cost"},
		},
		OrderBy: []sqlcm.OrderKey{{Col: "ID", Desc: true}},
		MaxRows: 10,
	}
}

func installFig2(db *sqlcm.DB) error {
	for i := 0; i < fig2Rules; i++ {
		spec := fig2LAT(i)
		if _, err := db.DefineLAT(spec); err != nil {
			return err
		}
		if _, err := db.NewRule(fmt.Sprintf("fig2_rule_%03d", i), "Query.Commit",
			"Query.Duration >= 0", &sqlcm.InsertAction{LAT: spec.Name}); err != nil {
			return err
		}
	}
	return nil
}

type fig2Client struct {
	p *engine.Prepared
	r *rand.Rand
}

func dialFig2(in *instance, i int, r *rand.Rand) (client, error) {
	p, err := in.db.Session("bench", fmt.Sprintf("conn-%d", i)).Prepare(fig2SQL)
	if err != nil {
		return nil, err
	}
	return &fig2Client{p: p, r: r}, nil
}

func (f *fig2Client) do() opResult {
	key := 1 + f.r.Intn(lineitems)
	res, err := f.p.Exec(map[string]sqltypes.Value{"k": sqltypes.NewInt(int64(key))})
	if err != nil {
		return opResult{kind: kindRead, err: err}
	}
	out := opResult{kind: kindRead, stmts: 1}
	if len(res.Rows) != 1 {
		out.wrong = fmt.Sprintf("point read l_id=%d returned %d rows", key, len(res.Rows))
	}
	return out
}

func (f *fig2Client) close() {}

func checkFig2(in *instance, t *totals) []string {
	var fails []string
	if fired := in.db.Monitor().Rules().Stats().Fired - in.firedBase; fired != fig2Rules*t.stmts {
		fails = append(fails, fmt.Sprintf("rules fired %d times over %d statements, want %d per statement", fired, t.stmts, fig2Rules))
	}
	// Only the benchmark's session ran statements since the rules were
	// installed, so the last 10 query IDs are the 10 below the next one.
	last := in.db.Engine().NewQueryID() - 1
	for i := 0; i < fig2Rules; i++ {
		spec := fig2LAT(i)
		lt, ok := in.db.LAT(spec.Name)
		if !ok {
			fails = append(fails, spec.Name+" missing")
			continue
		}
		rows := lt.Rows()
		idCol, textCol := lt.ColumnIndex("ID"), lt.ColumnIndex("Text")
		good := len(rows) == 10
		for j := 0; good && j < 10; j++ {
			good = rows[j][idCol].Int() == last-int64(j) && rows[j][textCol].Str() == fig2SQL
		}
		if !good {
			fails = append(fails, fmt.Sprintf("%s does not hold exactly the last 10 queries (%d..%d)", spec.Name, last-9, last))
		}
	}
	return fails
}

func fig2Texts(*instance) []string { return []string{fig2SQL} }
