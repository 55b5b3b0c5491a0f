package plan

import (
	"strings"
	"testing"

	"sqlcm/internal/catalog"
	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
)

// newTestCatalog builds a TPC-H-flavoured catalog with stats.
func newTestCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	mustTable := func(name string, cols []catalog.Column, rows int64) {
		if _, err := c.CreateTable(name, cols); err != nil {
			t.Fatal(err)
		}
		c.AddRows(name, rows)
	}
	mustTable("lineitem", []catalog.Column{
		{Name: "l_id", Type: sqltypes.KindInt, PrimaryKey: true, NotNull: true},
		{Name: "l_orderkey", Type: sqltypes.KindInt},
		{Name: "l_quantity", Type: sqltypes.KindFloat},
		{Name: "l_price", Type: sqltypes.KindFloat},
	}, 60000)
	mustTable("orders", []catalog.Column{
		{Name: "o_orderkey", Type: sqltypes.KindInt, PrimaryKey: true, NotNull: true},
		{Name: "o_custkey", Type: sqltypes.KindInt},
		{Name: "o_totalprice", Type: sqltypes.KindFloat},
	}, 15000)
	if _, err := c.CreateIndex("idx_l_orderkey", "lineitem", []string{"l_orderkey"}, false, nil); err != nil {
		t.Fatal(err)
	}
	return c
}

func mustPlan(t *testing.T, cat *catalog.Catalog, sql string) Physical {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	l, err := BuildLogical(stmt, cat)
	if err != nil {
		t.Fatalf("logical %q: %v", sql, err)
	}
	p, err := Optimize(l, cat)
	if err != nil {
		t.Fatalf("optimize %q: %v", sql, err)
	}
	return p
}

func TestLogicalSelectShape(t *testing.T) {
	cat := newTestCatalog(t)
	stmt, _ := sqlparser.Parse("SELECT l_id FROM lineitem WHERE l_quantity > 5 ORDER BY l_id LIMIT 3")
	l, err := BuildLogical(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	tree := DescribeTree(l)
	for _, want := range []string{"Limit(3)", "Sort(", "Project(", "Filter(", "Scan(lineitem)"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
}

func TestPrimaryKeySeek(t *testing.T) {
	cat := newTestCatalog(t)
	p := mustPlan(t, cat, "SELECT * FROM lineitem WHERE l_id = 42")
	scan := findScan(p)
	if scan == nil {
		t.Fatal("no scan in plan")
	}
	if scan.Access.Index == nil || !scan.Access.Index.Primary {
		t.Fatalf("expected primary index seek, got %s", scan.Describe())
	}
	if scan.Rows != 1 {
		t.Fatalf("unique seek rows = %v", scan.Rows)
	}
	if scan.Access.Residual != nil {
		t.Fatalf("residual should be consumed: %s", scan.Access.Residual)
	}
}

func TestSecondaryIndexSeekWithResidual(t *testing.T) {
	cat := newTestCatalog(t)
	p := mustPlan(t, cat, "SELECT * FROM lineitem WHERE l_orderkey = 7 AND l_quantity > 2")
	scan := findScan(p)
	if scan.Access.Index == nil || scan.Access.Index.Name != "idx_l_orderkey" {
		t.Fatalf("expected secondary seek: %s", scan.Describe())
	}
	if scan.Access.Residual == nil || !strings.Contains(scan.Access.Residual.String(), "l_quantity") {
		t.Fatalf("residual lost: %v", scan.Access.Residual)
	}
}

func TestRangeSeek(t *testing.T) {
	cat := newTestCatalog(t)
	p := mustPlan(t, cat, "SELECT * FROM lineitem WHERE l_id >= 10 AND l_id < 20")
	scan := findScan(p)
	if scan.Access.Index == nil {
		t.Fatalf("expected index range scan: %s", scan.Describe())
	}
	if scan.Access.Lo == nil || scan.Access.Hi == nil || !scan.Access.LoIncl || scan.Access.HiIncl {
		t.Fatalf("range bounds wrong: %s", scan.Access.Describe())
	}
}

func TestSeqScanWhenNoIndexHelps(t *testing.T) {
	cat := newTestCatalog(t)
	p := mustPlan(t, cat, "SELECT * FROM lineitem WHERE l_quantity > 5")
	scan := findScan(p)
	if scan.Access.Index != nil {
		t.Fatalf("expected seq scan: %s", scan.Describe())
	}
	if scan.Access.Residual == nil {
		t.Fatal("residual predicate missing")
	}
}

func TestValueOpColumnSargMirrors(t *testing.T) {
	cat := newTestCatalog(t)
	p := mustPlan(t, cat, "SELECT * FROM lineitem WHERE 42 = l_id")
	scan := findScan(p)
	if scan.Access.Index == nil {
		t.Fatalf("mirrored sarg not recognized: %s", scan.Describe())
	}
}

func TestParamSargUsesIndex(t *testing.T) {
	cat := newTestCatalog(t)
	p := mustPlan(t, cat, "SELECT * FROM lineitem WHERE l_id = @key")
	scan := findScan(p)
	if scan.Access.Index == nil {
		t.Fatalf("param equality should seek: %s", scan.Describe())
	}
}

func TestIndexNLJoinChosen(t *testing.T) {
	cat := newTestCatalog(t)
	p := mustPlan(t, cat, `SELECT l.l_id, o.o_totalprice
		FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
		WHERE l.l_id = 5`)
	join := findNode(p, func(n Physical) bool { _, ok := n.(*PhysIndexNLJoin); return ok })
	if join == nil {
		t.Fatalf("expected IndexNLJoin:\n%s", DescribePhysical(p))
	}
	inl := join.(*PhysIndexNLJoin)
	if !inl.Index.Primary || inl.Alias != "o" {
		t.Fatalf("wrong inner index: %s", inl.Describe())
	}
	// Outer side should seek lineitem by primary key.
	scan := findScan(p)
	if scan == nil || scan.Access.Index == nil {
		t.Fatalf("outer should be a pk seek:\n%s", DescribePhysical(p))
	}
}

func TestHashJoinWhenInnerHasNoUsableIndex(t *testing.T) {
	cat := newTestCatalog(t)
	// Join on non-indexed column of inner table (o_custkey).
	p := mustPlan(t, cat, `SELECT l.l_id FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_custkey`)
	join := findNode(p, func(n Physical) bool { _, ok := n.(*PhysHashJoin); return ok })
	if join == nil {
		t.Fatalf("expected HashJoin:\n%s", DescribePhysical(p))
	}
}

func TestJoinPredicatePushdown(t *testing.T) {
	cat := newTestCatalog(t)
	p := mustPlan(t, cat, `SELECT l.l_id FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_custkey
		WHERE o.o_totalprice > 100 AND l.l_quantity > 1`)
	hj := findNode(p, func(n Physical) bool { _, ok := n.(*PhysHashJoin); return ok }).(*PhysHashJoin)
	// The right-only predicate must have been pushed into the build side.
	rightScan := hj.Right.(*PhysScan)
	if rightScan.Access.Residual == nil || !strings.Contains(rightScan.Access.Residual.String(), "o_totalprice") {
		t.Fatalf("right predicate not pushed: %s", rightScan.Describe())
	}
	leftScan := hj.Left.(*PhysScan)
	if leftScan.Access.Residual == nil || !strings.Contains(leftScan.Access.Residual.String(), "l_quantity") {
		t.Fatalf("left predicate not pushed: %s", leftScan.Describe())
	}
}

func TestAggregatePlan(t *testing.T) {
	cat := newTestCatalog(t)
	p := mustPlan(t, cat, `SELECT l_orderkey, SUM(l_quantity), COUNT(*)
		FROM lineitem GROUP BY l_orderkey HAVING SUM(l_quantity) > 5 ORDER BY SUM(l_quantity) DESC LIMIT 2`)
	agg := findNode(p, func(n Physical) bool { _, ok := n.(*PhysHashAgg); return ok })
	if agg == nil {
		t.Fatalf("no agg:\n%s", DescribePhysical(p))
	}
	a := agg.(*PhysHashAgg)
	if len(a.GroupBy) != 1 || len(a.Aggs) != 2 {
		t.Fatalf("agg shape: groupby=%d aggs=%d", len(a.GroupBy), len(a.Aggs))
	}
	// Schema: group col + 2 aggs.
	sch := a.Schema()
	if len(sch) != 3 || sch[0].Name != "l_orderkey" {
		t.Fatalf("agg schema: %v", sch)
	}
	if a.Having == nil {
		t.Fatal("having lost")
	}
}

func TestStarExpansion(t *testing.T) {
	cat := newTestCatalog(t)
	p := mustPlan(t, cat, "SELECT * FROM orders")
	proj := findNode(p, func(n Physical) bool { _, ok := n.(*PhysProject); return ok }).(*PhysProject)
	if len(proj.Items) != 3 {
		t.Fatalf("star expanded to %d items", len(proj.Items))
	}
	if proj.Items[0].Name != "o_orderkey" {
		t.Fatalf("first item: %+v", proj.Items[0])
	}
}

func TestTableLessSelect(t *testing.T) {
	cat := newTestCatalog(t)
	p := mustPlan(t, cat, "SELECT 1 + 2 AS three")
	v, ok := p.(*PhysValues)
	if !ok {
		t.Fatalf("expected PhysValues, got %T", p)
	}
	if v.Schema()[0].Name != "three" {
		t.Fatalf("schema: %v", v.Schema())
	}
}

func TestUpdateDeletePlans(t *testing.T) {
	cat := newTestCatalog(t)
	u := mustPlan(t, cat, "UPDATE lineitem SET l_quantity = l_quantity + 1 WHERE l_id = 5").(*PhysUpdate)
	if u.Access.Index == nil {
		t.Fatalf("update should seek: %s", u.Describe())
	}
	d := mustPlan(t, cat, "DELETE FROM lineitem WHERE l_quantity > 100").(*PhysDelete)
	if d.Access.Index != nil {
		t.Fatalf("delete should scan: %s", d.Describe())
	}
}

func TestInsertPlan(t *testing.T) {
	cat := newTestCatalog(t)
	i := mustPlan(t, cat, "INSERT INTO orders (o_orderkey, o_custkey, o_totalprice) VALUES (1, 2, 3.5)").(*PhysInsert)
	if len(i.Columns) != 3 || len(i.RowsSrc) != 1 {
		t.Fatalf("insert plan: %+v", i)
	}
}

func TestPlanErrors(t *testing.T) {
	cat := newTestCatalog(t)
	bad := []string{
		"SELECT * FROM missing",
		"SELECT nope FROM lineitem WHERE nope = 1", // unknown column caught at join classify only... optimizer may not catch; try join
		"INSERT INTO lineitem (nope) VALUES (1)",
		"UPDATE lineitem SET nope = 1",
		"SELECT * FROM lineitem l JOIN orders o ON l.l_id = x.col", // unknown alias
	}
	for _, sql := range bad {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			continue
		}
		l, err := BuildLogical(stmt, cat)
		if err != nil {
			continue // caught at build time: fine
		}
		if _, err := Optimize(l, cat); err == nil {
			// Unknown plain columns inside single-table predicates are
			// caught later at execution binding; only alias errors must be
			// caught here.
			if strings.Contains(sql, "x.col") {
				t.Errorf("Optimize(%q) should fail", sql)
			}
		}
	}
}

func TestEstimatedCostOrdering(t *testing.T) {
	cat := newTestCatalog(t)
	seek := mustPlan(t, cat, "SELECT * FROM lineitem WHERE l_id = 1")
	scan := mustPlan(t, cat, "SELECT * FROM lineitem WHERE l_quantity > 1")
	if seek.EstCost() >= scan.EstCost() {
		t.Fatalf("seek cost %v should be < scan cost %v", seek.EstCost(), scan.EstCost())
	}
}

func findScan(p Physical) *PhysScan {
	n := findNode(p, func(n Physical) bool { _, ok := n.(*PhysScan); return ok })
	if n == nil {
		return nil
	}
	return n.(*PhysScan)
}

func findNode(p Physical, pred func(Physical) bool) Physical {
	if pred(p) {
		return p
	}
	for _, c := range p.PChildren() {
		if found := findNode(c, pred); found != nil {
			return found
		}
	}
	return nil
}

func TestDescribeAndEstimates(t *testing.T) {
	cat := newTestCatalog(t)
	sqls := []string{
		"SELECT l.l_id FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey WHERE l.l_quantity > 1 ORDER BY l.l_id LIMIT 5",
		"SELECT l.l_id FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_custkey",
		"SELECT l.l_id FROM lineitem l JOIN orders o ON l.l_id < o.o_orderkey",
		"SELECT l_orderkey, AVG(l_price), STDEV(l_price) FROM lineitem GROUP BY l_orderkey",
		"SELECT 1 + 1",
		"INSERT INTO orders (o_orderkey) VALUES (1)",
		"UPDATE lineitem SET l_price = 0 WHERE l_id = 1",
		"DELETE FROM lineitem WHERE l_id = 1",
	}
	for _, sql := range sqls {
		p := mustPlan(t, cat, sql)
		out := DescribePhysical(p)
		if out == "" {
			t.Errorf("empty describe for %q", sql)
		}
		if p.EstCost() < 0 || p.EstRows() < 0 {
			t.Errorf("negative estimates for %q", sql)
		}
		// Every node in the tree must describe itself and report schema
		// without panicking.
		var walk func(n Physical)
		walk = func(n Physical) {
			_ = n.Describe()
			_ = n.Schema()
			_ = n.EstRows()
			_ = n.EstCost()
			for _, c := range n.PChildren() {
				walk(c)
			}
		}
		walk(p)
	}
	// Logical tree describe.
	stmt, _ := sqlparser.Parse(sqls[0])
	l, err := BuildLogical(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	if tree := DescribeTree(l); !strings.Contains(tree, "Join") {
		t.Errorf("logical describe: %s", tree)
	}
}

func TestBuildLogicalErrors(t *testing.T) {
	cat := newTestCatalog(t)
	bad := []string{
		"SELECT * FROM missing",
		"SELECT * FROM lineitem WHERE missing_col = 1 GROUP BY l_id", // star with aggregation
		"INSERT INTO lineitem (nope) VALUES (1)",
		"INSERT INTO lineitem (l_id) VALUES (1, 2)", // arity mismatch
		"UPDATE lineitem SET nope = 1",
		"DELETE FROM missing",
		"SELECT COUNT(*)", // aggregation without FROM
		"SELECT * FROM lineitem l JOIN missing m ON l.l_id = m.x",
	}
	for _, sql := range bad {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			continue
		}
		if _, err := BuildLogical(stmt, cat); err == nil {
			if strings.Contains(sql, "missing_col") {
				continue // unknown plain columns surface at exec bind time
			}
			t.Errorf("BuildLogical(%q) should fail", sql)
		}
	}
}

func TestAccessPathDescribe(t *testing.T) {
	cat := newTestCatalog(t)
	for _, sql := range []string{
		"SELECT * FROM lineitem WHERE l_id = 1",
		"SELECT * FROM lineitem WHERE l_id > 1 AND l_id <= 5",
		"SELECT * FROM lineitem WHERE l_quantity = 1",
	} {
		scan := findScan(mustPlan(t, cat, sql))
		if scan.Access.Describe() == "" {
			t.Errorf("empty access describe for %q", sql)
		}
	}
	var nilAP *AccessPath
	if nilAP.Describe() != "seq" {
		t.Error("nil access path should describe as seq")
	}
}
