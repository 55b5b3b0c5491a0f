package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"sqlcm/internal/sqltypes"
)

func TestDropTableViaSQL(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("a", "b")
	mustExec(t, s, "CREATE TABLE temp (id INT PRIMARY KEY)")
	mustExec(t, s, "INSERT INTO temp VALUES (1)")
	mustExec(t, s, "DROP TABLE temp")
	if _, err := s.Exec("SELECT * FROM temp", nil); err == nil {
		t.Fatal("dropped table still queryable")
	}
	// Recreate under the same name.
	mustExec(t, s, "CREATE TABLE temp (x VARCHAR)")
	if _, err := s.Exec("INSERT INTO temp VALUES ('fresh')", nil); err != nil {
		t.Fatal(err)
	}
}

func TestCreateIndexViaSQLSpeedsLookups(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("a", "b")
	mustExec(t, s, "CREATE TABLE wide (id INT PRIMARY KEY, tag VARCHAR)")
	for i := 0; i < 200; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO wide VALUES (%d, 'tag%d')", i, i%10))
	}
	// Index created after data load must be backfilled.
	mustExec(t, s, "CREATE INDEX wide_tag ON wide (tag)")
	res := mustExec(t, s, "SELECT COUNT(*) FROM wide WHERE tag = 'tag3'")
	if res.Rows[0][0].Int() != 20 {
		t.Fatalf("count via backfilled index: %v", res.Rows[0][0])
	}
}

// CREATE INDEX races point reads (planned against the old or the new
// index set) and inserts. Run under -race it pins the copy-on-write
// publication of the index sets; the final check pins that the index is
// built under the table's exclusive lock, so no insert misses it.
func TestCreateIndexRacesReadsAndWrites(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("ddl", "race")
	mustExec(t, s, "CREATE TABLE ix (id INT PRIMARY KEY, a INT)")
	const seeded = 200
	for i := 0; i < seeded; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO ix VALUES (%d, %d)", i, i))
	}
	stop := make(chan struct{})
	errs := make(chan error, 3) // one result per goroutine
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rs := e.NewSession("reader", "race")
			for i := r; ; i++ {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				k := i % seeded
				res, err := rs.Exec(fmt.Sprintf("SELECT id FROM ix WHERE a = %d", k), nil)
				if err == nil && (len(res.Rows) != 1 || res.Rows[0][0].Int() != int64(k)) {
					err = fmt.Errorf("a = %d returned %v", k, res.Rows)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	inserted := 0
	go func() {
		defer wg.Done()
		ws := e.NewSession("writer", "race")
		for ; ; inserted++ {
			select {
			case <-stop:
				errs <- nil
				return
			default:
			}
			id := seeded + inserted
			if _, err := ws.Exec(fmt.Sprintf("INSERT INTO ix VALUES (%d, %d)", id, id), nil); err != nil {
				errs <- err
				return
			}
		}
	}()
	const indexes = 20
	for i := 0; i < indexes; i++ {
		mustExec(t, s, fmt.Sprintf("CREATE INDEX ix_a%d ON ix (a)", i))
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	ts, err := e.Stores().Store("ix")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < indexes; i++ {
		name := fmt.Sprintf("ix_a%d", i)
		if bt := ts.Index(name); bt == nil || bt.Len() != seeded+inserted {
			t.Fatalf("index %s: %v, want %d entries", name, bt, seeded+inserted)
		}
	}
}

// CREATE INDEX inside an explicit transaction that already holds the
// table's exclusive lock takes the lock in that transaction instead of
// waiting on itself, and indexes the transaction's own rows.
func TestCreateIndexInsideTransaction(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("a", "b")
	mustExec(t, s, "CREATE TABLE tx (id INT PRIMARY KEY, tag VARCHAR)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO tx VALUES (1, 'x')")
	mustExec(t, s, "CREATE INDEX tx_tag ON tx (tag)")
	mustExec(t, s, "INSERT INTO tx VALUES (2, 'x')")
	mustExec(t, s, "COMMIT")
	res := mustExec(t, s, "SELECT COUNT(*) FROM tx WHERE tag = 'x'")
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("count via index: %v", res.Rows[0][0])
	}
	ts, err := e.Stores().Store("tx")
	if err != nil {
		t.Fatal(err)
	}
	if bt := ts.Index("tx_tag"); bt == nil || bt.Len() != 2 {
		t.Fatalf("index tx_tag: %v, want 2 entries", bt)
	}
}

func TestDeleteRowsDirectClearsTable(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("a", "b")
	mustExec(t, s, "CREATE TABLE tr (id INT PRIMARY KEY, v VARCHAR)")
	for i := 0; i < 50; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO tr VALUES (%d, 'v%d')", i, i))
	}
	all := func([]sqltypes.Value) bool { return true }
	if n, err := e.DeleteRowsDirect("tr", all); err != nil || n != 50 {
		t.Fatalf("deleted %d rows, err %v", n, err)
	}
	res := mustExec(t, s, "SELECT COUNT(*) FROM tr")
	if res.Rows[0][0].Int() != 0 {
		t.Fatalf("count after delete: %v", res.Rows[0][0])
	}
	if e.Catalog().Stats("tr").RowCount != 0 {
		t.Fatalf("stats after delete: %d", e.Catalog().Stats("tr").RowCount)
	}
	// Table and indexes still usable: the old PK values insert cleanly.
	for i := 0; i < 10; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO tr VALUES (%d, 'again')", i))
	}
	res = mustExec(t, s, "SELECT v FROM tr WHERE id = 5")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "again" {
		t.Fatalf("post-delete lookup: %+v", res.Rows)
	}
	if _, err := e.DeleteRowsDirect("missing", all); err == nil {
		t.Fatal("delete from a missing table should fail")
	}
}

func TestProcedureTextPreserved(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("a", "b")
	src := "CREATE PROCEDURE p (@x INT) AS BEGIN SELECT @x + 1 AS y; END"
	mustExec(t, s, src)
	proc, err := e.Catalog().Procedure("p")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(proc.Text, "CREATE PROCEDURE p") {
		t.Fatalf("text: %q", proc.Text)
	}
	res, err := s.Exec("EXEC p 41", nil)
	if err != nil || res.Rows[0][0].Int() != 42 {
		t.Fatalf("proc result: %+v err %v", res, err)
	}
}

func TestExecWrongArity(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("a", "b")
	mustExec(t, s, "CREATE PROCEDURE p (@x INT) AS BEGIN SELECT @x; END")
	if _, err := s.Exec("EXEC p", nil); err == nil {
		t.Fatal("missing arg accepted")
	}
	if _, err := s.Exec("EXEC p 1, 2", nil); err == nil {
		t.Fatal("extra arg accepted")
	}
	if _, err := s.Exec("EXEC nope 1", nil); err == nil {
		t.Fatal("unknown proc accepted")
	}
}

func TestSessionErrors(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("a", "b")
	if _, err := s.Exec("COMMIT", nil); err == nil {
		t.Fatal("commit without txn accepted")
	}
	if _, err := s.Exec("ROLLBACK", nil); err == nil {
		t.Fatal("rollback without txn accepted")
	}
	mustExec(t, s, "BEGIN")
	if _, err := s.Exec("BEGIN", nil); err == nil {
		t.Fatal("nested begin accepted")
	}
	mustExec(t, s, "COMMIT")
	if _, err := s.Exec("SELEC 1", nil); err == nil {
		t.Fatal("parse error swallowed")
	}
}

func TestClosedEngineRejectsWork(t *testing.T) {
	e, err := Open(Config{PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	s := e.NewSession("a", "b")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("SELECT 1", nil); err == nil {
		t.Fatal("closed engine accepted a statement")
	}
	if err := e.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}
}

func TestTypeCoercionAtInsert(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("a", "b")
	mustExec(t, s, "CREATE TABLE ty (id INT PRIMARY KEY, f FLOAT, ts DATETIME)")
	// INT literal into FLOAT column; string into DATETIME.
	mustExec(t, s, "INSERT INTO ty VALUES (1, 3, '2004-03-02 10:00:00')")
	res := mustExec(t, s, "SELECT f, ts FROM ty WHERE id = 1")
	if res.Rows[0][0].Kind() != sqltypes.KindFloat || res.Rows[0][0].Float() != 3 {
		t.Fatalf("float coercion: %v", res.Rows[0][0])
	}
	if res.Rows[0][1].Kind() != sqltypes.KindTime {
		t.Fatalf("time coercion: %v", res.Rows[0][1])
	}
	if _, err := s.Exec("INSERT INTO ty VALUES (2, 'oops', NULL)", nil); err == nil {
		t.Fatal("string into FLOAT accepted")
	}
}
