package engine

import (
	"fmt"
	"testing"
	"time"
)

// Writers prune the tables they write under the exclusive lock they
// already hold, so garbage collection never waits on a lock another
// transaction holds. An open transaction holding X on t2 must not stall
// UPDATEs of t1, however many of them run.
func TestWriterPruneNeverWaitsOnOtherTables(t *testing.T) {
	e, err := Open(Config{PoolPages: 256, LockTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	s := e.NewSession("writer", "gc")
	for _, tbl := range []string{"t1", "t2"} {
		mustExec(t, s, fmt.Sprintf("CREATE TABLE %s (id INT PRIMARY KEY, v INT)", tbl))
		mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES (1, 0)", tbl))
	}
	holder := e.NewSession("holder", "gc")
	mustExec(t, holder, "BEGIN")
	mustExec(t, holder, "UPDATE t2 SET v = 1 WHERE id = 1")
	for i := 1; i <= 600; i++ {
		start := time.Now()
		mustExec(t, s, "UPDATE t1 SET v = v + 1 WHERE id = 1")
		if d := time.Since(start); d > 500*time.Millisecond {
			t.Fatalf("UPDATE t1 #%d took %v while another transaction held X on t2", i, d)
		}
	}
	mustExec(t, holder, "ROLLBACK")
}

// Writer-side pruning still reclaims: without an open snapshot the
// retained versions stay within one prune interval (256 statements) of
// the live rows; a snapshot held open keeps its reads, and once it ends
// the next interval brings the count back under the bound.
func TestWriterPruneReclaims(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("writer", "gc")
	const rows = 10
	mustExec(t, s, "CREATE TABLE hot (id INT PRIMARY KEY, v INT)")
	for i := 1; i <= rows; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO hot VALUES (%d, 0)", i))
	}
	const bound = 256 + rows
	retained := func() int64 { return e.MVCCStats().Retained.Load() }
	update := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			mustExec(t, s, "UPDATE hot SET v = v + 1 WHERE id = 1")
		}
	}

	update(1000)
	if r := retained(); r > bound {
		t.Fatalf("after 1000 UPDATEs with no open snapshot: %d versions retained, want <= %d", r, bound)
	}
	if e.MVCCStats().Pruned.Load() == 0 {
		t.Fatal("no version was pruned")
	}

	reader := e.NewSession("reader", "gc")
	mustExec(t, reader, "BEGIN")
	before := mustExec(t, reader, "SELECT v FROM hot WHERE id = 1").Rows[0][0].Int()
	update(1000)
	if got := mustExec(t, reader, "SELECT v FROM hot WHERE id = 1").Rows[0][0].Int(); got != before {
		t.Fatalf("open snapshot read %d, then %d after concurrent UPDATEs", before, got)
	}
	mustExec(t, reader, "COMMIT")
	update(256)
	if r := retained(); r > bound {
		t.Fatalf("256 UPDATEs after the snapshot ended: %d versions retained, want <= %d", r, bound)
	}
}
