package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sqlcm/internal/core"
	"sqlcm/internal/engine"
	"sqlcm/internal/lat"
	"sqlcm/internal/rules"
)

// TestMVCCVisibilitySweep runs the differential visibility oracle over a
// seed sweep: the real version store and a naive full-history recompute
// must agree on every row, for every live snapshot, after every step of a
// randomized begin/write/commit/rollback/relocate/prune schedule. The
// sim-mvcc tier raises the sweep via SQLCM_SIM_SEEDS.
func TestMVCCVisibilitySweep(t *testing.T) {
	seeds := seedCount(t, 8)
	steps := eventCount(t, 400)
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			if err := RunMVCCDiff(MVCCDiffConfig{Seed: int64(seed), Steps: steps}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// invarianceRun executes a fixed single-session workload on a monitored
// engine and returns (statement results, rule-dispatch journal, LAT rows),
// all rendered to strings for bit-identical comparison. The workload, its
// LAT and its rules must not change: testdata/invariance_2pl.ref was
// recorded from them on a read path that no longer exists. A new check
// needs a new workload.
func invarianceRun(t *testing.T) (results, journal, latRows []string) {
	t.Helper()
	eng, err := engine.Open(engine.Config{
		PoolPages:   512,
		LockTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := core.Attach(eng, core.Options{})
	defer func() {
		s.Detach()
		eng.Close()
	}()

	if _, err := s.DefineLAT(lat.Spec{
		Name:    "inv_lat",
		GroupBy: []string{"Logical_Signature", "Query_Type"},
		Aggs: []lat.AggCol{
			{Func: lat.Count, Name: "N"},
			{Func: lat.Min, Attr: "ID", Name: "MinID"},
			{Func: lat.Max, Attr: "ID", Name: "MaxID"},
			{Func: lat.Sum, Attr: "Number_of_instances", Name: "Instances"},
		},
		OrderBy: []lat.OrderKey{{Col: "MinID"}},
	}); err != nil {
		t.Fatal(err)
	}
	// Two rules: one that always fires into the LAT and one whose condition
	// splits on a deterministic attribute, so the journal records both rule
	// names with data-dependent outcomes.
	if _, err := s.NewRule("inv_tally", "Query.Commit", "Query.ID > 0",
		&rules.InsertAction{LAT: "inv_lat"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRule("inv_repeat", "Query.Commit", "Query.Number_of_instances > 1"); err != nil {
		t.Fatal(err)
	}
	s.Rules().SetEvalObserver(func(rule string, fired bool) {
		journal = append(journal, fmt.Sprintf("%s=%v", rule, fired))
	})

	sess := eng.NewSession("inv", "sim")
	workload := []string{
		"CREATE TABLE inv (id INT PRIMARY KEY, grp INT, val INT)",
		"INSERT INTO inv VALUES (1, 0, 10)",
		"INSERT INTO inv VALUES (2, 1, 20)",
		"INSERT INTO inv VALUES (3, 0, 30)",
		"INSERT INTO inv VALUES (4, 1, 40)",
		"INSERT INTO inv VALUES (5, 0, 50)",
		"SELECT COUNT(*) FROM inv",
		"SELECT val FROM inv WHERE id = 3",
		"SELECT SUM(val) AS s FROM inv WHERE grp = 0",
		"UPDATE inv SET val = val + 1 WHERE grp = 1",
		"SELECT val FROM inv WHERE id = 2",
		"BEGIN",
		"UPDATE inv SET val = 0 WHERE id = 1",
		"SELECT val FROM inv WHERE id = 1",
		"ROLLBACK",
		"SELECT val FROM inv WHERE id = 1",
		"BEGIN",
		"DELETE FROM inv WHERE grp = 0",
		"SELECT COUNT(*) FROM inv",
		"COMMIT",
		"SELECT COUNT(*) FROM inv",
		"SELECT id FROM inv WHERE val > 20",
	}
	for _, q := range workload {
		res, err := sess.Exec(q, nil)
		if err != nil {
			t.Fatalf("exec %q: %v", q, err)
		}
		if res != nil {
			results = append(results, fmt.Sprintf("%q -> %v", q, res.Rows))
		} else {
			results = append(results, fmt.Sprintf("%q -> ok", q))
		}
	}
	if !s.Flush(5 * time.Second) {
		t.Fatal("outbox did not drain")
	}
	table, ok := s.LAT("inv_lat")
	if !ok {
		t.Fatal("LAT vanished")
	}
	for _, row := range table.Rows() {
		latRows = append(latRows, fmt.Sprintf("%v", row))
	}
	return results, journal, latRows
}

// loadReference parses a recorded reference file: "#" comment lines,
// then sections introduced by "== <name>" whose lines are the entries.
func loadReference(t *testing.T, path string) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sections := make(map[string][]string)
	cur := ""
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "== "):
			cur = strings.TrimPrefix(line, "== ")
			sections[cur] = []string{}
		case cur == "":
			t.Fatalf("%s: entry %q before the first section", path, line)
		default:
			sections[cur] = append(sections[cur], line)
		}
	}
	return sections
}

// TestSingleSessionMVCCInvariance is the lock-schedule invariance pin: a
// single-session trace run on the snapshot-read engine must produce the
// statement results, rule-dispatch journal and LAT contents recorded in
// testdata/invariance_2pl.ref from the former strict-2PL read path, where
// SELECTs took shared locks and read the heap. Single-session traces never
// block, so the lock schedule is the only thing MVCC changed — and nothing
// downstream may notice.
func TestSingleSessionMVCCInvariance(t *testing.T) {
	ref := loadReference(t, filepath.Join("testdata", "invariance_2pl.ref"))
	results, journal, latRows := invarianceRun(t)

	diff := func(kind string, want, got []string) {
		t.Helper()
		if len(want) == 0 {
			t.Fatalf("%s: reference section is empty — the invariance check checked nothing", kind)
		}
		if len(want) != len(got) {
			t.Fatalf("%s: 2PL reference has %d entries, MVCC %d\n2PL:  %v\nMVCC: %v", kind, len(want), len(got), want, got)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s diverged at %d:\n  2PL:  %s\n  MVCC: %s", kind, i, want[i], got[i])
			}
		}
	}
	diff("results", ref["results"], results)
	diff("journal", ref["journal"], journal)
	diff("lat", ref["lat"], latRows)
}
