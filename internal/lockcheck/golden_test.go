package lockcheck_test

import (
	"flag"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sqlcm/internal/analysis"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// runFixture analyzes one testdata fixture tree with analysis.RunTree
// and renders the findings whose analyzer passes keep (all when nil).
func runFixture(t *testing.T, name string, keep func(analysis.Diagnostic) bool) string {
	t.Helper()
	diags, err := analysis.RunTree(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("analysis.RunTree: %v", err)
	}
	var b strings.Builder
	for _, d := range diags {
		if keep == nil || keep(d) {
			b.WriteString(filepath.ToSlash(d.String()) + "\n")
		}
	}
	return b.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	goldenPath := filepath.Join("testdata", "src", name, name+".golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics differ from %s\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}

// TestSeededFixtureGoldens pins the exact diagnostics for every seeded
// lock bug: order inversion, missing unlock, send under lock, unannotated
// mutex, cyclic declaration, enqueue under lock.
func TestSeededFixtureGoldens(t *testing.T) {
	cases := []string{
		"seededinversion",
		"missingunlock",
		"sendunderlock",
		"unannotated",
		"cycle",
		"enqueue",
	}
	for _, name := range cases {
		t.Run(name, func(t *testing.T) {
			checkGolden(t, name, runFixture(t, name, nil))
		})
	}
}

// TestHotpathLockGolden pins the hotpath analyzer's diagnostic for a
// hot-path function locking an un-annotated mutex. (The unannotated
// field's lockclass findings are the unannotated fixture's to pin.)
func TestHotpathLockGolden(t *testing.T) {
	hotpath := func(d analysis.Diagnostic) bool { return d.Analyzer == "hotpath" }
	checkGolden(t, "hotpathlock", runFixture(t, "hotpathlock", hotpath))
}

// TestCrossPackageSummaryGolden pins the fact-driven ordering check:
// calls into another package (the fixture's lck) are order-checked
// against the lock classes that package's facts say the callee may
// acquire.
func TestCrossPackageSummaryGolden(t *testing.T) {
	checkGolden(t, "crosssummary", runFixture(t, "crosssummary", nil))
}

// TestTreeLockClassesExported requires the type-aware layer to record
// the one cross-package edge the serving path actually has: acquiring a
// row/table lock through lock.Manager reaches the lock.manager latch.
func TestTreeLockClassesExported(t *testing.T) {
	prog, err := analysis.LoadTree("../..")
	if err != nil {
		t.Fatalf("LoadTree: %v", err)
	}
	pkg := prog.PackageByPath("sqlcm/internal/lock")
	if pkg == nil {
		t.Fatal("package sqlcm/internal/lock not loaded")
	}
	acquire, _, _ := types.LookupFieldOrMethod(pkg.Types.Scope().Lookup("Manager").Type(), true, pkg.Types, "Acquire")
	if acquire == nil {
		t.Fatal("lock.Manager has no Acquire method")
	}
	classes := pkg.Facts.LockClasses[acquire]
	found := false
	for _, c := range classes {
		if c == "lock.manager" {
			found = true
		}
	}
	if !found {
		t.Fatalf("LockClasses[lock.Manager.Acquire] = %v, want it to include %q", classes, "lock.manager")
	}
}

// TestAnnotatedTreeIsClean runs the lock checker over the repository and
// requires zero findings: the shipped tree must satisfy its own declared
// hierarchy. Type-check findings count too, so a tree the checker cannot
// resolve does not pass with the lock walk degraded.
func TestAnnotatedTreeIsClean(t *testing.T) {
	diags, err := analysis.RunTree("../..")
	if err != nil {
		t.Fatalf("analysis.RunTree: %v", err)
	}
	for _, d := range diags {
		if strings.HasPrefix(d.Analyzer, "lock") || d.Analyzer == "typecheck" {
			t.Errorf("unexpected finding: %s", d)
		}
	}
}
