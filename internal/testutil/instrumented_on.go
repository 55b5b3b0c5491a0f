//go:build race || sqlcmlockdep

package testutil

// Instrumented reports whether the build instruments memory or lock
// operations (-race, -tags sqlcmlockdep). Such builds allocate on paths
// that are otherwise allocation-free, so allocation-count tests skip
// under them.
const Instrumented = true
