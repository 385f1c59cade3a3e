package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// The fixture suites: every analyzer is exercised against a testdata
// package carrying `// want` assertions for each positive case and silent
// negative cases (guarded probe calls, collect-then-sort loops, seeded
// generators, the //mtlint:allow escape hatch).

func TestHotpathFixture(t *testing.T) {
	linttest.Run(t, lint.Hotpath, "hotpath/a")
}

func TestProbeGuardFixture(t *testing.T) {
	linttest.Run(t, lint.ProbeGuard, "probeguard/a")
}

func TestDeterminismSimFixture(t *testing.T) {
	linttest.Run(t, lint.Determinism, "determinism/internal/sim")
}

func TestDeterminismReportFixture(t *testing.T) {
	linttest.Run(t, lint.Determinism, "determinism/internal/report")
}

func TestDeterminismRescacheFixture(t *testing.T) {
	linttest.Run(t, lint.Determinism, "determinism/internal/serve/rescache")
}

func TestDeterminismMemoFixture(t *testing.T) {
	linttest.Run(t, lint.Determinism, "determinism/internal/memo")
}

func TestDeterminismClusterFixture(t *testing.T) {
	linttest.Run(t, lint.Determinism, "determinism/internal/cluster")
}

func TestDeterminismObsFixture(t *testing.T) {
	linttest.Run(t, lint.Determinism, "determinism/internal/obs")
}

func TestDeterminismStoreFixture(t *testing.T) {
	linttest.Run(t, lint.Determinism, "determinism/internal/store")
}

func TestDeterminismAdviseFixture(t *testing.T) {
	linttest.Run(t, lint.Determinism, "determinism/internal/advise")
}

// TestDeterminismOutOfScope runs the determinism analyzer over a package
// outside its scope lists: wall clock, global rand and map-ordered output
// are all someone else's problem there, so the fixture has no want
// comments and must produce no findings.
func TestDeterminismOutOfScope(t *testing.T) {
	linttest.Run(t, lint.Determinism, "determinism/plain")
}

func TestStdlibOnlyFixture(t *testing.T) {
	linttest.Run(t, lint.StdlibOnly, "stdlibonly/a")
}

func TestLockguardFixture(t *testing.T) {
	linttest.Run(t, lint.Lockguard, "lockguard/a")
}

func TestLeakcheckFixture(t *testing.T) {
	linttest.Run(t, lint.Leakcheck, "leakcheck/a")
}

func TestAtomiccheckFixture(t *testing.T) {
	linttest.Run(t, lint.Atomiccheck, "atomiccheck/a")
}

// TestRegistry locks the analyzer catalog: names are unique, resolvable
// through ByName, and documented.
func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range lint.All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incompletely registered", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		got, ok := lint.ByName(a.Name)
		if !ok || got != a {
			t.Errorf("ByName(%q) = %v, %v; want the registered analyzer", a.Name, got, ok)
		}
	}
	for _, name := range []string{"hotpath", "probeguard", "determinism", "stdlibonly", "lockguard", "leakcheck", "atomiccheck"} {
		if _, ok := lint.ByName(name); !ok {
			t.Errorf("registry is missing %q", name)
		}
	}
}
