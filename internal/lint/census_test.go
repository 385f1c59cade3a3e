package lint_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// censusEntries runs the census over the fixture package and indexes the
// entries by Type.Field.
func censusEntries(t *testing.T, pkgPaths ...string) map[string]lint.CensusEntry {
	t.Helper()
	pkgs, _ := linttest.Load(t, pkgPaths...)
	out := make(map[string]lint.CensusEntry)
	for _, e := range lint.CensusReport(pkgs) {
		out[e.Type+"."+e.Field] = e
	}
	return out
}

// TestCensusFixture pins the classifier on one struct per guard class,
// including the two precision cases: a caller-holds-lock helper
// (inherited lock context) and a value-receiver defaults normalizer
// (stack-copy writes must not count).
func TestCensusFixture(t *testing.T) {
	entries := censusEntries(t, "census/a")

	want := map[string]string{
		"Counter.mu":        "sync",
		"Counter.n":         "mutex(Counter.mu)",
		"Counter.evictions": "mutex(Counter.mu)", // via inherited lock context
		"Memo.evictions":    "mutex(Memo.mu)",    // through a generic method call
		"Bare.hits":         "NOTHING",
		"Opts.Depth":        "immutable", // withDefaults writes a stack copy
		"Server.done":       "channel",
		"Server.flag":       "atomic",
		"Server.opts":       "immutable",
		"Rec.buf":           "annotated:external", // type-level directive
		"Pub.result":        "annotated:immutable",
		"Pub.done":          "channel",
	}
	for field, guard := range want {
		e, ok := entries[field]
		if !ok {
			t.Errorf("census: no entry for %s (entries: %v)", field, keys(entries))
			continue
		}
		if e.Guard != guard {
			t.Errorf("census: %s classified %q, want %q", field, e.Guard, guard)
		}
		if e.Roots < 2 {
			t.Errorf("census: %s reported with %d roots; shared fields need >= 2", field, e.Roots)
		}
	}

	bare := entries["Bare.hits"]
	if !bare.Unsafe() {
		t.Errorf("census: Bare.hits should be Unsafe, got guard %q", bare.Guard)
	}
	if len(bare.Unguarded) == 0 {
		t.Errorf("census: Bare.hits has no recorded unguarded sites")
	}
	for field, e := range entries {
		if e.Unsafe() && field != "Bare.hits" {
			t.Errorf("census: unexpected unsafe field %s (%q)", field, e.Guard)
		}
	}
}

// TestCensusDeterministic asserts the rendered report is byte-identical
// across runs — the analysis fans out per package, so the report order
// must come from sorting, not scheduling.
func TestCensusDeterministic(t *testing.T) {
	pkgs, _ := linttest.Load(t, "census/a")
	first := lint.FormatCensus(lint.CensusReport(pkgs))
	for i := 0; i < 3; i++ {
		if got := lint.FormatCensus(lint.CensusReport(pkgs)); got != first {
			t.Fatalf("census report differs between runs:\n--- first\n%s\n--- run %d\n%s", first, i+2, got)
		}
	}
	if !strings.Contains(first, "census/a\n") {
		t.Errorf("report is missing the package header:\n%s", first)
	}
}

// TestCensusServingTierClean is the acceptance regression for the serving
// tier: the census over internal/serve (and its durable store and
// retry core), internal/cluster, internal/obs and the memo table under
// the result cache must report zero unguarded shared fields. A new
// unguarded field is a build-stopping event, not a dashboard number.
func TestCensusServingTierClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the serving tier; skipped in -short")
	}
	pkgs, _ := linttest.Load(t,
		"repro/internal/serve", "repro/internal/serve/rescache", "repro/internal/serve/client",
		"repro/internal/store", "repro/internal/retry",
		"repro/internal/cluster", "repro/internal/obs", "repro/internal/memo")
	entries := lint.CensusReport(pkgs)
	if len(entries) == 0 {
		t.Fatal("census reported no shared fields at all in the serving tier; the walk is broken")
	}
	for _, e := range entries {
		if e.Unsafe() {
			t.Errorf("unguarded shared field %s.%s.%s (sites: %v)", e.Pkg, e.Type, e.Field, e.Unguarded)
		}
	}
}

func keys(m map[string]lint.CensusEntry) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
