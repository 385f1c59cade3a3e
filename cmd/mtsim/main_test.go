package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/obstest"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testRun invokes run with discarded output and a buffer-backed logger.
func testRun(o options) error {
	var out, logs bytes.Buffer
	return run(o, &out, obs.NewLogger(&logs, false))
}

func base() options {
	return options{app: "Grav", alg: "LOAD-BAL", procs: 4, scale: 0.25, seed: 1, assoc: 1, sampleWindow: 10000}
}

func TestRunModes(t *testing.T) {
	o := base()
	o.app = ""
	if err := testRun(o); err == nil {
		t.Error("missing app accepted")
	} else if !obs.IsUsage(err) {
		t.Errorf("missing app is not a usage error: %v", err)
	}

	o = base()
	o.alg = "NOPE"
	if err := testRun(o); err == nil {
		t.Error("unknown algorithm accepted")
	}

	o = base()
	o.perProc, o.assoc, o.contexts, o.wruns = true, 2, 2, true
	if err := testRun(o); err != nil {
		t.Errorf("full-feature run: %v", err)
	}

	o = base()
	o.alg, o.infinite = "SHARE-REFS", true
	if err := testRun(o); err != nil {
		t.Errorf("infinite-cache run: %v", err)
	}

	o = base()
	o.alg, o.dynamic, o.contexts = "", "longest-first", 2
	if err := testRun(o); err != nil {
		t.Errorf("dynamic run: %v", err)
	}

	o = base()
	o.alg, o.dynamic = "", "bogus"
	if err := testRun(o); err == nil {
		t.Error("bad dynamic policy accepted")
	} else if !obs.IsUsage(err) {
		t.Errorf("bad dynamic policy is not a usage error: %v", err)
	}
}

// TestRandomCellMatchesSuite: mtsim resolves a cell through core.Suite,
// so its RANDOM execution time is the one experiments and mtserve report
// for the same app, processors, scale and seed.
func TestRandomCellMatchesSuite(t *testing.T) {
	o := base()
	o.app, o.alg, o.seed = "Gauss", "RANDOM", 1994
	var out, logs bytes.Buffer
	if err := run(o, &out, obs.NewLogger(&logs, false)); err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Params = workload.Params{Scale: o.scale, Seed: o.seed}
	res, err := core.NewSuite(opts).RunOne(o.app, o.alg, o.procs, o.infinite)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("execution time: %d cycles\n", res.ExecTime); !strings.Contains(out.String(), want) {
		t.Fatalf("mtsim printed:\n%s\nwant the Suite's %q", out.String(), want)
	}
}

// TestTimelineOutput runs mtsim with every telemetry flag set and
// validates the artifacts: the timeline must be schema-valid trace-event
// JSON, the sample CSV and sparkline SVG non-empty and well-formed.
func TestTimelineOutput(t *testing.T) {
	dir := t.TempDir()
	o := base()
	o.timeline = filepath.Join(dir, "run.json")
	o.sample = filepath.Join(dir, "run.csv")
	o.sparkline = filepath.Join(dir, "run.svg")
	o.sampleWindow = 5000
	if err := testRun(o); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(o.timeline)
	if err != nil {
		t.Fatal(err)
	}
	obstest.CheckTraceEventJSON(t, raw)

	csvRaw, err := os.ReadFile(o.sample)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csvRaw)), "\n")
	if len(lines) < 2 {
		t.Errorf("sample CSV has %d lines, want header + windows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "start,end,refs") {
		t.Errorf("sample CSV header = %q", lines[0])
	}

	svgRaw, err := os.ReadFile(o.sparkline)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(svgRaw), "<svg") || !strings.Contains(string(svgRaw), "miss_rate_%") {
		t.Errorf("sparkline SVG malformed: %.80q", svgRaw)
	}
}

// TestTimelineDynamic checks telemetry also works through the dynamic
// scheduling path.
func TestTimelineDynamic(t *testing.T) {
	dir := t.TempDir()
	o := base()
	o.alg, o.dynamic, o.contexts = "", "fifo", 2
	o.timeline = filepath.Join(dir, "dyn.json")
	if err := testRun(o); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(o.timeline)
	if err != nil {
		t.Fatal(err)
	}
	obstest.CheckTraceEventJSON(t, raw)
}

// TestZeroSampleWindowRejected locks the flag validation path.
func TestZeroSampleWindowRejected(t *testing.T) {
	o := base()
	o.sample, o.sampleWindow = "x.csv", 0
	err := testRun(o)
	if err == nil || !obs.IsUsage(err) {
		t.Errorf("zero sample window: err = %v, want usage error", err)
	}
}

// TestMaxSteps: the -maxsteps watchdog aborts a run with a typed budget
// diagnostic, for both static and dynamic scheduling.
func TestMaxSteps(t *testing.T) {
	o := base()
	o.maxSteps = 10
	err := testRun(o)
	var be *sim.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("static run: err = %v, want *sim.BudgetError", err)
	}
	o.dynamic = "fifo"
	if err := testRun(o); !errors.As(err, &be) {
		t.Fatalf("dynamic run: err = %v, want *sim.BudgetError", err)
	}

	// A generous budget must not perturb the run.
	o = base()
	o.maxSteps = 1 << 40
	if err := testRun(o); err != nil {
		t.Fatalf("loose budget aborted the run: %v", err)
	}
}
