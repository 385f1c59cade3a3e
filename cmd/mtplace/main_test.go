package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

func TestRunModes(t *testing.T) {
	if err := run(io.Discard, true, "", "", 0, 1, 1, false, false); err != nil {
		t.Errorf("algs mode: %v", err)
	}
	if err := run(io.Discard, false, "", "", 4, 1, 1, false, false); err == nil {
		t.Error("missing app accepted")
	} else if !obs.IsUsage(err) {
		t.Errorf("missing app is not a usage error: %v", err)
	}
	if err := run(io.Discard, false, "Grav", "NOPE", 4, 0.25, 1, false, false); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run(io.Discard, false, "Grav", "LOAD-BAL", 4, 0.25, 1, true, false); err != nil {
		t.Errorf("single algorithm: %v", err)
	}
	if err := run(io.Discard, false, "Grav", "", 4, 0.25, 1, false, true); err != nil {
		t.Errorf("all algorithms + extensions: %v", err)
	}
	var out bytes.Buffer
	if err := run(&out, false, "Grav", "KL-SHARE", 4, 0.25, 1, false, true); err != nil {
		t.Errorf("one extension algorithm: %v", err)
	} else if rows := strings.Count(out.String(), "\n"); rows != 4 || !strings.Contains(out.String(), "\nKL-SHARE ") {
		t.Errorf("-ext -alg KL-SHARE printed %d lines, want the KL-SHARE row alone:\n%s", rows, &out)
	}
	if err := run(io.Discard, false, "Grav", "KL-SHARE", 4, 0.25, 1, false, false); err == nil {
		t.Error("extension algorithm accepted without -ext")
	}
}

// TestRandomMapMatchesSuite: mtplace resolves a cell through core.Suite,
// so its RANDOM map is the one experiments and mtserve simulate for the
// same app, processors, scale and seed.
func TestRandomMapMatchesSuite(t *testing.T) {
	const app, procs, scale, seed = "Gauss", 4, 0.25, 1994
	var out bytes.Buffer
	if err := run(&out, false, app, "RANDOM", procs, scale, seed, true, false); err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Params = workload.Params{Scale: scale, Seed: seed}
	want, err := core.NewSuite(opts).Place(app, "RANDOM", procs)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, _ := strings.Cut(out.String(), "\n"); got != want.String() {
		t.Fatalf("mtplace RANDOM map:\n%s\nSuite's:\n%s", got, want)
	}
}
