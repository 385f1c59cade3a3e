package main

import (
	"io"
	"testing"

	"repro/internal/obs"
)

func TestParseProcs(t *testing.T) {
	got, err := parseProcs("2,4, 8,16")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 4, 8, 16}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", "a", "0", "-3", "2,,4"} {
		if _, err := parseProcs(bad); err == nil {
			t.Errorf("parseProcs(%q) accepted", bad)
		}
	}
}

// testSweep returns the small sweep configuration the cmd tests share.
func testSweep() sweepCfg {
	return sweepCfg{scale: 1, seed: 1, procs: "2", fig5app: "MP3D", out: io.Discard}
}

func TestRunRejectsEmptySelection(t *testing.T) {
	cfg := testSweep()
	if err := run(cfg); err == nil {
		t.Error("empty selection accepted")
	}
	cfg.procs = "bogus"
	if err := run(cfg); err == nil {
		t.Error("bad procs accepted")
	}
}

func TestRunSingleTable(t *testing.T) {
	cfg := testSweep()
	cfg.table = 3
	cfg.outdir = t.TempDir()
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunUsageErrors(t *testing.T) {
	cfg := testSweep()
	if err := run(cfg); !obs.IsUsage(err) {
		t.Errorf("empty selection: err = %v, want usage error", err)
	}
	bad := testSweep()
	bad.procs = "bogus"
	if err := run(bad); !obs.IsUsage(err) {
		t.Errorf("bad procs: err = %v, want usage error", err)
	}
}
