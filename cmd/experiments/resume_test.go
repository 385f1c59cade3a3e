package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// resumeSweep is the two-section sweep (Table 3, then Figure 2) the
// kill-and-resume tests interrupt. Scale 0.25 keeps it fast.
func resumeSweep(outdir string) sweepCfg {
	return sweepCfg{
		table: 3, figure: 2,
		scale: 0.25, seed: 1, procs: "2", fig5app: "MP3D",
		outdir: outdir, out: io.Discard,
	}
}

// figure2Cells is the number of cells Figure 2 simulates at -procs 2:
// one per placement algorithm.
var figure2Cells = len(core.AllAlgorithms())

// sectionRe matches a section's status line under -store-dir.
var sectionRe = regexp.MustCompile(`\[(.+?) regenerated in \S+: (\d+) cells simulated, (\d+) from the store\]`)

// sectionCounts parses every section's (simulated, from store) counts
// out of a sweep's output.
func sectionCounts(t *testing.T, out string) map[string][2]int {
	t.Helper()
	counts := make(map[string][2]int)
	for _, m := range sectionRe.FindAllStringSubmatch(out, -1) {
		sim, _ := strconv.Atoi(m[2])
		stored, _ := strconv.Atoi(m[3])
		counts[m[1]] = [2]int{sim, stored}
	}
	return counts
}

// sameArtifacts fails unless every named artifact in got equals want's.
func sameArtifacts(t *testing.T, wantDir, gotDir string, names ...string) {
	t.Helper()
	for _, name := range names {
		want, err := os.ReadFile(filepath.Join(wantDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(gotDir, name))
		if err != nil {
			t.Fatalf("%s missing: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the uninterrupted run's", name)
		}
	}
}

var resumeArtifacts = []string{"table3.txt", "table3.csv", "figure2.txt", "figure2.csv", "figure2.svg"}

// TestKillAndResume: a sweep killed after k simulated cells of Figure 2,
// rerun on the same -store-dir, must (a) read the k stored cells and
// simulate only the rest, and (b) leave artifacts byte-identical to an
// uninterrupted run. A third run simulates nothing.
func TestKillAndResume(t *testing.T) {
	// Ground truth: one uninterrupted run without a store.
	cleanDir := t.TempDir()
	if err := run(resumeSweep(cleanDir)); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: killed after 5 of Figure 2's cells.
	workDir := t.TempDir()
	storeDir := filepath.Join(workDir, "store")
	icfg := resumeSweep(workDir)
	icfg.storeDir = storeDir
	icfg.abortAfterCells = 5
	if err := run(icfg); !errors.Is(err, errInterrupted) {
		t.Fatalf("interrupt hook: err = %v, want errInterrupted", err)
	}

	// Rerun: every section renders; Figure 2 simulates only the cells
	// the interrupted run did not store.
	var out bytes.Buffer
	rcfg := resumeSweep(workDir)
	rcfg.storeDir = storeDir
	rcfg.out = &out
	if err := run(rcfg); err != nil {
		t.Fatal(err)
	}
	counts := sectionCounts(t, out.String())
	if _, ok := counts["Table 3"]; !ok {
		t.Errorf("Table 3 did not render on the rerun:\n%s", out.String())
	}
	fig2, ok := counts["Figure 2"]
	if !ok {
		t.Fatalf("Figure 2 did not render on the rerun:\n%s", out.String())
	}
	if fig2[0] < 1 || fig2[0] >= figure2Cells {
		t.Errorf("rerun simulated %d of Figure 2's %d cells, want at least 1 and fewer than all", fig2[0], figure2Cells)
	}
	if fig2[1] < 1 {
		t.Errorf("rerun read %d cells from the store, want the interrupted run's", fig2[1])
	}
	sameArtifacts(t, cleanDir, workDir, resumeArtifacts...)

	// A third run simulates no static cell.
	out.Reset()
	if err := run(rcfg); err != nil {
		t.Fatal(err)
	}
	for name, c := range sectionCounts(t, out.String()) {
		if c[0] != 0 {
			t.Errorf("%s simulated %d cells on a full store", name, c[0])
		}
	}
	if c := sectionCounts(t, out.String())["Figure 2"]; c[1] == 0 {
		t.Errorf("Figure 2 read nothing from a full store:\n%s", out.String())
	}
	sameArtifacts(t, cleanDir, workDir, resumeArtifacts...)
}

// TestStoreServesNothingAcrossScales: cells are content-addressed, so a
// store filled at one scale serves nothing to a run at another, and that
// run's artifacts equal a clean run's.
func TestStoreServesNothingAcrossScales(t *testing.T) {
	storeDir := t.TempDir()
	cfg := resumeSweep(t.TempDir())
	cfg.storeDir = storeDir
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}

	cleanDir := t.TempDir()
	clean := resumeSweep(cleanDir)
	clean.scale = 0.5
	if err := run(clean); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	otherDir := t.TempDir()
	other := resumeSweep(otherDir)
	other.scale = 0.5
	other.storeDir = storeDir
	other.out = &out
	if err := run(other); err != nil {
		t.Fatal(err)
	}
	fig2, ok := sectionCounts(t, out.String())["Figure 2"]
	if !ok || fig2[1] != 0 || fig2[0] == 0 {
		t.Errorf("scale 0.5 run on a scale 0.25 store: Figure 2 counts %v (rendered %v), want all simulated, 0 from the store", fig2, ok)
	}
	sameArtifacts(t, cleanDir, otherDir, resumeArtifacts...)
}

// TestStoreSharedWithServer: experiments -store-dir and mtserve write one
// format. A server opened on the directory a Figure 2 run filled serves
// one of its cells from the store without simulating, deep-equal to the
// library's result.
func TestStoreSharedWithServer(t *testing.T) {
	dir := t.TempDir()
	cfg := resumeSweep(t.TempDir())
	cfg.table = 0
	cfg.storeDir = dir
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := serve.NewServer(serve.Options{Store: st})
	defer srv.Drain()
	params := serve.Params{Scale: cfg.scale, Seed: cfg.seed}
	resp, _, err := srv.Simulate(context.Background(), &serve.SimulateRequest{
		Params: &params, App: "LocusRoute", Algorithm: "SHARE-REFS", Procs: 2,
	}, obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("server simulated a cell experiments had stored")
	}
	if runs, _ := srv.Guard().Stats(); runs != 0 {
		t.Errorf("server ran the engine %d times, want 0", runs)
	}

	lib := core.DefaultOptions()
	lib.Params = workload.Params{Scale: cfg.scale, Seed: cfg.seed}
	want, err := core.NewSuite(lib).RunOne("LocusRoute", "SHARE-REFS", 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Result, want) {
		t.Error("stored cell differs from the library's result")
	}
}

// TestRunStepBudget: -maxsteps aborts a runaway simulation with a typed
// diagnostic instead of hanging.
func TestRunStepBudget(t *testing.T) {
	cfg := resumeSweep(t.TempDir())
	cfg.table = 0
	cfg.maxSteps = 10
	err := run(cfg)
	var be *sim.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *sim.BudgetError", err)
	}
}
