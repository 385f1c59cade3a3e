package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
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

// TestKillAndResume: a sweep killed between sections, restarted with
// -resume, must (a) skip the sections the journal records complete,
// (b) re-simulate only the unfinished ones, and (c) leave artifacts
// byte-identical to an uninterrupted run.
func TestKillAndResume(t *testing.T) {
	// Ground truth: one uninterrupted run.
	cleanDir := t.TempDir()
	if err := run(resumeSweep(cleanDir)); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: journaled, killed after the first section
	// (Table 3) completes.
	workDir := t.TempDir()
	journal := filepath.Join(workDir, "sweep.journal")
	icfg := resumeSweep(workDir)
	icfg.journalPath = journal
	icfg.interruptAfter = 1
	if err := run(icfg); !errors.Is(err, errInterrupted) {
		t.Fatalf("interrupt hook: err = %v, want errInterrupted", err)
	}

	// Resume: Table 3 must be skipped (not re-rendered), Figure 2 run.
	var out bytes.Buffer
	rcfg := resumeSweep(workDir)
	rcfg.journalPath = journal
	rcfg.resume = true
	rcfg.out = &out
	if err := run(rcfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "[Table 3 already complete") {
		t.Errorf("resume did not skip the journaled section:\n%s", out.String())
	}
	if strings.Contains(out.String(), "Table 3 regenerated") {
		t.Error("resume re-simulated a completed section")
	}
	if !strings.Contains(out.String(), "Figure 2 regenerated") {
		t.Error("resume did not run the unfinished section")
	}

	// Artifacts from the interrupted-then-resumed pipeline must be
	// byte-identical to the uninterrupted run's.
	for _, name := range []string{"table3.txt", "table3.csv", "figure2.txt", "figure2.csv", "figure2.svg"} {
		want, err := os.ReadFile(filepath.Join(cleanDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(workDir, name))
		if err != nil {
			t.Fatalf("%s missing after resume: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between resumed and uninterrupted runs", name)
		}
	}

	// A second resume skips everything.
	out.Reset()
	if err := run(rcfg); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "regenerated") {
		t.Errorf("fully-complete resume still re-simulated:\n%s", out.String())
	}
}

// TestResumeRejectsForeignJournal: resuming against a journal written
// under a different configuration must fail, not silently skip.
func TestResumeRejectsForeignJournal(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "sweep.journal")
	cfg := resumeSweep(dir)
	cfg.figure = 0 // Table 3 only: cheap
	cfg.journalPath = journal
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	foreign := cfg
	foreign.resume = true
	foreign.scale = 0.5
	if err := run(foreign); err == nil {
		t.Fatal("resume accepted a journal from a different scale")
	} else if !strings.Contains(err.Error(), "binding mismatch") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestFreshRunTruncatesJournal: without -resume, an existing journal is
// discarded instead of silently skipping live sections.
func TestFreshRunTruncatesJournal(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "sweep.journal")
	cfg := resumeSweep(dir)
	cfg.figure = 0
	cfg.journalPath = journal
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	cfg.out = &out
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table 3 regenerated") {
		t.Errorf("fresh run skipped a section from a stale journal:\n%s", out.String())
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
