package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
)

// TestMain re-executes the test binary as a real mtserve daemon when the
// reexec env var is set: the kill -9 test needs an actual process to
// SIGKILL, and re-exec avoids shelling out to the go tool from a test.
func TestMain(m *testing.M) {
	if args := os.Getenv("MTSERVE_REEXEC_ARGS"); args != "" {
		os.Exit(run(strings.Split(args, "\x1f")))
	}
	os.Exit(m.Run())
}

// daemon is one subprocess mtserve life.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// startDaemon launches mtserve -store-dir dir on an ephemeral port and
// waits for its "mtserve listening" line to learn the address.
func startDaemon(t *testing.T, dir string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "MTSERVE_REEXEC_ARGS="+strings.Join([]string{
		"-addr", "127.0.0.1:0",
		"-store-dir", dir,
		"-workers", "2",
	}, "\x1f"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, "mtserve listening") {
				for _, f := range strings.Fields(line) {
					if a, ok := strings.CutPrefix(f, "addr="); ok {
						addrc <- a
					}
				}
			}
		}
	}()
	select {
	case addr := <-addrc:
		return &daemon{cmd: cmd, base: "http://" + addr}
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("daemon never reported its listen address")
		return nil
	}
}

// restartSweep is the fixed sweep both lives run.
func restartSweep(seed int64) *serve.SweepRequest {
	return &serve.SweepRequest{
		Params:     &serve.Params{Scale: 0.1, Seed: seed},
		Apps:       []string{"MP3D", "Gauss"},
		Algorithms: []string{"RANDOM", "LOAD-BAL"},
		Procs:      []int{2, 4},
	}
}

// artifact reduces a finished sweep to its durable payload — the per-cell
// simulation results, excluding serving metadata like the Cached flag —
// rendered as canonical JSON for byte comparison across lives.
func artifact(t *testing.T, st *serve.JobStatus) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range st.Results {
		fmt.Fprintf(&buf, "%s/%s/%d key=%s ", r.App, r.Algorithm, r.Procs, r.Key)
		b, err := json.Marshal(r.Result)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestKillDashNineWarmRestart is the crash-recovery differential: a
// server killed with SIGKILL — no drain, no flush, mid-write on a second
// sweep — must restart on the same store directory, recover cleanly, and
// serve the first sweep's results byte-identical from disk.
func TestKillDashNineWarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()

	// Life 1: complete sweep A, let the write-behind flusher land it.
	d1 := startDaemon(t, dir)
	cl := client.New(d1.base)
	cl.MaxRetries = 64
	cl.RetryWait = 10 * time.Millisecond
	acc, err := cl.Sweep(restartSweep(7))
	if err != nil {
		t.Fatal(err)
	}
	stA, err := cl.WaitJob(acc.Job, 5*time.Millisecond, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if stA.Status != serve.StatusDone {
		t.Fatalf("sweep A ended %s: %s", stA.Status, stA.Error)
	}
	want := artifact(t, stA)

	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := cl.Health()
		if err == nil && h.Store != nil && h.Store.Puts >= uint64(stA.Cells) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("store never absorbed %d puts", stA.Cells)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The puts are enqueued; give the flusher a beat to put them on disk.
	time.Sleep(300 * time.Millisecond)

	// Start sweep B and SIGKILL mid-flight: the live segment may be torn
	// mid-frame — exactly the crash recovery must absorb.
	if _, err := cl.Sweep(restartSweep(8)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := d1.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = d1.cmd.Wait()

	// Life 2: recovery must be clean (no panic, health ok) and sweep A
	// must come back byte-identical without recomputing.
	d2 := startDaemon(t, dir)
	defer func() {
		_ = d2.cmd.Process.Signal(syscall.SIGTERM)
		_ = d2.cmd.Wait()
	}()
	cl2 := client.New(d2.base)
	cl2.MaxRetries = 64
	cl2.RetryWait = 10 * time.Millisecond
	h, err := cl2.Health()
	if err != nil {
		t.Fatalf("health after kill -9 restart: %v", err)
	}
	if h.Store == nil || h.Store.Entries == 0 {
		t.Fatalf("store recovered empty after kill -9: %+v", h.Store)
	}

	acc2, err := cl2.Sweep(restartSweep(7))
	if err != nil {
		t.Fatal(err)
	}
	stA2, err := cl2.WaitJob(acc2.Job, 5*time.Millisecond, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if stA2.Status != serve.StatusDone {
		t.Fatalf("sweep A rerun ended %s: %s", stA2.Status, stA2.Error)
	}
	got := artifact(t, stA2)
	if !bytes.Equal(want, got) {
		t.Fatalf("artifacts diverged across kill -9 restart:\nfirst life:\n%s\nsecond life:\n%s", want, got)
	}
	for i, r := range stA2.Results {
		if !r.Cached {
			t.Errorf("cell %d recomputed after restart; want served from the store", i)
		}
	}
	h2, err := cl2.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h2.Store.Hits == 0 {
		t.Errorf("zero store hits serving the recovered sweep: %+v", h2.Store)
	}

	// Graceful exit of life 2 must seal cleanly: a third open sees zero
	// quarantine and zero torn tails.
	_ = d2.cmd.Process.Signal(syscall.SIGTERM)
	if err := d2.cmd.Wait(); err != nil {
		t.Fatalf("life 2 exit: %v", err)
	}
	d3 := startDaemon(t, dir)
	defer func() {
		_ = d3.cmd.Process.Signal(syscall.SIGTERM)
		_ = d3.cmd.Wait()
	}()
	cl3 := client.New(d3.base)
	h3, err := cl3.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h3.Store == nil || h3.Store.Entries == 0 {
		t.Fatalf("third life recovered empty: %+v", h3.Store)
	}
}
