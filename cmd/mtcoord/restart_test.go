package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs/obstest"
	"repro/internal/retry"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// TestMain re-executes the test binary as a real mtcoord daemon when the
// reexec env var is set: the kill -9 test needs an actual process to
// SIGKILL, and re-exec avoids shelling out to the go tool from a test.
func TestMain(m *testing.M) {
	if args := os.Getenv("MTCOORD_REEXEC_ARGS"); args != "" {
		os.Exit(run(strings.Split(args, "\x1f")))
	}
	os.Exit(m.Run())
}

// startCoordinator launches mtcoord -store-dir dir on an ephemeral port
// and returns the process and its base URL once it logs its address.
func startCoordinator(t *testing.T, dir string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "MTCOORD_REEXEC_ARGS="+strings.Join([]string{
		"-addr", "127.0.0.1:0",
		"-store-dir", dir,
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
			if line := sc.Text(); strings.Contains(line, "mtcoord listening") {
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
		return cmd, "http://" + addr
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("coordinator never reported its listen address")
		return nil, ""
	}
}

// joinWorker starts an in-process worker, registers it with the
// coordinator at base and waits until the coordinator counts it live.
// The returned stop leaves the cluster and drains the worker.
func joinWorker(t *testing.T, base string, beforeCell func()) (stop func()) {
	t.Helper()
	srv := serve.NewServer(serve.Options{Workers: 2, BeforeCell: beforeCell})
	ts := httptest.NewServer(srv.Handler())
	agent := cluster.StartAgent(base, "w0", ts.URL, 20*time.Millisecond, nil)
	stop = func() {
		agent.Stop()
		srv.Drain()
		ts.Close()
	}
	cl := client.New(base)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if h, err := cl.Health(); err == nil && h.Workers == 1 {
			return stop
		}
		if time.Now().After(deadline) {
			stop()
			t.Fatal("worker never joined the coordinator")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runDone submits req and polls it to a terminal state, which must be
// done.
func runDone(t *testing.T, cl *client.Client, req *serve.SweepRequest) *serve.JobStatus {
	t.Helper()
	acc, err := cl.Sweep(req)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.WaitJob(acc.Job, 5*time.Millisecond, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != serve.StatusDone {
		t.Fatalf("sweep %s ended %s: %s", acc.Job, st.Status, st.Error)
	}
	return st
}

// artifact renders a finished sweep's per-cell results as canonical
// JSON, without serving metadata such as the Cached flag.
func artifact(t *testing.T, st *serve.JobStatus) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range st.Results {
		b, err := json.Marshal(r.Result)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s/%s/%d key=%s %s\n", r.App, r.Algorithm, r.Procs, r.Key, b)
	}
	return buf.Bytes()
}

// TestKillDashNineMidSweepResubmit: a client learns a sweep's outcome
// across a coordinator kill -9 from the job stream alone. Life 1
// finishes sweep A — done means harvested and flushed — and dies
// mid-way through a larger sweep B that contains A's cells. In life 2,
// on the same -store-dir and with a fresh worker, the client resubmits
// B and follows GET /v1/jobs/{id}/events to a terminal "done"; B's
// results equal an uninterrupted run's byte for byte, and every cell of
// A comes back from the store.
func TestKillDashNineMidSweepResubmit(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	params := &serve.Params{Scale: 0.1, Seed: 7}
	a := &serve.SweepRequest{Params: params, Apps: []string{"MP3D", "Gauss"},
		Algorithms: []string{"RANDOM", "LOAD-BAL"}, Procs: []int{2, 4}}
	b := &serve.SweepRequest{Params: params, Apps: []string{"MP3D", "Gauss", "Water"},
		Algorithms: []string{"RANDOM", "LOAD-BAL", "SHARE-REFS"}, Procs: []int{2, 4, 8}}
	dir := t.TempDir()

	// The uninterrupted reference: B on one in-process worker.
	ref := serve.NewServer(serve.Options{Workers: 2})
	refTS := httptest.NewServer(ref.Handler())
	want := artifact(t, runDone(t, client.New(refTS.URL), b))
	refTS.Close()
	ref.Drain()

	// Life 1: a slowed worker, so B is still running at the kill.
	coord1, base1 := startCoordinator(t, dir)
	stop1 := joinWorker(t, base1, func() { time.Sleep(20 * time.Millisecond) })
	cl := client.New(base1)
	cl.Policy = retry.Policy{MaxAttempts: 65, BaseDelay: 10 * time.Millisecond}
	stA := runDone(t, cl, a)
	accB, err := cl.Sweep(b)
	if err != nil {
		t.Fatal(err)
	}
	for {
		st, err := cl.Job(accB.Job)
		if err != nil {
			t.Fatal(err)
		}
		if st.Status != serve.StatusQueued && st.Status != serve.StatusRunning {
			t.Fatalf("sweep B ended %s before the kill", st.Status)
		}
		if st.Completed > stA.Cells {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := coord1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = coord1.Wait()
	stop1()

	// Life 2: the worker's cache is cold, so a cached cell came from the
	// coordinator's store.
	coord2, base2 := startCoordinator(t, dir)
	defer func() {
		_ = coord2.Process.Signal(syscall.SIGTERM)
		_ = coord2.Wait()
	}()
	stop2 := joinWorker(t, base2, nil)
	defer stop2()
	cl2 := client.New(base2)
	cl2.Policy = cl.Policy
	if st, err := cl2.Job(accB.Job); err != nil || st.Status != serve.StatusRetriable {
		t.Fatalf("interrupted B after restart: %+v, %v; want retriable", st, err)
	}
	accB2, err := cl2.Sweep(b)
	if err != nil {
		t.Fatal(err)
	}
	if accB2.Job != accB.Job {
		t.Fatalf("resubmitted B as %s, want %s", accB2.Job, accB.Job)
	}
	events, cancel := obstest.OpenSSE(t, base2+"/v1/jobs/"+accB2.Job+"/events")
	defer cancel()
	var last serve.JobEvent
	for ev := range events {
		if ev.Kind != "job" {
			continue
		}
		if err := json.Unmarshal(ev.Data, &last); err != nil {
			t.Fatalf("bad job event %s: %v", ev.Data, err)
		}
	}
	if last.Status != serve.StatusDone {
		t.Fatalf("stream of B ended %s: %s", last.Status, last.Error)
	}
	stB, err := cl2.Job(accB2.Job)
	if err != nil {
		t.Fatal(err)
	}
	if got := artifact(t, stB); !bytes.Equal(got, want) {
		t.Fatalf("B after kill -9 differs from an uninterrupted run:\nwant:\n%s\ngot:\n%s", want, got)
	}
	inA := map[string]bool{}
	for _, r := range stA.Results {
		inA[r.Key] = true
	}
	for i, r := range stB.Results {
		if inA[r.Key] && !r.Cached {
			t.Errorf("cell %d (%s/%s/%d) of sweep A re-executed; want it from the store", i, r.App, r.Algorithm, r.Procs)
		}
	}
}
