package main

import (
	"io"
	"log/slog"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/serve/rescache"
	"repro/internal/store"
)

// TestServeFailureDrainsStore holds a failed listener to the signal
// path's shutdown: once the coordinator's listener stops accepting, it
// exits with the error code, but only after it has drained and closed its
// store, so the directory's lock is free and the sweep it ran is on disk.
func TestServeFailureDrainsStore(t *testing.T) {
	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	code := make(chan int, 1)
	go func() {
		code <- coordOn(log, ln, cluster.Options{HeartbeatTimeout: 500 * time.Millisecond}, dir)
	}()
	base := "http://" + ln.Addr().String()

	worker := serve.NewServer(serve.Options{Workers: 1})
	ts := httptest.NewServer(worker.Handler())
	defer ts.Close()
	defer worker.Drain()
	agent := cluster.StartAgent(base, "w0", ts.URL, 20*time.Millisecond, nil)
	defer agent.Stop()

	cl := client.New(base)
	cl.Policy = retry.Policy{MaxAttempts: 65, BaseDelay: 10 * time.Millisecond}
	acc, err := cl.Sweep(&serve.SweepRequest{
		Params:     &serve.Params{Scale: 0.1, Seed: 3},
		Apps:       []string{"MP3D"},
		Algorithms: []string{"LOAD-BAL"},
		Procs:      []int{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err := cl.WaitJob(acc.Job, 5*time.Millisecond, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if job.Status != serve.StatusDone || len(job.Results) != 1 {
		t.Fatalf("sweep ended %s with %d results: %s", job.Status, len(job.Results), job.Error)
	}

	ln.Close() // every later Accept fails
	select {
	case c := <-code:
		if c != obs.CodeError {
			t.Fatalf("exit code %d after a listener failure, want %d", c, obs.CodeError)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("coordinator did not exit after its listener failed")
	}

	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopening the store: %v", err)
	}
	defer st.Close()
	// The job record (at the address internal/cluster/durable.go gives
	// it) and the one harvested cell.
	if _, ok := st.Get(store.Key(rescache.SumStrings("mtcoord-job-v1", acc.Job))); !ok {
		t.Errorf("store holds no job record for %s", acc.Job)
	}
	if n := st.Len(); n != 2 {
		t.Errorf("store holds %d records, want the job record and its cell", n)
	}
}
