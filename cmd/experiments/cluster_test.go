package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// experimentCluster is a coordinator with n mtserve workers, all
// in-process over real HTTP — the -remote differential's cluster twin.
type experimentCluster struct {
	coord   *cluster.Coordinator
	coordTS *httptest.Server
	servers []*httptest.Server
	workers []*serve.Server
	agents  []*cluster.Agent
}

func startExperimentCluster(t *testing.T, n int) *experimentCluster {
	t.Helper()
	coord, err := cluster.New(cluster.Options{
		HeartbeatTimeout: 500 * time.Millisecond,
		PollInterval:     2 * time.Millisecond,
		LeaseChunk:       4,
		Journal:          filepath.Join(t.TempDir(), "mtcoord.mtj"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ec := &experimentCluster{coord: coord, coordTS: httptest.NewServer(coord.Handler())}
	for i := 0; i < n; i++ {
		srv := serve.NewServer(serve.Options{Workers: 2})
		ts := httptest.NewServer(srv.Handler())
		ec.workers = append(ec.workers, srv)
		ec.servers = append(ec.servers, ts)
		ec.agents = append(ec.agents, cluster.StartAgent(
			ec.coordTS.URL, []string{"w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"}[i],
			ts.URL, 50*time.Millisecond, nil))
	}
	t.Cleanup(func() {
		for i := range ec.workers {
			ec.agents[i].Stop()
			ec.servers[i].Close()
			ec.workers[i].Drain()
		}
		ec.coord.Drain()
		ec.coordTS.Close()
	})
	cl := client.New(ec.coordTS.URL)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if h, err := cl.Health(); err == nil && h.Workers >= n {
			return ec
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never reached %d workers", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// killWorker makes worker i unreachable: heartbeats stop and every proxy
// attempt gets a transport error, so the coordinator must fail the cells
// over to the surviving workers.
func (ec *experimentCluster) killWorker(i int) {
	ec.agents[i].Stop()
	ec.servers[i].Close()
	ec.workers[i].Drain()
}

// cacheMisses sums result-cache misses across the live workers.
func (ec *experimentCluster) cacheMisses() uint64 {
	var total uint64
	for _, w := range ec.workers {
		total += w.CacheStats().Misses
	}
	return total
}

// TestClusterSweepArtifactsMatchLocal: the Table 3 / Figure 2 sweep
// pointed at a coordinator with four workers must emit artifacts
// byte-identical to the in-process run — the cluster, like the single
// server before it, adds transport and scheduling, never arithmetic.
// This drives the coordinator's /v1/simulate proxy with the explicit
// placements the -remote runner ships, then repeats the differential
// with one worker killed to prove failover does not bend a single byte.
func TestClusterSweepArtifactsMatchLocal(t *testing.T) {
	artifacts := []string{"table3.txt", "table3.csv", "figure2.txt", "figure2.csv", "figure2.svg"}

	localDir := t.TempDir()
	if err := run(resumeSweep(localDir)); err != nil {
		t.Fatal(err)
	}

	ec := startExperimentCluster(t, 4)

	clusterDir := t.TempDir()
	rcfg := resumeSweep(clusterDir)
	rcfg.remote = ec.coordTS.URL
	if err := run(rcfg); err != nil {
		t.Fatal(err)
	}
	for _, name := range artifacts {
		want, err := os.ReadFile(filepath.Join(localDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(clusterDir, name))
		if err != nil {
			t.Fatalf("%s missing from cluster run: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between local and cluster sweeps", name)
		}
	}
	if ec.cacheMisses() == 0 {
		t.Fatal("worker caches saw no traffic: the sweep did not go through the cluster")
	}

	// Chaos pass: kill one worker, then run the identical sweep again.
	// Cells whose rendezvous preference was the dead worker must fail
	// over (first attempt errors, the worker is marked dead, the next
	// candidate serves) — and the artifacts still cannot change.
	ec.killWorker(0)
	chaosDir := t.TempDir()
	ccfg := resumeSweep(chaosDir)
	ccfg.remote = ec.coordTS.URL
	if err := run(ccfg); err != nil {
		t.Fatalf("sweep with a killed worker: %v", err)
	}
	for _, name := range artifacts {
		want, _ := os.ReadFile(filepath.Join(localDir, name))
		got, err := os.ReadFile(filepath.Join(chaosDir, name))
		if err != nil {
			t.Fatalf("%s missing after worker kill: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs after killing a worker mid-fleet", name)
		}
	}
	if snap := ec.coord.Metrics().Snapshot(); snap["coordinator_worker_deaths_total"] == 0 {
		t.Error("coordinator never noticed the killed worker")
	}
}
