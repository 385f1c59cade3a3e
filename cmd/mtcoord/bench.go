package main

import (
	"fmt"
	"log/slog"
	"net/http/httptest"
	"os"
	"reflect"
	"time"

	"repro/internal/cluster"
	"repro/internal/loadgen"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// The cluster scaling benchmark. It runs the same sweep against
// coordinators with 1, 2, ... workers — every worker an in-process
// mtserve with a single simulation slot and a per-cell service-time
// floor (Options.MinCellTime) modeling the wall-clock of full-scale
// cells. On a one-core CI box the raw simulation arithmetic cannot
// speed up, so the floor is what makes the measurement honest: the
// benchmark gates the coordinator's *pipeline* — routing, leasing,
// harvesting and stealing must overlap N workers' service times, and a
// serialized scheduler would show flat throughput no matter how many
// workers register. Correctness is a hard gate too: every run's sweep
// results must deep-equal the direct library ground truth.

// benchConfig parameterizes the benchmark.
type benchConfig struct {
	maxWorkers int
	scale      float64
	seed       int64
	minCell    time.Duration
	out        string
}

// benchClusterRun is one measured worker count.
type benchClusterRun struct {
	Workers     int     `json:"workers"`
	Seconds     float64 `json:"seconds"`
	CellsPerSec float64 `json:"cells_per_sec"`
	Speedup     float64 `json:"speedup_vs_1"`
	Leases      int64   `json:"leases"`
	Steals      int64   `json:"steals"`
	Requeues    int64   `json:"requeues"`
	// Lease lifetime (grant to final harvest) percentiles from the
	// coordinator_lease_harvest_us histogram; bucket upper bounds in ms.
	HarvestP50Ms float64 `json:"lease_harvest_p50_ms"`
	HarvestP90Ms float64 `json:"lease_harvest_p90_ms"`
	HarvestP99Ms float64 `json:"lease_harvest_p99_ms"`
}

// benchClusterReport is the BENCH_cluster.json schema.
type benchClusterReport struct {
	Cells         int               `json:"cells"`
	Scale         float64           `json:"scale"`
	Seed          int64             `json:"seed"`
	MinCellTimeMs float64           `json:"min_cell_time_ms"`
	Runs          []benchClusterRun `json:"runs"`
	SpeedupAtMax  float64           `json:"speedup_at_max_workers"`
	Divergent     int               `json:"divergent_results"`
	GeneratedBy   string            `json:"generated_by"`
}

// benchCluster is one in-process cluster: a coordinator and n workers
// wired through real HTTP on ephemeral ports.
type benchCluster struct {
	coord   *cluster.Coordinator
	coordTS *httptest.Server
	workers []*serve.Server
	servers []*httptest.Server
	agents  []*cluster.Agent
}

// startBenchCluster brings up a coordinator with n registered single-slot
// workers and waits until all n are live.
func startBenchCluster(n int, minCell time.Duration) (*benchCluster, error) {
	coord, err := cluster.New(cluster.Options{
		HeartbeatTimeout: 2 * time.Second,
		PollInterval:     2 * time.Millisecond,
		LeaseChunk:       4,
	})
	if err != nil {
		return nil, err
	}
	bc := &benchCluster{coord: coord, coordTS: httptest.NewServer(coord.Handler())}
	for i := 0; i < n; i++ {
		srv := serve.NewServer(serve.Options{
			Workers:     1, // one simulation slot: a worker is one machine
			MinCellTime: minCell,
		})
		ts := httptest.NewServer(srv.Handler())
		bc.workers = append(bc.workers, srv)
		bc.servers = append(bc.servers, ts)
		bc.agents = append(bc.agents,
			cluster.StartAgent(bc.coordTS.URL, fmt.Sprintf("w%d", i), ts.URL, 100*time.Millisecond, nil))
	}
	cl := client.New(bc.coordTS.URL)
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := cl.Health()
		if err == nil && h.Workers >= n {
			return bc, nil
		}
		if time.Now().After(deadline) {
			bc.stop()
			return nil, fmt.Errorf("cluster bench: only %d/%d workers registered in time", h.Workers, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (bc *benchCluster) stop() {
	for _, a := range bc.agents {
		a.Stop()
	}
	bc.coord.Drain()
	bc.coordTS.Close()
	for i, ts := range bc.servers {
		ts.Close()
		bc.workers[i].Drain()
	}
}

// runBench measures sweep throughput at 1..cfg.maxWorkers workers
// (doubling), verifies every run byte-identical to the library, writes
// the report, and fails hard when 4+ workers do not reach 3x the
// single-worker throughput.
func runBench(log *slog.Logger, cfg benchConfig) error {
	if cfg.maxWorkers < 1 {
		return fmt.Errorf("cluster bench: need at least one worker, got %d", cfg.maxWorkers)
	}
	apps, algs, procs := loadgen.ClusterDims()
	cells := loadgen.ClusterMix()
	params := serve.Params{Scale: cfg.scale, Seed: cfg.seed}

	log.Info("cluster bench: computing library ground truth", "cells", len(cells))
	want, err := loadgen.GroundTruth(cfg.scale, cfg.seed, cells)
	if err != nil {
		return fmt.Errorf("cluster bench %w", err)
	}

	rep := benchClusterReport{
		Cells: len(cells), Scale: cfg.scale, Seed: cfg.seed,
		MinCellTimeMs: float64(cfg.minCell) / float64(time.Millisecond),
		GeneratedBy:   "mtcoord -bench",
	}
	var counts []int
	for n := 1; n <= cfg.maxWorkers; n *= 2 {
		counts = append(counts, n)
	}
	if last := counts[len(counts)-1]; last != cfg.maxWorkers {
		counts = append(counts, cfg.maxWorkers)
	}

	for _, n := range counts {
		bc, err := startBenchCluster(n, cfg.minCell)
		if err != nil {
			return err
		}
		cl := client.New(bc.coordTS.URL)
		cl.MaxRetries = 64
		cl.RetryWait = 10 * time.Millisecond

		t0 := time.Now()
		acc, err := cl.Sweep(&serve.SweepRequest{
			Params: &params, Apps: apps, Algorithms: algs, Procs: procs,
		})
		if err != nil {
			bc.stop()
			return fmt.Errorf("cluster bench: sweep at %d workers: %w", n, err)
		}
		st, err := cl.WaitJob(acc.Job, 5*time.Millisecond, 2*time.Minute)
		elapsed := time.Since(t0)
		if err != nil {
			bc.stop()
			return fmt.Errorf("cluster bench: wait at %d workers: %w", n, err)
		}
		if st.Status != serve.StatusDone {
			bc.stop()
			return fmt.Errorf("cluster bench: job at %d workers ended %s: %s", n, st.Status, st.Error)
		}
		if len(st.Results) != len(cells) {
			bc.stop()
			return fmt.Errorf("cluster bench: %d workers returned %d/%d cells", n, len(st.Results), len(cells))
		}
		for _, r := range st.Results {
			if !reflect.DeepEqual(r.Result, want[loadgen.Cell{App: r.App, Alg: r.Algorithm, Procs: r.Procs}]) {
				rep.Divergent++
			}
		}
		snap := bc.coord.Metrics().Snapshot()
		run := benchClusterRun{
			Workers:     n,
			Seconds:     elapsed.Seconds(),
			CellsPerSec: float64(len(cells)) / elapsed.Seconds(),
			Leases:      snap["coordinator_leases_granted_total"],
			Steals:      snap["coordinator_steals_total"],
			Requeues:    snap["coordinator_requeues_total"],
		}
		if h, ok := bc.coord.Metrics().HistogramByName("coordinator_lease_harvest_us"); ok {
			run.HarvestP50Ms = float64(h.Quantile(0.50)) / 1000
			run.HarvestP90Ms = float64(h.Quantile(0.90)) / 1000
			run.HarvestP99Ms = float64(h.Quantile(0.99)) / 1000
		}
		if len(rep.Runs) > 0 {
			run.Speedup = run.CellsPerSec / rep.Runs[0].CellsPerSec
		} else {
			run.Speedup = 1
		}
		rep.Runs = append(rep.Runs, run)
		bc.stop()
		log.Info("cluster bench: measured", "workers", n,
			"seconds", fmt.Sprintf("%.2f", run.Seconds),
			"cells_per_sec", fmt.Sprintf("%.1f", run.CellsPerSec),
			"speedup", fmt.Sprintf("%.2fx", run.Speedup))
	}
	rep.SpeedupAtMax = rep.Runs[len(rep.Runs)-1].Speedup

	if err := loadgen.WriteReport(os.Stdout, cfg.out, rep); err != nil {
		return err
	}
	if rep.Divergent > 0 {
		return fmt.Errorf("cluster bench: %d results diverged from direct library results", rep.Divergent)
	}
	if cfg.maxWorkers >= 4 && rep.SpeedupAtMax < 3.0 {
		return fmt.Errorf("cluster bench: %d workers reached only %.2fx single-worker throughput (want >= 3x): the coordinator pipeline is serializing", cfg.maxWorkers, rep.SpeedupAtMax)
	}
	return nil
}
