package main

import (
	"fmt"
	"log/slog"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/loadgen"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/store"
)

// loadgenConfig parameterizes the self-benchmark.
type loadgenConfig struct {
	clients int
	rounds  int
	scale   float64
	seed    int64
	bench   string
	// storeDir is where the durable store lives across the benchmark's
	// two server lives ("" = a throwaway temp dir).
	storeDir string
	opts     serve.Options
}

// warmHitRateFloor is the warm-restart gate: after a restart onto the
// same store directory, at least this fraction of the cell mix must be
// served from disk without simulating. Below it, durability is broken.
const warmHitRateFloor = 0.95

// benchServeReport is the BENCH_serve.json schema: end-to-end service
// throughput and latency under concurrent load, with correctness
// (divergence against direct library calls) as a hard gate, plus the
// cache's measured effectiveness.
type benchServeReport struct {
	Clients        int      `json:"clients"`
	Rounds         int      `json:"rounds"`
	UniqueCells    int      `json:"unique_cells"`
	Requests       int      `json:"requests"`
	Errors         int      `json:"errors"`
	Divergent      int      `json:"divergent_results"`
	Seconds        float64  `json:"seconds"`
	RequestsPerSec float64  `json:"requests_per_sec"`
	LatencyP50Ms   float64  `json:"latency_p50_ms"`
	LatencyP90Ms   float64  `json:"latency_p90_ms"`
	LatencyP99Ms   float64  `json:"latency_p99_ms"`
	ServerP50Ms    float64  `json:"server_latency_p50_ms"`
	ServerP90Ms    float64  `json:"server_latency_p90_ms"`
	ServerP99Ms    float64  `json:"server_latency_p99_ms"`
	CacheHits      uint64   `json:"cache_hits"`
	CacheMisses    uint64   `json:"cache_misses"`
	CacheHitRate   float64  `json:"cache_hit_rate"`
	SimRuns        int64    `json:"sim_runs"`
	WarmRequests   int      `json:"warm_requests"`
	WarmStoreHits  uint64   `json:"warm_store_hits"`
	WarmSimRuns    int64    `json:"warm_sim_runs"`
	WarmHitRate    float64  `json:"warm_hit_rate"`
	MaxInFlight    int      `json:"max_concurrent_clients"`
	Scale          float64  `json:"scale"`
	Seed           int64    `json:"seed"`
	Apps           []string `json:"apps"`
	GeneratedBy    string   `json:"generated_by"`
}

// runLoadgen starts an in-process server on an ephemeral port, drives it
// with cfg.clients concurrent clients for cfg.rounds passes over the
// cell mix, verifies every response against the corresponding direct
// library call, asserts /healthz and /metrics, and writes the report.
// Any divergent result is a hard error: the service layer must add
// transport, never arithmetic. The mix, ground truth, concurrency driver
// and aggregation are the shared internal/loadgen core the cluster
// benchmark (mtcoord -bench) uses too.
func runLoadgen(log *slog.Logger, cfg loadgenConfig) error {
	if cfg.clients < 1 {
		return fmt.Errorf("loadgen: need at least one client, got %d", cfg.clients)
	}
	if cfg.rounds < 1 {
		return fmt.Errorf("loadgen: need at least one round, got %d", cfg.rounds)
	}
	cells := loadgen.DefaultMix()
	params := serve.Params{Scale: cfg.scale, Seed: cfg.seed}

	log.Info("loadgen: computing library ground truth", "cells", len(cells))
	want, err := loadgen.GroundTruth(cfg.scale, cfg.seed, cells)
	if err != nil {
		return fmt.Errorf("loadgen %w", err)
	}

	// The queue must absorb every client's one in-flight request plus
	// slack, so backpressure never deflates the concurrency measurement.
	opts := cfg.opts
	if opts.QueueDepth == 0 {
		opts.QueueDepth = 4 * cfg.clients
	}

	// The benchmark runs the server twice against one store directory:
	// the load phase fills it, the warm phase measures what a restarted
	// server serves from disk.
	storeDir := cfg.storeDir
	if storeDir == "" {
		tmp, err := os.MkdirTemp("", "mtserve-loadgen-store-")
		if err != nil {
			return fmt.Errorf("loadgen: %w", err)
		}
		defer os.RemoveAll(tmp)
		storeDir = tmp
	}
	st, err := store.Open(store.Options{Dir: storeDir})
	if err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}
	opts.Store = st

	srv := serve.NewServer(opts)
	ts := httptest.NewServer(srv.Handler())
	closed := false
	closeLife := func() {
		if closed {
			return
		}
		closed = true
		ts.Close()
		srv.Drain()
		_ = st.Close()
	}
	defer closeLife()
	log.Info("loadgen: server up", "url", ts.URL, "clients", cfg.clients, "rounds", cfg.rounds)

	var (
		lats      loadgen.Latencies
		inFlight  loadgen.InFlight
		requests  atomic.Int64
		errCount  atomic.Int64
		divergent atomic.Int64
	)
	// Each client walks the cell list rounds times from its own offset,
	// so round-1 misses spread across distinct cells instead of convoying.
	elapsed := loadgen.Concurrent(cfg.clients, func(ci int) {
		cl := client.New(ts.URL)
		cl.MaxRetries = 64
		cl.RetryWait = 10 * time.Millisecond
		for r := 0; r < cfg.rounds; r++ {
			for k := 0; k < len(cells); k++ {
				c := cells[(ci+k)%len(cells)]
				req := &serve.SimulateRequest{
					Params:    &params,
					App:       c.App,
					Algorithm: c.Alg,
					Procs:     c.Procs,
				}
				inFlight.Enter()
				t0 := time.Now()
				resp, err := cl.Simulate(req)
				lats.Add(time.Since(t0))
				inFlight.Leave()
				requests.Add(1)
				switch {
				case err != nil:
					errCount.Add(1)
				case !reflect.DeepEqual(resp.Result, want[c]):
					divergent.Add(1)
				}
			}
		}
	})

	rep := benchServeReport{
		Clients: cfg.clients, Rounds: cfg.rounds, UniqueCells: len(cells),
		Scale: cfg.scale, Seed: cfg.seed,
		Apps:        loadgen.Apps(cells),
		Seconds:     elapsed.Seconds(),
		Requests:    int(requests.Load()),
		Errors:      int(errCount.Load()),
		Divergent:   int(divergent.Load()),
		MaxInFlight: inFlight.Max(),
		GeneratedBy: "mtserve -loadgen",
	}
	rep.LatencyP50Ms = lats.PercentileMs(0.50)
	rep.LatencyP90Ms = lats.PercentileMs(0.90)
	rep.LatencyP99Ms = lats.PercentileMs(0.99)
	// The client-side percentiles above include transport; the server-side
	// triple comes from the serve_request_latency_us histogram — the same
	// distribution /metrics exposes, so the report and the exposition can
	// be cross-checked. Histogram quantiles are bucket upper bounds.
	if h, ok := srv.Metrics().HistogramByName("serve_request_latency_us"); ok {
		rep.ServerP50Ms = float64(h.Quantile(0.50)) / 1000
		rep.ServerP90Ms = float64(h.Quantile(0.90)) / 1000
		rep.ServerP99Ms = float64(h.Quantile(0.99)) / 1000
	}
	if rep.Seconds > 0 {
		rep.RequestsPerSec = float64(rep.Requests) / rep.Seconds
	}
	cs := srv.CacheStats()
	rep.CacheHits, rep.CacheMisses, rep.CacheHitRate = cs.Hits, cs.Misses, cs.HitRate()
	rep.SimRuns = srv.Metrics().Snapshot()["serve_sim_runs_total"]

	// Built-in smoke assertions (this is what `make servecheck` runs):
	// the endpoints must be coherent with the load just applied.
	cl := client.New(ts.URL)
	h, err := cl.Health()
	if err != nil {
		return fmt.Errorf("loadgen: /healthz: %w", err)
	}
	if h.Status != "ok" {
		return fmt.Errorf("loadgen: /healthz status %q after load", h.Status)
	}
	if h.Jobs.Accepted == 0 || h.Jobs.Completed == 0 {
		return fmt.Errorf("loadgen: /healthz job accounting empty after %d requests: %+v", rep.Requests, h.Jobs)
	}
	metrics, err := cl.Metrics()
	if err != nil {
		return fmt.Errorf("loadgen: /metrics: %w", err)
	}
	for _, series := range []string{
		"serve_http_requests_total", "serve_sim_runs_total",
		"serve_cache_hits_total", "serve_jobs_completed_total",
	} {
		if !strings.Contains(metrics, series) {
			return fmt.Errorf("loadgen: /metrics missing series %s", series)
		}
	}

	// Warm-restart phase: retire the first life completely (drain, flush,
	// seal), then bring up a second server — cold memory cache, same
	// store directory — and walk the cell mix once. Every cell answered
	// without simulating is a warm hit; the rate is a hard gate.
	closeLife()
	log.Info("loadgen: warm-restart phase", "store_dir", storeDir)
	st2, err := store.Open(store.Options{Dir: storeDir})
	if err != nil {
		return fmt.Errorf("loadgen: reopening store: %w", err)
	}
	opts2 := opts
	opts2.Store = st2
	srv2 := serve.NewServer(opts2)
	ts2 := httptest.NewServer(srv2.Handler())
	defer func() {
		ts2.Close()
		srv2.Drain()
		_ = st2.Close()
	}()

	wcl := client.New(ts2.URL)
	wcl.MaxRetries = 64
	wcl.RetryWait = 10 * time.Millisecond
	for _, c := range cells {
		resp, err := wcl.Simulate(&serve.SimulateRequest{
			Params: &params, App: c.App, Algorithm: c.Alg, Procs: c.Procs,
		})
		rep.WarmRequests++
		if err != nil {
			return fmt.Errorf("loadgen: warm request %+v: %w", c, err)
		}
		if !reflect.DeepEqual(resp.Result, want[c]) {
			return fmt.Errorf("loadgen: warm result for %+v diverged from the direct library result", c)
		}
	}
	rep.WarmStoreHits = st2.Stats().Hits
	rep.WarmSimRuns = srv2.Metrics().Snapshot()["serve_sim_runs_total"]
	if rep.WarmRequests > 0 {
		rep.WarmHitRate = float64(rep.WarmStoreHits) / float64(rep.WarmRequests)
	}

	if err := loadgen.WriteReport(os.Stdout, cfg.bench, rep); err != nil {
		return err
	}

	log.Info("loadgen: done",
		"requests", rep.Requests, "rps", fmt.Sprintf("%.1f", rep.RequestsPerSec),
		"p50_ms", fmt.Sprintf("%.2f", rep.LatencyP50Ms),
		"p99_ms", fmt.Sprintf("%.2f", rep.LatencyP99Ms),
		"cache_hit_rate", fmt.Sprintf("%.3f", rep.CacheHitRate),
		"warm_hit_rate", fmt.Sprintf("%.3f", rep.WarmHitRate),
		"max_in_flight", rep.MaxInFlight)

	if rep.Errors > 0 {
		return fmt.Errorf("loadgen: %d/%d requests failed", rep.Errors, rep.Requests)
	}
	if rep.Divergent > 0 {
		return fmt.Errorf("loadgen: %d/%d responses diverged from direct library results", rep.Divergent, rep.Requests)
	}
	if rep.WarmHitRate < warmHitRateFloor {
		return fmt.Errorf("loadgen: warm restart served %.3f of the mix from the store, floor is %.2f (%d hits / %d requests, %d re-simulated)",
			rep.WarmHitRate, warmHitRateFloor, rep.WarmStoreHits, rep.WarmRequests, rep.WarmSimRuns)
	}
	return nil
}
