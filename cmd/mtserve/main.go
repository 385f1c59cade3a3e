// Command mtserve is the simulation-as-a-service daemon: the paper's
// simulator behind a JSON HTTP API with a bounded job queue, a worker
// pool, a content-addressed result cache and a per-cell watchdog.
//
// Usage:
//
//	mtserve -addr :8080                      # serve until SIGTERM/SIGINT
//	mtserve -addr :8080 -workers 8 -cache 8192
//	mtserve -loadgen -clients 64 -bench BENCH_serve.json
//
// Endpoints: POST /v1/simulate, POST /v1/sweep, GET /v1/jobs/{id},
// GET /v1/placements, GET /healthz, GET /metrics.
//
// Shutdown is graceful: SIGTERM stops accepting work, in-flight cells
// finish, queued jobs are handed back as retriable (their
// content-addressed IDs make resubmission to a restarted server
// idempotent), then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/webhook"
	"repro/internal/store"
)

// sanitizeWorkerID maps a listen address into the worker-ID alphabet
// ([A-Za-z0-9._-]): colons and any other byte become '-'.
func sanitizeWorkerID(addr string) string {
	b := []byte(addr)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			b[i] = '-'
		}
	}
	return string(b)
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("mtserve", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address")
		workers   = fs.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
		queue     = fs.Int("queue", 0, "job queue depth (0 = default, fits one maximal sweep)")
		cacheSize = fs.Int("cache", 4096, "result cache capacity (entries)")
		maxSteps  = fs.Uint64("maxsteps", 0, "per-cell simulation step budget (0 = unlimited)")
		timeout   = fs.Duration("timeout", 0, "per-cell wall-clock budget (0 = none)")
		verbose   = fs.Bool("v", false, "verbose logging")

		storeDir       = fs.String("store-dir", "", "durable result store directory: results persist across restarts and warm-start the cache (empty = memory only)")
		webhookJournal = fs.String("webhook-journal", "", "journal path for webhook delivery state; pending deliveries survive restarts (empty = ephemeral)")

		debugAddr    = fs.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = off)")
		streamWindow = fs.Uint64("stream-window", 100_000, "sampler window (cycles) for live SSE sample events when a stream is attached (0 = no samples)")
		noTelemetry  = fs.Bool("no-telemetry", false, "disable distributed tracing and job-progress streams (histograms stay on)")

		coord     = fs.String("coord", "", "coordinator base URL to join as a cluster worker (e.g. http://127.0.0.1:9090)")
		name      = fs.String("name", "", "cluster worker ID (default derived from the listen address)")
		advertise = fs.String("advertise", "", "base URL the coordinator should reach this worker at (default http://<listen addr>)")
		beat      = fs.Duration("heartbeat", 500*time.Millisecond, "cluster heartbeat interval")

		loadgen = fs.Bool("loadgen", false, "run the self-benchmark against an in-process server and exit")
		clients = fs.Int("clients", 64, "loadgen: concurrent clients")
		rounds  = fs.Int("rounds", 4, "loadgen: passes each client makes over the cell list")
		scale   = fs.Float64("scale", 0.25, "loadgen: workload scale")
		seed    = fs.Int64("seed", 1994, "loadgen: workload seed")
		bench   = fs.String("bench", "", "loadgen: write the JSON report here (e.g. BENCH_serve.json)")
	)
	if err := fs.Parse(args); err != nil {
		return obs.CodeUsage
	}
	log := obs.NewLogger(os.Stderr, *verbose)

	opts := serve.Options{
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheEntries:     *cacheSize,
		MaxSteps:         *maxSteps,
		RequestTimeout:   *timeout,
		StreamWindow:     *streamWindow,
		DisableTelemetry: *noTelemetry,
		Log:              log,
	}

	if *debugAddr != "" {
		stop, err := obs.StartDebugServer(*debugAddr, log)
		if err != nil {
			return obs.Fail(log, err, fs.Usage)
		}
		defer stop()
	}

	if *loadgen {
		cfg := loadgenConfig{
			clients:  *clients,
			rounds:   *rounds,
			scale:    *scale,
			seed:     *seed,
			bench:    *bench,
			storeDir: *storeDir,
			opts:     opts,
		}
		if err := runLoadgen(log, cfg); err != nil {
			return obs.Fail(log, err, fs.Usage)
		}
		return obs.CodeOK
	}

	cc := coordConfig{url: *coord, name: *name, advertise: *advertise, interval: *beat}
	dc := durableConfig{storeDir: *storeDir, webhookJournal: *webhookJournal}
	return serveMain(log, *addr, opts, cc, dc)
}

// durableConfig is the daemon's persistence surface: the result store
// and the webhook delivery journal.
type durableConfig struct {
	storeDir       string
	webhookJournal string
}

// openDurable opens the result store and webhook dispatcher named by
// dc and attaches them to opts. The returned closer runs after Drain:
// every result the workers produced is flushed and sealed, and pending
// webhook deliveries stay journaled for the next life.
func openDurable(log *slog.Logger, dc durableConfig, opts *serve.Options) (func(), error) {
	var st *store.Store
	if dc.storeDir != "" {
		var err error
		st, err = store.Open(store.Options{Dir: dc.storeDir})
		if err != nil {
			return nil, fmt.Errorf("opening result store: %w", err)
		}
		opts.Store = st
		s := st.Stats()
		log.Info("result store open", "dir", dc.storeDir,
			"entries", s.Entries, "sealed_segments", s.SealedSegments,
			"quarantined", s.Quarantined, "truncated_tails", s.TruncatedTails)
	}
	wh, err := webhook.New(webhook.Options{JournalPath: dc.webhookJournal})
	if err != nil {
		if st != nil {
			_ = st.Close()
		}
		return nil, fmt.Errorf("opening webhook dispatcher: %w", err)
	}
	opts.Webhooks = wh
	return func() {
		// Give in-flight deliveries a moment to land; anything still
		// pending is journaled and resumes after restart.
		wh.Flush(2 * time.Second)
		if err := wh.Close(); err != nil {
			log.Warn("webhook dispatcher close", "err", err.Error())
		}
		if st != nil {
			if err := st.Close(); err != nil {
				log.Warn("result store close", "err", err.Error())
			}
		}
	}, nil
}

// coordConfig is the optional cluster membership of a worker.
type coordConfig struct {
	url       string
	name      string
	advertise string
	interval  time.Duration
}

// serveMain runs the daemon until SIGTERM/SIGINT, then drains.
func serveMain(log *slog.Logger, addr string, opts serve.Options, cc coordConfig, dc durableConfig) int {
	// Listen before building the server: a cluster worker's ID (derived
	// from the bound address unless -name is set) labels its spans, so a
	// cluster-wide trace shows which worker ran what.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Error(err.Error())
		return obs.CodeError
	}
	id := cc.name
	if id == "" {
		id = "worker-" + sanitizeWorkerID(ln.Addr().String())
	}
	if cc.url != "" {
		opts.ServiceName = id
	}
	closeDurable, err := openDurable(log, dc, &opts)
	if err != nil {
		log.Error(err.Error())
		return obs.CodeError
	}
	srv := serve.NewServer(opts)
	hs := &http.Server{Handler: srv.Handler()}
	log.Info("mtserve listening", "addr", ln.Addr().String())

	// Joining a cluster: the agent registers and heartbeats until drain;
	// all scheduling intelligence stays on the coordinator.
	var agent *cluster.Agent
	if cc.url != "" {
		self := cc.advertise
		if self == "" {
			self = "http://" + ln.Addr().String()
		}
		agent = cluster.StartAgent(cc.url, id, self, cc.interval, log)
		log.Info("joined cluster", "coordinator", cc.url, "worker", id, "advertise", self)
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigc:
		log.Info("draining on signal", "signal", fmt.Sprint(sig))
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error(err.Error())
			return obs.CodeError
		}
	}

	// Drain order: stop heartbeating first (the coordinator reroutes new
	// leases), finish simulation work (queued jobs become retriable,
	// /healthz flips to draining), then persist — flush and seal the
	// result store, close the webhook journal with pending deliveries
	// intact — and finally stop the listener so clients can observe
	// their jobs' final state until the very end.
	if agent != nil {
		agent.Stop()
	}
	srv.Drain()
	closeDurable()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = hs.Shutdown(ctx)

	log.Info("mtserve exited cleanly")
	return obs.CodeOK
}
