// Command mtserve is the simulation-as-a-service daemon: the paper's
// simulator behind a JSON HTTP API with a bounded job queue, a worker
// pool, a content-addressed result cache and a per-cell watchdog.
//
// Usage:
//
//	mtserve -addr :8080                      # serve until SIGTERM/SIGINT
//	mtserve -addr :8080 -workers 8 -cache 8192
//	mtserve -addr :8080 -store-dir /var/mtsim # durable results
//
// Endpoints: the nine public routes of DESIGN.md §10 (POST /v1/simulate,
// /v1/sweep, /v1/advise; GET /v1/jobs/{id}, /v1/jobs/{id}/events,
// /v1/trace/{id}, /v1/placements, /healthz, /metrics), plus the
// cluster-internal lease routes under /internal/v1.
//
// Shutdown is graceful: SIGTERM stops accepting work, in-flight cells
// finish, queued jobs are handed back as retriable (their
// content-addressed IDs make resubmission to a restarted server
// idempotent), then the process exits 0.
package main

import (
	"flag"
	"log/slog"
	"net"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
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

		storeDir = fs.String("store-dir", "", "durable directory: results persist across restarts and warm-start the cache (empty = memory only)")

		debugAddr = fs.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = off)")

		coord     = fs.String("coord", "", "coordinator base URL to join as a cluster worker (e.g. http://127.0.0.1:9090)")
		name      = fs.String("name", "", "cluster worker ID (default derived from the listen address)")
		advertise = fs.String("advertise", "", "base URL the coordinator should reach this worker at (default http://<listen addr>)")
		beat      = fs.Duration("heartbeat", 500*time.Millisecond, "cluster heartbeat interval")
	)
	if err := fs.Parse(args); err != nil {
		return obs.CodeUsage
	}
	log := obs.NewLogger(os.Stderr, *verbose)

	opts := serve.Options{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cacheSize,
		MaxSteps:       *maxSteps,
		RequestTimeout: *timeout,
		Log:            log,
	}

	if *debugAddr != "" {
		stop, err := obs.StartDebugServer(*debugAddr, log)
		if err != nil {
			return obs.Fail(log, err, fs.Usage)
		}
		defer stop()
	}

	cc := coordConfig{url: *coord, name: *name, advertise: *advertise, interval: *beat}
	return serveMain(log, *addr, opts, cc, *storeDir)
}

// coordConfig is the optional cluster membership of a worker.
type coordConfig struct {
	url       string
	name      string
	advertise string
	interval  time.Duration
}

// serveMain runs the daemon until SIGTERM/SIGINT, then drains.
func serveMain(log *slog.Logger, addr string, opts serve.Options, cc coordConfig, storeDir string) int {
	// Listen before building the server: a cluster worker's ID (derived
	// from the bound address unless -name is set) labels its spans, so a
	// cluster-wide trace shows which worker ran what.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Error(err.Error())
		return obs.CodeError
	}
	return serveOn(log, ln, opts, cc, storeDir)
}

// serveOn runs the daemon on a bound listener until a signal or a
// listener failure, then drains and closes its durable state.
func serveOn(log *slog.Logger, ln net.Listener, opts serve.Options, cc coordConfig, storeDir string) int {
	id := cc.name
	if id == "" {
		id = "worker-" + sanitizeWorkerID(ln.Addr().String())
	}
	if cc.url != "" {
		opts.ServiceName = id
	}
	st, closeDurable, err := serve.OpenDurable(storeDir, log)
	if err != nil {
		log.Error(err.Error())
		ln.Close()
		return obs.CodeError
	}
	opts.Store = st
	srv := serve.NewServer(opts)

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

	// Drain order: stop heartbeating first (the coordinator reroutes new
	// leases), then finish simulation work (queued jobs become
	// retriable, /healthz flips to draining).
	drain := func() {
		if agent != nil {
			agent.Stop()
		}
		srv.Drain()
	}
	return serve.RunDaemon(log, "mtserve", ln, srv.Handler(), drain, closeDurable)
}
