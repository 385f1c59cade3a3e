// Command mtcoord is the cluster coordinator: it serves mtserve's public
// JSON API — the same nine-route handler set, DESIGN.md §10 — but
// executes the work across N registered mtserve workers. Cells are
// routed by rescache content address (rendezvous hashing for cache
// affinity), granted as leases, harvested incrementally, stolen back
// from stragglers for idle workers, and requeued when a worker dies —
// every rebalancing is byte-identical by construction because the
// simulator is deterministic.
//
// Usage:
//
//	mtcoord -addr :9090                          # coordinate until SIGTERM
//	mtcoord -addr :9090 -store-dir /var/mtcoord  # with crash recovery
//
// Workers join with `mtserve -coord http://coordinator:9090`; membership
// is registration plus heartbeats (/cluster/v1/register, /cluster/v1/
// heartbeat), and heartbeat silence past -heartbeat-timeout requeues the
// silent worker's in-flight cells elsewhere.
//
// Shutdown is graceful and mirrors mtserve: in-flight sweeps are handed
// back as retriable; their content-addressed job IDs make resubmission
// to a restarted coordinator idempotent.
//
// With -store-dir every harvested cell result and a small record of
// every accepted sweep live in that one directory. A
// coordinator restarted on it — after a drain or a kill -9 — answers
// "retriable" for each sweep it had accepted, and a resubmission restores
// the stored cells before it leases out the rest.
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
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("mtcoord", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:9090", "listen address")
		hbeat   = fs.Duration("heartbeat-timeout", 2*time.Second, "declare a worker dead after this much heartbeat silence")
		poll    = fs.Duration("poll", 10*time.Millisecond, "lease harvest/steal scheduling interval")
		chunk   = fs.Int("chunk", 16, "max cells per lease")
		verbose = fs.Bool("v", false, "verbose logging")

		storeDir = fs.String("store-dir", "", "durable directory: harvested cell results and accepted sweeps persist across restarts, and resubmitted sweeps warm-start (empty = off)")

		debugAddr   = fs.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = off)")
		noTelemetry = fs.Bool("no-telemetry", false, "disable distributed tracing and job-progress streams (histograms stay on)")
	)
	if err := fs.Parse(args); err != nil {
		return obs.CodeUsage
	}
	log := obs.NewLogger(os.Stderr, *verbose)

	opts := cluster.Options{
		HeartbeatTimeout: *hbeat,
		PollInterval:     *poll,
		LeaseChunk:       *chunk,
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

	return coordMain(log, *addr, opts, *storeDir)
}

// coordMain runs the coordinator daemon until SIGTERM/SIGINT, then drains.
func coordMain(log *slog.Logger, addr string, opts cluster.Options, storeDir string) int {
	// Listen before opening durable state, as mtserve does: a busy port
	// then fails with nothing to close.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Error(err.Error())
		return obs.CodeError
	}
	return coordOn(log, ln, opts, storeDir)
}

// coordOn runs the coordinator on a bound listener until a signal or a
// listener failure, then drains and closes its durable state.
func coordOn(log *slog.Logger, ln net.Listener, opts cluster.Options, storeDir string) int {
	st, closeDurable, err := serve.OpenDurable(storeDir, log)
	if err != nil {
		log.Error(err.Error())
		ln.Close()
		return obs.CodeError
	}
	opts.Store = st

	coord := cluster.New(opts)
	hs := &http.Server{Handler: coord.Handler()}
	log.Info("mtcoord listening", "addr", ln.Addr().String())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)

	// A failed listener drains and closes exactly as a signal does, so
	// no write-behind record is lost; only the exit code differs.
	code := obs.CodeOK
	select {
	case sig := <-sigc:
		log.Info("draining on signal", "signal", fmt.Sprint(sig))
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error(err.Error())
			code = obs.CodeError
		}
	}

	// Drain order mirrors mtserve: retire in-flight jobs first (pollers
	// see retriable and will resubmit after restart), persist — flush
	// and seal the result store — then stop listening.
	coord.Drain()
	closeDurable()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = hs.Shutdown(ctx)

	if code != obs.CodeOK {
		return code
	}
	log.Info("mtcoord exited cleanly")
	return obs.CodeOK
}
