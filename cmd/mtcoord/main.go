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
	"flag"
	"log/slog"
	"net"
	"os"
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

		debugAddr = fs.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		return obs.CodeUsage
	}
	log := obs.NewLogger(os.Stderr, *verbose)

	opts := cluster.Options{
		HeartbeatTimeout: *hbeat,
		PollInterval:     *poll,
		LeaseChunk:       *chunk,
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
	// Draining retires in-flight jobs: pollers see retriable and will
	// resubmit after a restart.
	return serve.RunDaemon(log, "mtcoord", ln, coord.Handler(), coord.Drain, closeDurable)
}
