package obs

import (
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// StartDebugServer serves net/http/pprof on its own listener and mux —
// never on the public API port, so profiling endpoints cannot leak into
// an exposed surface. Both daemons gate it behind -debug-addr. Returns
// a stop function, or an error if the listener could not be opened.
//
// The handlers are registered explicitly instead of importing the
// package for its DefaultServeMux side effect: the daemons' public muxes
// must stay pprof-free even if someone routes DefaultServeMux somewhere.
func StartDebugServer(addr string, log *slog.Logger) (func(), error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	log.Info("debug server listening", "addr", ln.Addr().String())
	return func() { _ = srv.Close() }, nil
}
