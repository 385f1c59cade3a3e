package main

import (
	"encoding/hex"
	"io"
	"log/slog"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/serve/rescache"
	"repro/internal/store"
)

// TestServeFailureDrainsStore holds a failed listener to the signal
// path's shutdown: once the listener stops accepting, the daemon exits
// with the error code, but only after it has drained and closed its
// store, so the one request it served is durable and the directory's
// lock is free.
func TestServeFailureDrainsStore(t *testing.T) {
	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	code := make(chan int, 1)
	go func() { code <- serveOn(log, ln, serve.Options{Workers: 1}, coordConfig{}, dir) }()

	resp, err := client.New("http://" + ln.Addr().String()).Simulate(&serve.SimulateRequest{
		Params: &serve.Params{Scale: 0.1, Seed: 3},
		App:    "MP3D", Algorithm: "LOAD-BAL", Procs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln.Close() // every later Accept fails
	select {
	case c := <-code:
		if c != obs.CodeError {
			t.Fatalf("exit code %d after a listener failure, want %d", c, obs.CodeError)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not exit after its listener failed")
	}

	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopening the store: %v", err)
	}
	defer st.Close()
	var key rescache.Key
	if _, err := hex.Decode(key[:], []byte(resp.Key)); err != nil {
		t.Fatal(err)
	}
	got, err := serve.LoadResult(st, key)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || !reflect.DeepEqual(got, resp.Result) {
		t.Errorf("store holds %+v, want the served result", got)
	}
}
