package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/serve"
)

// TestRemoteSweepMatchesLocal: the same sweep run in-process and through
// a live mtserve instance must emit byte-identical artifacts — the
// service adds transport and caching, never arithmetic. This is the
// -remote mode's end-to-end differential test over the golden Table 3 /
// Figure 2 data.
func TestRemoteSweepMatchesLocal(t *testing.T) {
	localDir := t.TempDir()
	if err := run(resumeSweep(localDir)); err != nil {
		t.Fatal(err)
	}

	srv := serve.NewServer(serve.Options{Workers: 4})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Drain()
	}()

	remoteDir := t.TempDir()
	rcfg := resumeSweep(remoteDir)
	rcfg.remote = ts.URL
	if err := run(rcfg); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"table3.txt", "table3.csv", "figure2.txt", "figure2.csv", "figure2.svg"} {
		want, err := os.ReadFile(filepath.Join(localDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(remoteDir, name))
		if err != nil {
			t.Fatalf("%s missing from remote run: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between local and remote sweeps", name)
		}
	}

	// The remote sweep must actually have exercised the server.
	if st := srv.CacheStats(); st.Misses == 0 {
		t.Error("server cache saw no traffic: the sweep did not go remote")
	}

	// A second remote run is served from the result cache and still
	// byte-identical.
	missesBefore := srv.CacheStats().Misses
	cachedDir := t.TempDir()
	ccfg := resumeSweep(cachedDir)
	ccfg.remote = ts.URL
	if err := run(ccfg); err != nil {
		t.Fatal(err)
	}
	if st := srv.CacheStats(); st.Misses != missesBefore {
		t.Errorf("second remote sweep re-simulated: misses %d -> %d", missesBefore, st.Misses)
	}
	for _, name := range []string{"figure2.csv"} {
		want, _ := os.ReadFile(filepath.Join(localDir, name))
		got, err := os.ReadFile(filepath.Join(cachedDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs on the cache-served remote sweep", name)
		}
	}
}

// TestRemoteRejectsLocalWatchdogFlags: -remote plus local guard flags is
// a usage error, not a silently ignored knob.
func TestRemoteRejectsLocalWatchdogFlags(t *testing.T) {
	cfg := resumeSweep(t.TempDir())
	cfg.remote = "http://127.0.0.1:1"
	cfg.maxSteps = 2
	if err := run(cfg); err == nil {
		t.Fatal("remote + maxsteps accepted")
	}
}
