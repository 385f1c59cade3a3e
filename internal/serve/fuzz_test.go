package serve

import (
	"strings"
	"testing"
)

// FuzzDecodeRequest drives the strict JSON decoder + validator with
// arbitrary bodies. The invariant is total robustness: any input either
// yields a request that passed Validate, or a plain error — never a
// panic, and never unbounded allocation (the decoder caps bodies at
// MaxRequestBytes and validation caps every numeric and list field, so a
// hostile body cannot make the server stage gigabytes of work).
func FuzzDecodeRequest(f *testing.F) {
	seeds := []string{
		// Valid simulate bodies.
		`{"app":"MP3D","algorithm":"LATENCY","procs":4}`,
		`{"app":"Gauss","algorithm":"IDEAL","procs":2,"infinite":true,"counters":true}`,
		`{"params":{"scale":0.25,"seed":1994},"app":"Water","algorithm":"RANDOM","procs":8}`,
		`{"app":"MP3D","placement":{"algorithm":"CUSTOM","clusters":[[0,1],[2,3]]},"procs":4}`,
		`{"app":"MP3D","algorithm":"LATENCY","config":{"processors":4,"max_contexts":2,"protocol":"update"}}`,
		// Valid sweep bodies (also fed to the sweep decoder below).
		`{"apps":["MP3D","Gauss"],"algorithms":["LATENCY","IDEAL"],"procs":[2,4]}`,
		`{"apps":["FFT"],"algorithms":["RANDOM"],"procs":[2],"infinite":true}`,
		// Invalid shapes the decoder must reject gracefully.
		``,
		`null`,
		`{}`,
		`[]`,
		`{"app":"MP3D"`,
		`{"app":"MP3D","algorithm":"LATENCY","procs":4}{"trailing":true}`,
		`{"unknown_field":1}`,
		`{"app":"NoSuchApp","algorithm":"LATENCY","procs":4}`,
		`{"app":"MP3D","algorithm":"LATENCY","procs":-1}`,
		`{"app":"MP3D","algorithm":"LATENCY","procs":1e9}`,
		`{"params":{"scale":-1},"app":"MP3D","algorithm":"LATENCY","procs":4}`,
		`{"app":"MP3D","placement":{"algorithm":"X","clusters":[[99999]]},"procs":4}`,
		`{"app":"MP3D","algorithm":"LATENCY","procs":4,"config":{"processors":99999}}`,
		`{"apps":[],"algorithms":["LATENCY"],"procs":[2]}`,
		`{"app":"` + strings.Repeat("A", 4096) + `","algorithm":"LATENCY","procs":4}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, body string) {
		if req, err := DecodeSimulateRequest(strings.NewReader(body)); err == nil {
			// A decoded request must be internally coherent: re-running
			// Validate is a no-op, and its identity fields are bounded.
			if verr := req.Validate(); verr != nil {
				t.Fatalf("decoded request fails its own Validate: %v", verr)
			}
			if len(req.App) > MaxNameLen || req.Procs > MaxProcs {
				t.Fatalf("validated request exceeds bounds: app=%d procs=%d", len(req.App), req.Procs)
			}
		}
		if req, err := DecodeSweepRequest(strings.NewReader(body)); err == nil {
			if verr := req.Validate(); verr != nil {
				t.Fatalf("decoded sweep fails its own Validate: %v", verr)
			}
			if req.Cells() > MaxSweepCells {
				t.Fatalf("validated sweep stages %d cells", req.Cells())
			}
		}
	})
}

// FuzzDecodeAdviseRequest holds the advisor's decoder to the same
// total-robustness bar: the pair-matrix and trace payloads are the
// largest attacker-controlled structures the server accepts, so any
// input must either validate (bounded) or fail cleanly.
func FuzzDecodeAdviseRequest(f *testing.F) {
	seeds := []string{
		// Valid bodies, one per sharing source.
		`{"app":"MP3D","procs":4}`,
		`{"params":{"scale":0.25,"seed":1994},"app":"Water","procs":8}`,
		`{"pair":[[0,5],[5,0]],"lengths":[10,12],"procs":2}`,
		`{"pair":[[0,1],[1,0]],"lengths":[1,1],"procs":2,` +
			`"current":{"algorithm":"X","clusters":[[0],[1]]},"mem_latency":30}`,
		`{"trace_mtt2":"TVRUMg==","procs":2}`,
		// Shapes the decoder must reject gracefully.
		``,
		`null`,
		`{}`,
		`[]`,
		`{"app":"MP3D"`,
		`{"app":"MP3D","procs":4}{"trailing":true}`,
		`{"app":"MP3D","procs":4,"unknown_field":1}`,
		`{"procs":4}`,
		`{"app":"MP3D","pair":[[0]],"lengths":[1],"procs":4}`,
		`{"app":"NoSuchApp","procs":4}`,
		`{"app":"MP3D","procs":-1}`,
		`{"app":"MP3D","procs":1e9}`,
		`{"pair":[[0,1]],"lengths":[1,1],"procs":2}`,
		`{"pair":[[0,1],[1,0]],"lengths":[1],"procs":2}`,
		`{"lengths":[1],"procs":2}`,
		`{"app":"MP3D","procs":2,"engine":"warp"}`,
		`{"app":"MP3D","procs":2,"current":{"algorithm":"X","clusters":[[99999]]}}`,
		`{"app":"` + strings.Repeat("A", 4096) + `","procs":4}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, body string) {
		req, err := DecodeAdviseRequest(strings.NewReader(body))
		if err != nil {
			return
		}
		if verr := req.Validate(); verr != nil {
			t.Fatalf("decoded advise request fails its own Validate: %v", verr)
		}
		if len(req.App) > MaxNameLen || req.Procs < 1 || req.Procs > MaxProcs {
			t.Fatalf("validated request exceeds bounds: app=%d procs=%d", len(req.App), req.Procs)
		}
		if len(req.Pair) > MaxClusterThreads {
			t.Fatalf("validated pair matrix has %d rows", len(req.Pair))
		}
		for _, row := range req.Pair {
			if len(row) != len(req.Pair) {
				t.Fatal("validated pair matrix is not square")
			}
		}
	})
}
