package cluster

import (
	"strings"
	"testing"
)

// FuzzDecodeClusterRequest drives the membership decoders with arbitrary
// bodies, mirroring serve's FuzzDecodeRequest invariant: any input either
// yields a request that passes its own Validate, with every identity
// field inside its documented bound, or a plain error — never a panic
// and never unbounded allocation (bodies cap at MaxRequestBytes, IDs at
// MaxWorkerID, URLs at MaxWorkerURL, pool sizes at MaxWorkerSlots).
func FuzzDecodeClusterRequest(f *testing.F) {
	seeds := []string{
		// Valid registrations and heartbeats.
		`{"worker":"w0","url":"http://127.0.0.1:8080","slots":1}`,
		`{"worker":"rack1.node-03_a","url":"https://sim.example:9443","slots":4096}`,
		`{"worker":"w0"}`,
		// Shapes the decoders must reject gracefully.
		``,
		`null`,
		`{}`,
		`[]`,
		`{"worker":"w0"`,
		`{"worker":"w0","url":"http://h"}{"trailing":true}`,
		`{"unknown_field":1}`,
		`{"worker":"has space","url":"http://h"}`,
		`{"worker":"w0","url":"ftp://h"}`,
		`{"worker":"w0","url":"/relative"}`,
		`{"worker":"w0","url":"http://"}`,
		`{"worker":"` + strings.Repeat("w", 4096) + `","url":"http://h"}`,
		`{"worker":"w0","url":"http://` + strings.Repeat("h", 4096) + `"}`,
		// Pool-size bounds.
		`{"worker":"w0","url":"http://h"}`,
		`{"worker":"w0","url":"http://h","slots":0}`,
		`{"worker":"w0","url":"http://h","slots":-1}`,
		`{"worker":"w0","url":"http://h","slots":4097}`,
		`{"worker":"w0","url":"http://h","slots":1e9}`,
		`{"worker":"w0","url":"http://h","slots":"2"}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, body string) {
		if req, err := DecodeRegisterRequest(strings.NewReader(body)); err == nil {
			if verr := req.Validate(); verr != nil {
				t.Fatalf("decoded registration fails its own Validate: %v", verr)
			}
			if len(req.Worker) > MaxWorkerID || len(req.URL) > MaxWorkerURL ||
				req.Slots < 1 || req.Slots > MaxWorkerSlots {
				t.Fatalf("validated registration exceeds bounds: worker=%d url=%d slots=%d",
					len(req.Worker), len(req.URL), req.Slots)
			}
		}
		if req, err := DecodeHeartbeatRequest(strings.NewReader(body)); err == nil {
			if verr := req.Validate(); verr != nil {
				t.Fatalf("decoded heartbeat fails its own Validate: %v", verr)
			}
			if len(req.Worker) > MaxWorkerID {
				t.Fatalf("validated heartbeat exceeds bounds: worker=%d", len(req.Worker))
			}
		}
	})
}
