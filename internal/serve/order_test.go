package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
)

// TestJobCountedBeforeReply: a job's outcome is counted before its
// terminal state becomes visible, so a client that reads /healthz right
// after a synchronous simulate reply always finds that job counted.
// Idle subscribers on an unrelated bus topic make every publish walk a
// long subscriber list; when counting comes after a publish that
// follows the terminal transition, that walk is a window in which the
// reply can overtake the count.
func TestJobCountedBeforeReply(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	for i := 0; i < 4096; i++ {
		defer s.bus.Subscribe("job:unrelated", 1).Close()
	}
	body, err := json.Marshal(SimulateRequest{Params: &testParams, App: "MP3D", Algorithm: "RANDOM", Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 4, 100
	var replied atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err.Error()
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- resp.Status
					return
				}
				// Every reply received so far belongs to a job that must
				// already be counted.
				r := replied.Add(1)
				if got := s.Health().Jobs.Completed; got < r {
					errs <- "reply arrived before its job was counted completed"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if got := s.Health().Jobs.Completed; got != clients*perClient {
		t.Errorf("completed %d jobs, want %d", got, clients*perClient)
	}
}
