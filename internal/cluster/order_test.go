package cluster

import (
	"testing"
	"time"

	"repro/internal/placement"
	"repro/internal/serve"
	"repro/internal/workload"
)

// TestClusterJobCountedBeforeVisible: a sweep's outcome is counted and
// its root span recorded before its terminal status becomes visible, so
// a poller that sees "done" always finds the job in /healthz and the
// whole trace in /v1/trace. Each sweep is a distinct one-cell job polled
// in a tight loop against the coordinator.
func TestClusterJobCountedBeforeVisible(t *testing.T) {
	tc := startCluster(t, 1, serve.Options{Workers: 2})
	cl := tc.client()
	params := serve.Params{Scale: testScale, Seed: testSeed}

	var done, failed int64
	for _, app := range workload.Names()[:6] {
		for _, alg := range placement.Names() {
			for _, procs := range []int{2, 4} {
				acc, err := cl.Sweep(&serve.SweepRequest{
					Params: &params, Apps: []string{app}, Algorithms: []string{alg}, Procs: []int{procs},
				})
				if err != nil {
					t.Fatal(err)
				}
				deadline := time.Now().Add(30 * time.Second)
				var st serve.JobStatus
				for {
					var ok bool
					st, ok = tc.job(acc.Job)
					if !ok {
						t.Fatalf("job %s unknown", acc.Job)
					}
					if serve.TerminalStatus(st.Status) {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("job %s never finished", acc.Job)
					}
				}
				h := tc.coord.Health().Jobs
				switch st.Status {
				case serve.StatusDone:
					done++
				case serve.StatusFailed:
					failed++
				default:
					t.Fatalf("%s/%s/p%d ended %s", app, alg, procs, st.Status)
				}
				if h.Completed != done || h.Failed != failed {
					t.Fatalf("%s/%s/p%d visible as %s with %d completed / %d failed counted, want %d / %d",
						app, alg, procs, st.Status, h.Completed, h.Failed, done, failed)
				}
				root := false
				for _, sp := range tc.coord.spans.Trace(st.Trace) {
					root = root || (sp.Service == coordService && sp.Name == "sweep")
				}
				if !root {
					t.Fatalf("%s/%s/p%d visible as %s before its sweep span ended", app, alg, procs, st.Status)
				}
			}
		}
	}
	if done == 0 {
		t.Fatal("no sweep finished done")
	}
}
