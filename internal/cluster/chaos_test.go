package cluster

import (
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/serve"
)

// Chaos suite: a worker is killed, partitioned, or restarted while it
// holds leased cells mid-sweep. In every scenario the sweep must finish
// with zero lost and zero duplicated cells and results byte-identical to
// the direct library run — the determinism of the simulator is what
// makes requeue-and-rerun (and the duplicate work a partition causes)
// semantically free.

// TestClusterChaos is the table: each scenario disrupts worker 0 (made a
// straggler so it reliably holds in-flight leases) after the sweep is
// underway, then requires a clean, byte-identical finish.
func TestClusterChaos(t *testing.T) {
	scenarios := []struct {
		name string
		// disrupt acts on the cluster once at least one cell completed.
		disrupt func(t *testing.T, tc *testCluster)
		// revives reports whether worker 0 is expected back among the
		// live workers at the end.
		revives bool
	}{
		{
			// Crash: the worker process is gone — connections refused,
			// heartbeats silent. The first transport error marks it dead
			// and requeues its lease.
			name:    "kill-worker",
			disrupt: func(t *testing.T, tc *testCluster) { tc.workers[0].kill() },
		},
		{
			// Partition: the worker is alive and still computing, but
			// heartbeats stop reaching the coordinator. After the
			// heartbeat timeout its cells are requeued elsewhere; the
			// partitioned side's surplus work is discarded harmlessly.
			name:    "partition-worker",
			disrupt: func(t *testing.T, tc *testCluster) { tc.workers[0].partition() },
		},
		{
			// Restart: crash, then — after the coordinator has declared
			// the death and requeued — a worker with the same ID
			// re-registers from a fresh address (new ephemeral port) and
			// rejoins the rerouted sweep. (An instant rejoin can outrun
			// death detection entirely: registration just refreshes the
			// URL. Waiting makes the scenario the one it claims to be.)
			name: "restart-worker",
			disrupt: func(t *testing.T, tc *testCluster) {
				id := tc.workers[0].id
				tc.workers[0].kill()
				deadline := time.Now().Add(10 * time.Second)
				for tc.coord.Metrics().Snapshot()["coordinator_worker_deaths_total"] == 0 {
					if time.Now().After(deadline) {
						t.Fatal("coordinator never declared the killed worker dead")
					}
					time.Sleep(2 * time.Millisecond)
				}
				tc.addWorker(id, serve.Options{Workers: 1})
				tc.waitLive(4)
			},
			revives: true,
		},
	}

	apps, algs, procs := loadgen.ClusterDims()
	cells := loadgen.ClusterMix()
	want, err := loadgen.GroundTruth(testScale, testSeed, cells)
	if err != nil {
		t.Fatal(err)
	}

	if testing.Short() {
		// The race tier (make racecheck) runs this suite under -race,
		// where the full matrix triples a deliberately slow test. One
		// scenario still exercises every requeue path the detector can
		// see; the full matrix runs in the regular CI tier.
		scenarios = scenarios[:1]
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			// On a store: requeued re-executions must agree with the keys
			// stored before the disruption or the job fails loudly.
			opts := testCoordOptions()
			opts.Store = openTestStore(t, t.TempDir())
			tc := startCoordinator(t, opts)
			// Worker 0 is a single-slot straggler: its cells wait until
			// the coordinator has declared a worker dead (10 s at most),
			// so when the disruption lands it is still mid-cell with a
			// leased tail behind it, and the sweep cannot finish before
			// the disruption is detected, however fast cells run.
			tc.addWorker("w0", serve.Options{
				Workers: 1,
				BeforeCell: func() {
					deadline := time.Now().Add(10 * time.Second)
					for tc.coord.Metrics().Snapshot()["coordinator_worker_deaths_total"] == 0 && time.Now().Before(deadline) {
						time.Sleep(2 * time.Millisecond)
					}
				},
			})
			for _, id := range []string{"w1", "w2", "w3"} {
				tc.addWorker(id, serve.Options{Workers: 1})
			}
			tc.waitLive(4)

			cl := tc.client()
			params := serve.Params{Scale: testScale, Seed: testSeed}
			acc, err := cl.Sweep(&serve.SweepRequest{
				Params: &params, Apps: apps, Algorithms: algs, Procs: procs,
			})
			if err != nil {
				t.Fatal(err)
			}

			// Disrupt only once the sweep is demonstrably in flight.
			deadline := time.Now().Add(20 * time.Second)
			for {
				st, ok := tc.coord.Job(acc.Job)
				if ok && st.Completed >= 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("sweep never started completing cells")
				}
				time.Sleep(2 * time.Millisecond)
			}
			sc.disrupt(t, tc)

			st, err := cl.WaitJob(acc.Job, 5*time.Millisecond, 60*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if st.Status != serve.StatusDone {
				t.Fatalf("sweep ended %s after %s: %s", st.Status, sc.name, st.Error)
			}
			// Byte-identical, every cell exactly once, in order.
			assertResults(t, st, cells, want)

			snap := tc.coord.Metrics().Snapshot()
			// Zero lost: every cell was recorded done. Zero duplicated:
			// recorded done exactly once — the counter is incremented per
			// first report only, so > len(cells) would mean double count.
			if got := snap["coordinator_cells_completed_total"]; got != int64(len(cells)) {
				t.Errorf("%d cells recorded complete, want exactly %d", got, len(cells))
			}
			if snap["coordinator_cells_failed_total"] != 0 {
				t.Errorf("%d cells failed", snap["coordinator_cells_failed_total"])
			}
			if snap["coordinator_pending_cells"] != 0 {
				t.Errorf("pending gauge %d after completion", snap["coordinator_pending_cells"])
			}
			// The disruption must actually have rerouted work.
			if snap["coordinator_requeues_total"] == 0 {
				t.Errorf("%s caused no requeues — the disruption landed after the sweep finished", sc.name)
			}
			if snap["coordinator_worker_deaths_total"] == 0 {
				t.Errorf("%s recorded no worker death", sc.name)
			}

			live := tc.coord.liveWorkerIDs(time.Now())
			hasW0 := false
			for _, id := range live {
				hasW0 = hasW0 || id == "w0"
			}
			if sc.revives && !hasW0 {
				t.Errorf("restarted worker w0 not live again (live: %v)", live)
			}
			if !sc.revives && hasW0 {
				t.Errorf("disrupted worker w0 still counted live (live: %v)", live)
			}
		})
	}
}
