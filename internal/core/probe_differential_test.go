package core

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestDifferentialProbes proves the observability layer's core contract
// on the real workload: attaching a probe changes nothing. For every
// application, placement algorithm and engine in the differential sweep,
// a run with a full probe stack (counter + sampler + tracer through
// Multi) must produce a Result deeply equal to the bare run, and the
// probe streams the two engines see must agree on every count, queue
// depths included.
func TestDifferentialProbes(t *testing.T) {
	s := testSuite()
	algs := []string{"RANDOM", "LOAD-BAL", "SHARE-REFS"}
	procCounts := []int{2, 8}
	for _, a := range workload.Apps() {
		app := a.Name
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			tr, err := s.Trace(app)
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range algs {
				for _, procs := range procCounts {
					pl, err := s.Place(app, alg, procs)
					if err != nil {
						t.Fatal(err)
					}
					cfg, err := s.Config(app, procs, false)
					if err != nil {
						t.Fatal(err)
					}
					counters := map[sim.Engine]*obs.Counter{}
					for _, eng := range []sim.Engine{sim.ReferenceEngine, sim.FastEngine} {
						bare, err := sim.RunEngine(tr, pl, cfg, eng)
						if err != nil {
							t.Fatalf("%s/%dp/%v: %v", alg, procs, eng, err)
						}
						c := &obs.Counter{}
						probe := obs.Multi(c, obs.NewSampler(10_000), obs.NewTracer())
						probed, err := sim.RunObserved(tr, pl, cfg, eng, probe)
						if err != nil {
							t.Fatalf("%s/%dp/%v: probed run: %v", alg, procs, eng, err)
						}
						if !reflect.DeepEqual(bare, probed) {
							t.Errorf("%s/%dp/%v: probe perturbed the Result:\n  bare   exec %d %+v\n  probed exec %d %+v",
								alg, procs, eng, bare.ExecTime, bare.Totals(), probed.ExecTime, probed.Totals())
						}
						counters[eng] = c
					}
					// The two engines must emit identical event streams,
					// queue-depth samples and their maximum included.
					ref, fast := *counters[sim.ReferenceEngine], *counters[sim.FastEngine]
					ref.Meta.Engine, fast.Meta.Engine = "", ""
					if ref != fast {
						t.Errorf("%s/%dp: engines emitted different probe streams:\n  reference %+v\n  fast      %+v",
							alg, procs, ref, fast)
					}
				}
			}
		})
	}
}

// TestDifferentialProbesDynamic extends the identity check to the
// dynamic self-scheduling path.
func TestDifferentialProbesDynamic(t *testing.T) {
	s := testSuite()
	tr, err := s.Trace("MP3D")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Config("MP3D", 4, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []sim.SchedulePolicy{sim.FIFO, sim.LongestFirst} {
		bare, err := sim.RunDynamic(tr, cfg, policy)
		if err != nil {
			t.Fatal(err)
		}
		probed, err := sim.RunDynamicObserved(tr, cfg, policy,
			obs.Multi(&obs.Counter{}, obs.NewSampler(10_000)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare, probed) {
			t.Errorf("%v: probe perturbed the dynamic Result", policy)
		}
	}
}
