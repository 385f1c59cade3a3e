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
// a run with a probe stack (counter + sampler + event digest through
// Multi) must produce a Result deeply equal to the bare run, and the
// probe streams the two engines see must agree on every count, queue
// depths included, and on the digest of every other event's fields.
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
					digests := map[sim.Engine]*eventDigest{}
					for _, eng := range []sim.Engine{sim.ReferenceEngine, sim.FastEngine} {
						bare, err := sim.RunObserved(tr, pl, cfg, eng, nil)
						if err != nil {
							t.Fatalf("%s/%dp/%v: %v", alg, procs, eng, err)
						}
						c, d := &obs.Counter{}, &eventDigest{}
						probe := obs.Multi(c, obs.NewSampler(10_000), d)
						probed, err := sim.RunObserved(tr, pl, cfg, eng, probe)
						if err != nil {
							t.Fatalf("%s/%dp/%v: probed run: %v", alg, procs, eng, err)
						}
						if !reflect.DeepEqual(bare, probed) {
							t.Errorf("%s/%dp/%v: probe perturbed the Result:\n  bare   exec %d %+v\n  probed exec %d %+v",
								alg, procs, eng, bare.ExecTime, bare.Totals(), probed.ExecTime, probed.Totals())
						}
						counters[eng], digests[eng] = c, d
					}
					// The two engines must emit identical event streams,
					// queue-depth samples and their maximum included.
					ref, fast := *counters[sim.ReferenceEngine], *counters[sim.FastEngine]
					ref.Meta.Engine, fast.Meta.Engine = "", ""
					if ref != fast {
						t.Errorf("%s/%dp: engines emitted different probe streams:\n  reference %+v\n  fast      %+v",
							alg, procs, ref, fast)
					}
					if r, f := digests[sim.ReferenceEngine].sum, digests[sim.FastEngine].sum; r != f {
						t.Errorf("%s/%dp: engines emitted different events: digest %#x (reference) != %#x (fast)",
							alg, procs, r, f)
					}
				}
			}
		})
	}
}

// eventDigest is a Probe that folds every event except QueueDepth into
// an order-independent digest: the sum of a hash of each event's fields.
// Engines that emit the same multiset of events agree on it, whatever
// order they emit them in, without keeping any event. QueueDepth is
// engine-internal bookkeeping (see obs.Probe), compared only through the
// Counter; RunMeta.Engine names the engine and is left out.
type eventDigest struct{ sum uint64 }

// mix folds v into h: one splitmix64 finalizer round.
func mix(h, v uint64) uint64 {
	h ^= v
	h += 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// add folds one event (kind and up to four fields, unused ones zero).
func (d *eventDigest) add(kind, a, b, c, e uint64) {
	d.sum += mix(mix(mix(mix(kind, a), b), c), e)
}

// hashString hashes a string field (FNV-1a).
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

func (d *eventDigest) RunBegin(m obs.RunMeta) {
	d.add(1, hashString(m.App), hashString(m.Algorithm), uint64(m.Processors), uint64(m.Threads))
}
func (d *eventDigest) RunEnd(exec uint64) { d.add(2, exec, 0, 0, 0) }
func (d *eventDigest) ThreadRun(t uint64, proc, thread int) {
	d.add(3, t, uint64(proc), uint64(thread), 0)
}
func (d *eventDigest) ThreadPause(t uint64, proc, thread int, resumeAt uint64) {
	d.add(4, t, uint64(proc), uint64(thread), resumeAt)
}
func (d *eventDigest) ThreadFinish(t uint64, proc, thread int) {
	d.add(5, t, uint64(proc), uint64(thread), 0)
}
func (d *eventDigest) CacheHit(t uint64, proc, thread int) {
	d.add(6, t, uint64(proc), uint64(thread), 0)
}
func (d *eventDigest) CacheMiss(t uint64, proc, thread int, class obs.MissClass) {
	d.add(7, t, uint64(proc), uint64(thread), uint64(class))
}
func (d *eventDigest) Invalidation(t uint64, from, to int) {
	d.add(8, t, uint64(from), uint64(to), 0)
}
func (d *eventDigest) Update(t uint64, from, to int) { d.add(9, t, uint64(from), uint64(to), 0) }
func (d *eventDigest) PairTraffic(t uint64, from, to int) {
	d.add(10, t, uint64(from), uint64(to), 0)
}
func (d *eventDigest) ContextSwitch(t uint64, proc int) { d.add(11, t, uint64(proc), 0, 0) }
func (d *eventDigest) QueueDepth(t uint64, depth int)   {}
func (d *eventDigest) Migrate(t uint64, thread, from, to int) {
	d.add(12, t, uint64(thread), uint64(from), uint64(to))
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
		probed, err := sim.RunDynamicGuarded(tr, cfg, policy,
			obs.Multi(&obs.Counter{}, obs.NewSampler(10_000)), sim.Guard{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare, probed) {
			t.Errorf("%v: probe perturbed the dynamic Result", policy)
		}
	}
}
