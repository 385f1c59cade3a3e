package sim

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// TestMissClassMirrorsMissKind locks the obs.MissClass values to
// sim.MissKind: the engines convert with a bare obs.MissClass(kind), so
// neither enum may reorder without the other.
func TestMissClassMirrorsMissKind(t *testing.T) {
	pairs := []struct {
		kind  MissKind
		class obs.MissClass
	}{
		{Compulsory, obs.MissCompulsory},
		{ConflictIntra, obs.MissConflictIntra},
		{ConflictInter, obs.MissConflictInter},
		{InvalidationMiss, obs.MissInvalidation},
	}
	for _, p := range pairs {
		if int(p.kind) != int(p.class) {
			t.Errorf("sim.%v = %d but obs.%v = %d", p.kind, p.kind, p.class, p.class)
		}
	}
	if int(numMissKinds) != int(obs.NumMissClasses) {
		t.Errorf("numMissKinds = %d but obs.NumMissClasses = %d", numMissKinds, obs.NumMissClasses)
	}
}

// probeTrace builds a workload with enough sharing to exercise every
// probe event: misses of several classes, invalidations, dirty fetches,
// context switches and multi-context scheduling.
func probeTrace() *trace.Trace {
	nThreads := 4
	tr := trace.New("probe", nThreads)
	for i := 0; i < nThreads; i++ {
		r := trace.NewRecorder(tr, i)
		for j := 0; j < 200; j++ {
			// Private work, then a strided walk over a small shared region
			// with writes: every processor keeps invalidating the others.
			r.Compute(j % 7)
			r.Ref(trace.Read, sh(i*64+j%32))
			if j%3 == 0 {
				r.Ref(trace.Write, shBlock(j%10))
			} else {
				r.Ref(trace.Read, shBlock((j+i)%10))
			}
		}
	}
	return tr
}

// TestProbeDoesNotPerturbResults is the unit-level identity check: for
// both engines, Run with the full probe stack attached (counter, sampler
// and tracer through Multi) must produce a Result deeply equal to Run
// without one (the full-workload version lives in internal/core's
// differential suite).
func TestProbeDoesNotPerturbResults(t *testing.T) {
	tr := probeTrace()
	pl := mkPlacement([]int{0, 1}, []int{2, 3})
	cfg := DefaultConfig(2)

	for _, eng := range []Engine{ReferenceEngine, FastEngine} {
		bare, err := RunObserved(tr, pl, cfg, eng, nil)
		if err != nil {
			t.Fatal(err)
		}
		var c obs.Counter
		probed, err := RunObserved(tr, pl, cfg, eng, obs.Multi(&c, obs.NewSampler(1000), obs.NewTracer()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare, probed) {
			t.Errorf("%v: probe perturbed the Result:\n  bare   %+v\n  probed %+v",
				eng, bare.Totals(), probed.Totals())
		}
		if c.Runs != 1 {
			t.Errorf("%v: RunBegin fired %d times", eng, c.Runs)
		}
	}
}

// TestCounterMatchesResult cross-checks the probe event stream against
// the engine's own accounting: every hit, miss, invalidation, update and
// switch the Result reports must have been observed exactly once.
func TestCounterMatchesResult(t *testing.T) {
	tr := probeTrace()
	pl := mkPlacement([]int{0, 1}, []int{2, 3})

	for _, proto := range []Protocol{Invalidate, Update} {
		cfg := DefaultConfig(2)
		cfg.Protocol = proto
		for _, eng := range []Engine{ReferenceEngine, FastEngine} {
			var c obs.Counter
			res, err := RunObserved(tr, pl, cfg, eng, &c)
			if err != nil {
				t.Fatal(err)
			}
			tot := res.Totals()

			if c.Hits != tot.Hits {
				t.Errorf("%v/%v: probe hits %d != result hits %d", proto, eng, c.Hits, tot.Hits)
			}
			for k := MissKind(0); k < numMissKinds; k++ {
				if c.Misses[k] != tot.Misses[k] {
					t.Errorf("%v/%v: probe %v misses %d != result %d",
						proto, eng, k, c.Misses[k], tot.Misses[k])
				}
			}
			if c.Invalidations != tot.InvalidationsReceived {
				t.Errorf("%v/%v: probe invalidations %d != result received %d",
					proto, eng, c.Invalidations, tot.InvalidationsReceived)
			}
			if c.Updates != tot.UpdatesReceived {
				t.Errorf("%v/%v: probe updates %d != result received %d",
					proto, eng, c.Updates, tot.UpdatesReceived)
			}
			var pair uint64
			for _, row := range res.PairTraffic {
				for _, v := range row {
					pair += v
				}
			}
			if c.Pair != pair {
				t.Errorf("%v/%v: probe pair traffic %d != result %d", proto, eng, c.Pair, pair)
			}
			if c.Finishes != uint64(tr.NumThreads()) {
				t.Errorf("%v/%v: probe finishes %d != %d threads",
					proto, eng, c.Finishes, tr.NumThreads())
			}
			if c.ExecTime != res.ExecTime {
				t.Errorf("%v/%v: probe exec %d != result %d", proto, eng, c.ExecTime, res.ExecTime)
			}
		}
	}
}

// TestProbeThreadLifecycle checks the documented lifecycle contract on a
// scripted single-processor run: every ThreadRun is eventually closed by
// a Pause or Finish, pauses resume in the future, and per-thread event
// times are monotone.
func TestProbeThreadLifecycle(t *testing.T) {
	tr := probeTrace()
	pl := mkPlacement([]int{0, 1, 2, 3})
	cfg := DefaultConfig(1)

	for _, eng := range []Engine{ReferenceEngine, FastEngine} {
		lc := &lifecycleProbe{t: t, eng: eng, running: map[int]bool{}, last: map[int]uint64{}}
		if _, err := RunObserved(tr, pl, cfg, eng, lc); err != nil {
			t.Fatal(err)
		}
		for thread, on := range lc.running {
			if on {
				t.Errorf("%v: thread %d still running at RunEnd", eng, thread)
			}
		}
		if lc.finishes != tr.NumThreads() {
			t.Errorf("%v: %d finishes for %d threads", eng, lc.finishes, tr.NumThreads())
		}
	}
}

// lifecycleProbe asserts run/pause/finish pairing as events arrive.
type lifecycleProbe struct {
	obs.Counter
	t        *testing.T
	eng      Engine
	running  map[int]bool
	last     map[int]uint64
	finishes int
}

func (l *lifecycleProbe) mono(t uint64, thread int) {
	if t < l.last[thread] {
		l.t.Errorf("%v: thread %d time went backwards: %d after %d", l.eng, thread, t, l.last[thread])
	}
	l.last[thread] = t
}

func (l *lifecycleProbe) ThreadRun(t uint64, proc, thread int) {
	if l.running[thread] {
		l.t.Errorf("%v: thread %d scheduled while already running", l.eng, thread)
	}
	l.mono(t, thread)
	l.running[thread] = true
	l.Counter.ThreadRun(t, proc, thread)
}

func (l *lifecycleProbe) ThreadPause(t uint64, proc, thread int, resumeAt uint64) {
	if !l.running[thread] {
		l.t.Errorf("%v: thread %d paused while not running", l.eng, thread)
	}
	if resumeAt < t {
		l.t.Errorf("%v: thread %d resumes at %d before pause at %d", l.eng, thread, resumeAt, t)
	}
	l.mono(t, thread)
	l.running[thread] = false
	l.Counter.ThreadPause(t, proc, thread, resumeAt)
}

func (l *lifecycleProbe) ThreadFinish(t uint64, proc, thread int) {
	l.mono(t, thread)
	l.running[thread] = false
	l.finishes++
	l.Counter.ThreadFinish(t, proc, thread)
}

// TestRunDynamicObserved mirrors the identity check for the dynamic
// scheduler path.
func TestRunDynamicObserved(t *testing.T) {
	tr := probeTrace()
	cfg := DefaultConfig(2)

	for _, policy := range []SchedulePolicy{FIFO, LongestFirst} {
		bare, err := RunDynamic(tr, cfg, policy)
		if err != nil {
			t.Fatal(err)
		}
		var c obs.Counter
		probed, err := RunDynamicGuarded(tr, cfg, policy, &c, Guard{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare, probed) {
			t.Errorf("%v: probe perturbed the dynamic Result", policy)
		}
		if c.Hits != probed.Totals().Hits {
			t.Errorf("%v: probe hits %d != result %d", policy, c.Hits, probed.Totals().Hits)
		}
	}
}
