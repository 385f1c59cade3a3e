package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// skewedTrace builds threads of strongly unequal lengths.
func skewedTrace(t *testing.T, n int) *trace.Trace {
	t.Helper()
	tr := trace.New("skewed", n)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		r := trace.NewRecorder(tr, i)
		refs := 20 + rng.Intn(50)
		if i%7 == 0 {
			refs *= 10
		}
		for j := 0; j < refs; j++ {
			r.Compute(8)
			r.Load(trace.SharedBase + uint64((i*1000+j%200))*DefaultLineSize)
		}
	}
	return tr
}

func TestDynamicSchedulingCompletesAllThreads(t *testing.T) {
	tr := skewedTrace(t, 24)
	cfg := DefaultConfig(4)
	cfg.MaxContexts = 2
	res, err := RunDynamic(tr, cfg, FIFO)
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Totals()
	if tot.Refs != tr.TotalRefs() {
		t.Errorf("refs = %d, want %d", tot.Refs, tr.TotalRefs())
	}
	if tot.Busy != tr.TotalInstructions() {
		t.Errorf("busy = %d, want %d", tot.Busy, tr.TotalInstructions())
	}
	for tid, f := range res.ThreadFinish {
		if f == 0 {
			t.Errorf("thread %d never finished", tid)
		}
	}
	if res.Algorithm != "DYNAMIC/fifo" {
		t.Errorf("algorithm = %q", res.Algorithm)
	}
}

func TestDynamicBalancesLoadOnline(t *testing.T) {
	tr := skewedTrace(t, 24)
	cfg := DefaultConfig(4)
	cfg.MaxContexts = 2

	dyn, err := RunDynamic(tr, cfg, LongestFirst)
	if err != nil {
		t.Fatal(err)
	}

	// A deliberately bad static placement: all four long threads
	// (IDs 0, 7, 14, 21) on one processor.
	clusters := [][]int{
		{0, 7, 14, 21, 1, 2},
		{3, 4, 5, 6, 8, 9},
		{10, 11, 12, 13, 15, 16},
		{17, 18, 19, 20, 22, 23},
	}
	static, err := Run(tr, mkPlacement(clusters...), DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if dyn.ExecTime >= static.ExecTime {
		t.Errorf("dynamic scheduling (%d) not faster than a bad static placement (%d)",
			dyn.ExecTime, static.ExecTime)
	}
}

func TestDynamicPoliciesDiffer(t *testing.T) {
	tr := skewedTrace(t, 24)
	cfg := DefaultConfig(4)
	fifo, err := RunDynamic(tr, cfg, FIFO)
	if err != nil {
		t.Fatal(err)
	}
	lpt, err := RunDynamic(tr, cfg, LongestFirst)
	if err != nil {
		t.Fatal(err)
	}
	// Longest-first dispatches the giants early; it must not lose badly
	// to FIFO on a skewed workload.
	if float64(lpt.ExecTime) > 1.2*float64(fifo.ExecTime) {
		t.Errorf("longest-first (%d) much slower than FIFO (%d)", lpt.ExecTime, fifo.ExecTime)
	}
}

func TestDynamicDeterministic(t *testing.T) {
	tr := skewedTrace(t, 24)
	cfg := DefaultConfig(4)
	cfg.MaxContexts = 2
	a, err := RunDynamic(tr, cfg, FIFO)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDynamic(tr, cfg, FIFO)
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecTime != b.ExecTime {
		t.Error("dynamic run not deterministic")
	}
}

func TestDynamicErrors(t *testing.T) {
	tr := skewedTrace(t, 4)
	cfg := DefaultConfig(8) // 8 seeds needed, only 4 threads
	if _, err := RunDynamic(tr, cfg, FIFO); err == nil {
		t.Error("under-seeded dynamic run accepted")
	}
	if _, err := RunDynamic(tr, Config{}, FIFO); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestSchedulePolicyString(t *testing.T) {
	if FIFO.String() != "fifo" || LongestFirst.String() != "longest-first" {
		t.Error("policy names wrong")
	}
}

// runDynamicReference is RunDynamic on the reference engine, the oracle
// the dynamic differential compares the fast engine against.
func runDynamicReference(tr *trace.Trace, cfg Config, policy SchedulePolicy) (*Result, error) {
	m, pl, err := newDynamicMachine(tr, cfg, policy)
	if err != nil {
		return nil, err
	}
	return m.run(tr, pl, 0)
}

// TestDynamicEnginesAgree is the dynamic differential: on every
// application, both policies, 2 and 8 processors and one or two contexts
// per processor, the fast engine's self-scheduled run must deeply equal
// the reference engine's, and attaching probes must not perturb it.
func TestDynamicEnginesAgree(t *testing.T) {
	params := workload.Params{Scale: 0.25, Seed: 1994}
	for _, a := range workload.Apps() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			tr, err := a.Build(params)
			if err != nil {
				t.Fatal(err)
			}
			for _, policy := range []SchedulePolicy{FIFO, LongestFirst} {
				for _, procs := range []int{2, 8} {
					for _, maxCtx := range []int{0, 2} {
						cfg := DefaultConfig(procs)
						cfg.CacheSize = a.CacheSize
						cfg.MaxContexts = maxCtx
						cell := fmt.Sprintf("%v/%dp/ctx%d", policy, procs, maxCtx)
						ref, rerr := runDynamicReference(tr, cfg, policy)
						fast, ferr := RunDynamic(tr, cfg, policy)
						if (rerr == nil) != (ferr == nil) {
							t.Fatalf("%s: engines disagree on validity: reference %v, fast %v", cell, rerr, ferr)
						}
						if rerr != nil {
							continue
						}
						if !reflect.DeepEqual(ref, fast) {
							t.Errorf("%s: engines diverge: reference exec %d, fast exec %d", cell, ref.ExecTime, fast.ExecTime)
						}
						probed, err := RunDynamicGuarded(tr, cfg, policy, obs.Multi(&obs.Counter{}, obs.NewSampler(10_000)), Guard{})
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(fast, probed) {
							t.Errorf("%s: probe perturbed the fast dynamic Result", cell)
						}
					}
				}
			}
		})
	}
}

// TestDynamicEmptyThreadStillSeedsWork is the regression for an empty
// thread in the ready queue: it used to leave processor 0 counted as
// finished before it ran its seeded thread. Empty threads now take no
// context at all, on both engines and under both policies.
func TestDynamicEmptyThreadStillSeedsWork(t *testing.T) {
	tr := trace.New("empty-queued", 3)
	for th := 0; th < 2; th++ {
		r := trace.NewRecorder(tr, th)
		for j := 0; j < 50; j++ {
			r.Compute(2)
			r.Load(trace.SharedBase + uint64(th*64+j)*DefaultLineSize)
		}
	}
	cfg := DefaultConfig(2)
	for _, policy := range []SchedulePolicy{FIFO, LongestFirst} {
		fast, err := RunDynamic(tr, cfg, policy)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := runDynamicReference(tr, cfg, policy)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Errorf("%v: engines diverge", policy)
		}
		if got := fast.Totals().Refs; got != 100 {
			t.Errorf("%v: ran %d of 100 references", policy, got)
		}
		for th := 0; th < 2; th++ {
			if fast.ThreadFinish[th] == 0 {
				t.Errorf("%v: thread %d never ran", policy, th)
			}
		}
		if fast.ThreadFinish[2] != 0 {
			t.Errorf("%v: the empty thread finished at %d, want 0", policy, fast.ThreadFinish[2])
		}
	}
}

// TestDynamicModelsContention: a dynamic run with interconnect channels
// and no explicit occupancy takes the default occupancy, like a static
// run, so channel queueing is charged.
func TestDynamicModelsContention(t *testing.T) {
	tr := skewedTrace(t, 8)
	cfg := DefaultConfig(4)
	cfg.NetworkChannels = 1
	res, err := RunDynamic(tr, cfg, FIFO)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.NetworkOccupancy != DefaultNetworkOccupancy {
		t.Errorf("occupancy %d, want the default %d", res.Config.NetworkOccupancy, DefaultNetworkOccupancy)
	}
	if res.Totals().NetworkWait == 0 {
		t.Error("one shared channel charged no network wait")
	}
}
