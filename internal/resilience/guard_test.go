package resilience

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trace"
)

func guardCell() (*trace.Trace, *placement.Placement, sim.Config) {
	rng := rand.New(rand.NewSource(7))
	tr := trace.New("cell", 4)
	for i := 0; i < 4; i++ {
		r := trace.NewRecorder(tr, i)
		for j := 0; j < 150; j++ {
			r.Compute(rng.Intn(4))
			addr := trace.SharedBase + uint64(rng.Intn(48))*trace.WordSize
			if rng.Intn(3) == 0 {
				r.Store(addr)
			} else {
				r.Load(addr)
			}
		}
	}
	pl := &placement.Placement{Algorithm: "TEST", Clusters: [][]int{{0, 1}, {2, 3}}}
	return tr, pl, sim.DefaultConfig(2)
}

func TestEngineGuardHealthy(t *testing.T) {
	tr, pl, cfg := guardCell()
	want, err := sim.Run(tr, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := &EngineGuard{}
	for i := 0; i < 6; i++ {
		got, err := g.Run(tr, pl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: guarded result differs from plain run", i)
		}
	}
	runs, checks := g.Stats()
	if runs != 6 || checks != 0 {
		t.Errorf("runs/checks = %d/%d, want 6/0", runs, checks)
	}
}

// TestEngineGuardConcurrent: one guard shared by eight goroutines counts
// every run and returns plain-run results throughout.
func TestEngineGuardConcurrent(t *testing.T) {
	tr, pl, cfg := guardCell()
	want, err := sim.Run(tr, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := &EngineGuard{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				got, err := g.Run(tr, pl, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Error("concurrent guarded run differs from plain run")
					return
				}
			}
		}()
	}
	wg.Wait()
	if runs, _ := g.Stats(); runs != 32 {
		t.Errorf("guard counted %d runs under concurrency, want 32", runs)
	}
}

// guardRotate migrates every thread one processor right at each
// boundary — enough churn that any cross-engine skew becomes visible.
type guardRotate struct{}

func (guardRotate) Name() string { return "ROTATE" }
func (guardRotate) Decide(ck *sim.OnlineCheckpoint, env sim.OnlineEnv) []int {
	want := make([]int, len(ck.Assign))
	for t, q := range ck.Assign {
		want[t] = q
		if q >= 0 {
			want[t] = (q + 1) % env.Procs
		}
	}
	return want
}

// TestEngineGuardRunOnlineDisabled: zero online options make RunOnline
// exactly Run — static results, no Online stats.
func TestEngineGuardRunOnlineDisabled(t *testing.T) {
	tr, pl, cfg := guardCell()
	want, err := sim.Run(tr, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := &EngineGuard{}
	for i := 0; i < 4; i++ {
		got, err := g.RunOnline(tr, pl, cfg, sim.OnlineOptions{}, nil, sim.Guard{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Online != nil {
			t.Fatal("disabled online run carries Online stats")
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: disabled RunOnline differs from static run", i)
		}
	}
	if runs, checks := g.Stats(); runs != 4 || checks != 0 {
		t.Errorf("runs/checks = %d/%d, want 4/0", runs, checks)
	}
}

// TestEngineGuardRunOnlineHealthy: a guarded online run with migrations
// in flight equals the reference engine's run of the same cell.
func TestEngineGuardRunOnlineHealthy(t *testing.T) {
	tr, pl, cfg := guardCell()
	opts := sim.OnlineOptions{Interval: 300, Penalty: 16, Policy: guardRotate{}}
	want, err := sim.RunOnlineGuarded(tr, pl, cfg, sim.ReferenceEngine, opts, nil, sim.Guard{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Online == nil || want.Online.Migrations == 0 {
		t.Fatal("workload produced no migrations; test is vacuous")
	}
	g := &EngineGuard{}
	for i := 0; i < 3; i++ {
		got, err := g.RunOnline(tr, pl, cfg, opts, nil, sim.Guard{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: guarded online result differs from reference", i)
		}
	}
}

func TestEngineGuardWatchdog(t *testing.T) {
	tr, pl, cfg := guardCell()
	g := &EngineGuard{Guard: sim.Guard{MaxSteps: 20}}
	if _, err := g.Run(tr, pl, cfg); err == nil {
		t.Fatal("guard's step budget did not abort the run")
	}
	gd := &EngineGuard{Guard: sim.Guard{MaxSteps: 20}}
	if _, err := gd.RunDynamic(tr, cfg, sim.FIFO); err == nil {
		t.Fatal("guard's step budget did not abort the dynamic run")
	}
}
