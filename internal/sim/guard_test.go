package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// guardTrace builds a multi-thread shared-access workload big enough for
// the watchdog to have something to interrupt.
func guardTrace(threads, refs int) *trace.Trace {
	rng := rand.New(rand.NewSource(42))
	tr := trace.New("guard", threads)
	for i := 0; i < threads; i++ {
		r := trace.NewRecorder(tr, i)
		for j := 0; j < refs; j++ {
			r.Compute(rng.Intn(4))
			addr := sh(rng.Intn(64))
			if rng.Intn(3) == 0 {
				r.Store(addr)
			} else {
				r.Load(addr)
			}
		}
	}
	return tr
}

func TestGuardZeroValueIsPlainRun(t *testing.T) {
	tr := guardTrace(4, 200)
	pl := mkPlacement([]int{0, 1}, []int{2, 3})
	cfg := DefaultConfig(2)
	for _, eng := range []Engine{FastEngine, ReferenceEngine} {
		plain, err := RunObserved(tr, pl, cfg, eng, nil)
		if err != nil {
			t.Fatal(err)
		}
		guarded, err := RunGuarded(tr, pl, cfg, eng, nil, Guard{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, guarded) {
			t.Errorf("%s: zero-guard result differs from plain run", eng)
		}
	}
}

func TestGuardLooseBudgetDoesNotFire(t *testing.T) {
	tr := guardTrace(4, 100)
	pl := mkPlacement([]int{0, 1}, []int{2, 3})
	cfg := DefaultConfig(2)
	for _, eng := range []Engine{FastEngine, ReferenceEngine} {
		plain, err := RunObserved(tr, pl, cfg, eng, nil)
		if err != nil {
			t.Fatal(err)
		}
		// A finite run processes a bounded number of engine events; any
		// budget above that must not alter the result.
		guarded, err := RunGuarded(tr, pl, cfg, eng, nil, Guard{MaxSteps: 1 << 30})
		if err != nil {
			t.Fatalf("%s: loose budget fired: %v", eng, err)
		}
		if !reflect.DeepEqual(plain, guarded) {
			t.Errorf("%s: guarded result differs from plain run", eng)
		}
	}
}

func TestGuardStepBudgetAborts(t *testing.T) {
	tr := guardTrace(4, 500)
	pl := mkPlacement([]int{0, 1}, []int{2, 3})
	cfg := DefaultConfig(2)
	for _, eng := range []Engine{FastEngine, ReferenceEngine} {
		probe := &obs.Counter{}
		res, err := RunGuarded(tr, pl, cfg, eng, probe, Guard{MaxSteps: 100})
		if err == nil {
			t.Fatalf("%s: budget of 100 steps did not abort (result %v)", eng, res)
		}
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("%s: got %v, want *BudgetError", eng, err)
		}
		if be.Canceled {
			t.Errorf("%s: Canceled set on a step-budget abort", eng)
		}
		if be.Steps != 101 {
			t.Errorf("%s: aborted after %d steps, want 101", eng, be.Steps)
		}
		if be.Engine != eng.String() || be.App != "guard" {
			t.Errorf("%s: diagnostic names %s/%s", eng, be.Engine, be.App)
		}
		if be.Error() == "" {
			t.Errorf("%s: empty diagnostic", eng)
		}
	}
}

func TestGuardCancelAborts(t *testing.T) {
	tr := guardTrace(6, 3000)
	pl := mkPlacement([]int{0, 1, 2}, []int{3, 4, 5})
	cfg := DefaultConfig(2)
	for _, eng := range []Engine{FastEngine, ReferenceEngine} {
		var cancel atomic.Bool
		cancel.Store(true) // pre-canceled: must abort at the first poll
		_, err := RunGuarded(tr, pl, cfg, eng, nil, Guard{Cancel: &cancel})
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("%s: got %v, want *BudgetError", eng, err)
		}
		if !be.Canceled {
			t.Errorf("%s: Canceled not set on a cancellation abort", eng)
		}
		// The flag is polled every cancelPollMask+1 steps.
		if be.Steps != cancelPollMask+1 {
			t.Errorf("%s: aborted after %d steps, want %d", eng, be.Steps, cancelPollMask+1)
		}
	}
}

func TestGuardDynamic(t *testing.T) {
	tr := guardTrace(8, 400)
	cfg := DefaultConfig(2)

	plain, err := RunDynamic(tr, cfg, FIFO)
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := RunDynamicGuarded(tr, cfg, FIFO, nil, Guard{MaxSteps: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, guarded) {
		t.Error("guarded dynamic result differs from plain run")
	}

	_, err = RunDynamicGuarded(tr, cfg, FIFO, nil, Guard{MaxSteps: 50})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("dynamic budget abort: got %v, want *BudgetError", err)
	}
}

// TestBudgetErrorEnginesAgree: a run aborted by its step budget reports
// the same diagnostic on both engines, engine name aside — the same step
// count, cycle and queue depth (the length after removing the event that
// tripped the budget) on static, dynamic and online runs, so any change
// to how the fast engine steps its event queue must keep the reference
// engine's accounting.
func TestBudgetErrorEnginesAgree(t *testing.T) {
	tr := guardTrace(8, 300)
	pl := mkPlacement([]int{0, 1}, []int{2, 3}, []int{4, 5}, []int{6, 7})
	cfg := DefaultConfig(4)
	online := OnlineOptions{Interval: 97, Penalty: 20, Policy: rotatePolicy{}}
	runs := []struct {
		name string
		run  func(eng Engine, g Guard) error
	}{
		{"static", func(eng Engine, g Guard) error {
			_, err := RunGuarded(tr, pl, cfg, eng, nil, g)
			return err
		}},
		{"dynamic", func(eng Engine, g Guard) error {
			if eng == FastEngine {
				_, err := RunDynamicGuarded(tr, cfg, FIFO, nil, g)
				return err
			}
			m, dpl, err := newDynamicMachine(tr, cfg, FIFO)
			if err != nil {
				return err
			}
			m.guard = newGuardState(g)
			_, err = m.run(tr, dpl, 0)
			return err
		}},
		{"online", func(eng Engine, g Guard) error {
			_, err := RunOnlineGuarded(tr, pl, cfg, eng, online, nil, g)
			return err
		}},
	}
	for _, r := range runs {
		for _, steps := range []uint64{1, 2, 100, 777} {
			var got [2]BudgetError
			for i, eng := range []Engine{ReferenceEngine, FastEngine} {
				var be *BudgetError
				if err := r.run(eng, Guard{MaxSteps: steps}); !errors.As(err, &be) {
					t.Fatalf("%s/%d/%v: got %v, want *BudgetError", r.name, steps, eng, err)
				}
				got[i] = *be
				got[i].Engine = ""
			}
			if got[0] != got[1] {
				t.Errorf("%s/%d: reference %+v, fast %+v", r.name, steps, got[0], got[1])
			}
		}
	}
}
