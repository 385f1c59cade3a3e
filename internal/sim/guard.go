package sim

import (
	"fmt"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/trace"
)

// Guard bounds a simulation run. The paper's sweeps chain thousands of
// runs; one livelocked dynamic schedule (or a pathological config) must
// abort with a diagnostic instead of spinning the whole sweep forever.
// The zero Guard imposes no bounds and adds no per-event cost beyond one
// nil check.
type Guard struct {
	// MaxSteps aborts the run after that many engine events have been
	// popped from the event queue. 0 means unlimited. Every popped event
	// counts, stale and idle-wake events included, so a run takes more
	// steps than it issues references; a bound comfortably above a few
	// times the trace's total reference count only ever fires on livelock.
	MaxSteps uint64
	// Cancel, when non-nil, is polled periodically (every few thousand
	// steps); once it reads true the run aborts. Setting it from another
	// goroutine is the supported way to impose wall-clock timeouts.
	Cancel *atomic.Bool
}

// enabled reports whether the guard imposes any bound.
func (g Guard) enabled() bool { return g.MaxSteps != 0 || g.Cancel != nil }

// cancelPollMask: the cancel flag is polled every 4096 steps, keeping the
// atomic load off almost every hot-loop iteration.
const cancelPollMask = 4095

// guardState is the per-run watchdog embedded in both engines' machines.
// A nil *guardState is the unguarded hot path.
type guardState struct {
	maxSteps uint64
	cancel   *atomic.Bool
	steps    uint64
	canceled bool
}

func newGuardState(g Guard) *guardState {
	if !g.enabled() {
		return nil
	}
	return &guardState{maxSteps: g.MaxSteps, cancel: g.Cancel}
}

// tripped counts one simulation step and reports whether the run must
// abort. It is on the per-event hot path: no allocation, one atomic load
// every 4096 steps, everything else plain arithmetic. Error construction
// lives in budgetError, off the hot path.
//
//mtlint:hotpath
func (g *guardState) tripped() bool {
	g.steps++
	if g.maxSteps != 0 && g.steps > g.maxSteps {
		return true
	}
	if g.cancel != nil && g.steps&cancelPollMask == 0 && g.cancel.Load() {
		g.canceled = true
		return true
	}
	return false
}

// BudgetError reports a run aborted by its Guard, with enough context to
// tell a livelock (queue still busy at a huge cycle count) from an
// external cancellation.
type BudgetError struct {
	// App and Algorithm identify the aborted run.
	App, Algorithm string
	// Engine is "fast" or "reference".
	Engine string
	// Steps is the number of engine events popped before the abort
	// (stale and idle-wake events included; see Guard.MaxSteps).
	Steps uint64
	// Cycle is the simulated time of the last processed event.
	Cycle uint64
	// Queue is the event-queue depth at abort.
	Queue int
	// Canceled is true when the guard's Cancel flag (not the step budget)
	// stopped the run.
	Canceled bool
}

// Error implements error.
func (e *BudgetError) Error() string {
	cause := fmt.Sprintf("step budget (%d steps) exhausted", e.Steps)
	if e.Canceled {
		cause = fmt.Sprintf("canceled after %d steps", e.Steps)
	}
	return fmt.Sprintf("sim: %s/%s aborted on %s engine: %s at cycle %d with %d queued events",
		e.App, e.Algorithm, e.Engine, cause, e.Cycle, e.Queue)
}

// budgetError builds the abort diagnostic (cold path) and reports the
// watchdog trip to the probe.
func (g *guardState) budgetError(meta obs.RunMeta, cycle uint64, queue int, probe obs.Probe) error {
	if probe != nil {
		probe.Fault(cycle, obs.FaultWatchdog)
	}
	return &BudgetError{
		App: meta.App, Algorithm: meta.Algorithm, Engine: meta.Engine,
		Steps: g.steps, Cycle: cycle, Queue: queue, Canceled: g.canceled,
	}
}

// RunGuarded is RunObserved with a watchdog attached: the run aborts with
// a *BudgetError once guard.MaxSteps events have been popped or
// guard.Cancel reads true. The zero Guard makes it exactly RunObserved.
func RunGuarded(tr *trace.Trace, pl *placement.Placement, cfg Config, eng Engine, probe obs.Probe, guard Guard) (*Result, error) {
	return RunOnlineGuarded(tr, pl, cfg, eng, OnlineOptions{}, probe, guard)
}
