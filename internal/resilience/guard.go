package resilience

import (
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trace"
)

// EngineGuard runs simulation cells on the fast engine under one shared
// watchdog (step budget and cancellation) and counts them. It is the
// hook a sweep installs as core.Suite's Runner and DynRunner, and the
// runner behind every mtserve cell. Correctness of the fast engine is
// proven at test time (the differential, property and fuzz suites against
// the reference engine), not re-checked at runtime.
//
// The guard is safe for concurrent use; core.Suite runs cells in
// parallel.
type EngineGuard struct {
	// Guard is the watchdog applied by Run and RunDynamic (zero =
	// unbounded); RunOnline takes its own per call.
	Guard sim.Guard

	runs atomic.Uint64
}

// Stats returns the number of guarded runs and of reference-engine cross
// checks, which is always 0: the guard never re-runs a cell on the
// reference engine. The method keeps its two-value shape because the
// benchmark of record (perfbench) reads it.
func (g *EngineGuard) Stats() (runs, crossChecks uint64) {
	return g.runs.Load(), 0
}

// Run simulates one cell through the guard. It matches sim.Run's
// signature, so core.Suite can adopt it as its Runner unchanged.
func (g *EngineGuard) Run(tr *trace.Trace, pl *placement.Placement, cfg sim.Config) (*sim.Result, error) {
	return g.RunOnline(tr, pl, cfg, sim.OnlineOptions{}, nil, g.Guard)
}

// RunOnline runs one cell, static or online adaptive, with a per-call
// probe and watchdog: the serving layer gives every HTTP request its own
// cancellation flag and step budget while all requests share one guard.
// With opts disabled it is a static run, exactly like Run.
func (g *EngineGuard) RunOnline(tr *trace.Trace, pl *placement.Placement, cfg sim.Config, opts sim.OnlineOptions, probe obs.Probe, guard sim.Guard) (*sim.Result, error) {
	g.runs.Add(1)
	return sim.RunOnlineGuarded(tr, pl, cfg, sim.FastEngine, opts, probe, guard)
}

// RunDynamic simulates a dynamic-scheduling cell under the guard's
// watchdog. It matches sim.RunDynamic's signature (core.Suite's
// DynRunner).
func (g *EngineGuard) RunDynamic(tr *trace.Trace, cfg sim.Config, policy sim.SchedulePolicy) (*sim.Result, error) {
	g.runs.Add(1)
	return sim.RunDynamicGuarded(tr, cfg, policy, nil, g.Guard)
}
