package main

import (
	"log/slog"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/serve"
	"repro/internal/serve/rescache"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// storedRunner is the core.Options.Runner behind -store-dir: it resumes
// a sweep per cell through the MTS1 store. Before simulating a static
// cell it looks the cell up under its rescache content address, and it
// stores every fresh result under that address — the address and the
// envelope mtserve uses (serve.LoadResult / serve.SaveResult), so a
// directory either program filled serves the other.
//
// Workloads outside the catalog (the synthetic ablation variants) run
// uncached, by the rule remoteRunner uses: they are parameterized beyond
// (scale, seed), so no content address exists for them. Dynamic
// scheduling never reaches a Runner.
type storedRunner struct {
	st     *store.Store
	next   func(*trace.Trace, *placement.Placement, sim.Config) (*sim.Result, error)
	params workload.Params
	log    *slog.Logger

	// abortAfter, when positive, refuses every simulation past that many
	// with errInterrupted (the kill-and-resume test hook).
	abortAfter int64

	simulated atomic.Int64
	restored  atomic.Int64
}

// counts returns the cells simulated and the cells read from the store
// so far; a nil runner counts nothing.
func (r *storedRunner) counts() (simulated, restored int64) {
	if r == nil {
		return 0, 0
	}
	return r.simulated.Load(), r.restored.Load()
}

func (r *storedRunner) run(tr *trace.Trace, pl *placement.Placement, cfg sim.Config) (*sim.Result, error) {
	_, err := workload.ByName(tr.App)
	inCatalog := err == nil
	var key rescache.Key
	if inCatalog {
		key = rescache.KeyOf(r.params.Scale, r.params.Seed, tr.App, core.PlacementKey(pl), cfg)
		res, err := serve.LoadResult(r.st, key)
		if err != nil {
			r.log.Warn("store record unusable, recomputing", "key", key.String(), "err", err.Error())
		}
		if res != nil {
			r.restored.Add(1)
			return res, nil
		}
	}
	if n := r.simulated.Add(1); r.abortAfter > 0 && n > r.abortAfter {
		return nil, errInterrupted
	}
	res, err := r.next(tr, pl, cfg)
	if err != nil || !inCatalog {
		return res, err
	}
	if err := serve.SaveResult(r.st, key, res); err != nil {
		r.log.Warn("store put refused", "key", key.String(), "err", err.Error())
	}
	return res, nil
}
