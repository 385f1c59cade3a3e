package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/trace"
)

// Test policies. The real policies live in internal/advise (which
// imports sim); these minimal ones exercise the engine mechanics —
// keeping, rotating, and pair-matrix-driven decisions — without an
// import cycle.

// keepPolicy never migrates: boundaries fire, stats are snapshotted,
// nothing moves. Timing must be identical to the static run.
type keepPolicy struct{}

func (keepPolicy) Name() string                              { return "KEEP" }
func (keepPolicy) Decide(*OnlineCheckpoint, OnlineEnv) []int { return nil }

// rotatePolicy shifts every thread one processor to the right at every
// boundary — maximal migration churn.
type rotatePolicy struct{}

func (rotatePolicy) Name() string { return "ROTATE" }
func (rotatePolicy) Decide(ck *OnlineCheckpoint, env OnlineEnv) []int {
	want := make([]int, len(ck.Assign))
	for t, q := range ck.Assign {
		if q < 0 {
			want[t] = q
			continue
		}
		want[t] = (q + 1) % env.Procs
	}
	return want
}

// pairPolicy co-locates the hottest communicating thread pair — a
// decision actually driven by the measured matrix, so any divergence in
// the engines' traffic attribution shows up as divergent placements.
type pairPolicy struct{}

func (pairPolicy) Name() string { return "PAIR" }
func (pairPolicy) Decide(ck *OnlineCheckpoint, env OnlineEnv) []int {
	ba, bb, best := -1, -1, uint64(0)
	for a, row := range ck.Pair {
		for b, v := range row {
			if v > best {
				ba, bb, best = a, b, v
			}
		}
	}
	if ba < 0 || ck.Assign[ba] < 0 || ck.Assign[ba] == ck.Assign[bb] {
		return nil
	}
	want := append([]int(nil), ck.Assign...)
	want[bb] = want[ba]
	return want
}

// onlineWorkload is randWorkload constrained to online-compatible
// configurations (MaxContexts must be 0).
func onlineWorkload(rng *rand.Rand) (*trace.Trace, *placement.Placement, Config) {
	tr, pl, cfg := randWorkload(rng)
	cfg.MaxContexts = 0
	return tr, pl, cfg
}

// TestOnlineDisabledIsStatic: zero options delegate to the exact static
// path — bit-identical Results on both engines, no Online block.
func TestOnlineDisabledIsStatic(t *testing.T) {
	prop := func(seed int64) bool {
		tr, pl, cfg := randWorkload(rand.New(rand.NewSource(seed)))
		for _, eng := range []Engine{ReferenceEngine, FastEngine} {
			static, err := RunGuarded(tr, pl, cfg, eng, nil, Guard{})
			if err != nil {
				t.Logf("seed %d %v: static: %v", seed, eng, err)
				return false
			}
			online, err := RunOnlineGuarded(tr, pl, cfg, eng, OnlineOptions{}, nil, Guard{})
			if err != nil {
				t.Logf("seed %d %v: online-off: %v", seed, eng, err)
				return false
			}
			if online.Online != nil {
				t.Logf("seed %d %v: disabled online run has Online stats", seed, eng)
				return false
			}
			if !reflect.DeepEqual(static, online) {
				t.Logf("seed %d %v: online-off diverges from static", seed, eng)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestOnlineKeepPolicyIsStatic: with boundaries firing but no
// migrations, the run's timing and statistics must equal the static
// run's exactly — boundary processing itself must be invisible.
func TestOnlineKeepPolicyIsStatic(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, pl, cfg := onlineWorkload(rng)
		opts := OnlineOptions{
			Interval: uint64(1 + rng.Intn(500)),
			Penalty:  uint64(rng.Intn(100)),
			Policy:   keepPolicy{},
		}
		for _, eng := range []Engine{ReferenceEngine, FastEngine} {
			static, err := RunGuarded(tr, pl, cfg, eng, nil, Guard{})
			if err != nil {
				t.Logf("seed %d %v: static: %v", seed, eng, err)
				return false
			}
			online, err := RunOnlineGuarded(tr, pl, cfg, eng, opts, nil, Guard{})
			if err != nil {
				t.Logf("seed %d %v: online: %v", seed, eng, err)
				return false
			}
			if online.Online == nil || online.Online.Migrations != 0 {
				t.Logf("seed %d %v: keep policy migrated", seed, eng)
				return false
			}
			onl := *online
			onl.Online = nil
			if !reflect.DeepEqual(static, &onl) {
				t.Logf("seed %d %v: keep-policy online run perturbed the simulation", seed, eng)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestOnlineEnginesAgree is the online differential property: for
// random workloads, intervals, penalties and migration-heavy policies,
// the fast engine's Result (including the Online block) is bit-identical
// to the reference engine's, and deterministic across runs.
func TestOnlineEnginesAgree(t *testing.T) {
	policies := []OnlinePolicy{rotatePolicy{}, pairPolicy{}}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, pl, cfg := onlineWorkload(rng)
		opts := OnlineOptions{
			Interval: uint64(1 + rng.Intn(400)),
			Penalty:  uint64(rng.Intn(200)),
			Policy:   policies[rng.Intn(len(policies))],
		}
		ref, err := RunOnlineGuarded(tr, pl, cfg, ReferenceEngine, opts, nil, Guard{})
		if err != nil {
			t.Logf("seed %d: reference: %v", seed, err)
			return false
		}
		fast, err := RunOnlineGuarded(tr, pl, cfg, FastEngine, opts, nil, Guard{})
		if err != nil {
			t.Logf("seed %d: fast: %v", seed, err)
			return false
		}
		if !reflect.DeepEqual(ref, fast) {
			t.Logf("seed %d: online engines diverge: ref exec %d (%d moves) vs fast exec %d (%d moves)",
				seed, ref.ExecTime, ref.Online.Migrations, fast.ExecTime, fast.Online.Migrations)
			return false
		}
		again, err := RunOnlineGuarded(tr, pl, cfg, FastEngine, opts, nil, Guard{})
		if err != nil || !reflect.DeepEqual(fast, again) {
			t.Logf("seed %d: online fast engine not deterministic", seed)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// onlineTestWorkload builds a small deterministic two-proc workload with
// real cross-thread sharing, long enough to cross several boundaries.
func onlineTestWorkload(t *testing.T) (*trace.Trace, *placement.Placement, Config) {
	t.Helper()
	tr := trace.New("online", 4)
	for i := 0; i < 4; i++ {
		r := trace.NewRecorder(tr, i)
		for j := 0; j < 300; j++ {
			r.Compute(2)
			r.Store(trace.SharedBase + uint64(j%16)*trace.WordSize)
			r.Load(uint64(i*4096+j%32) * trace.WordSize)
		}
	}
	pl := &placement.Placement{Algorithm: "SEED", Clusters: [][]int{{0, 1}, {2, 3}}}
	return tr, pl, DefaultConfig(2)
}

// TestOnlineMigrationAccounting: moves, counters and probe events agree.
func TestOnlineMigrationAccounting(t *testing.T) {
	tr, pl, cfg := onlineTestWorkload(t)
	opts := OnlineOptions{Interval: 500, Penalty: 64, Policy: rotatePolicy{}}
	counter := &obs.Counter{}
	res, err := RunOnlineGuarded(tr, pl, cfg, FastEngine, opts, counter, Guard{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Online
	if st == nil {
		t.Fatal("online run returned no Online stats")
	}
	if st.Policy != "ROTATE" || st.Interval != opts.Interval || st.Penalty != opts.Penalty {
		t.Fatalf("stats echo wrong options: %+v", st)
	}
	if st.Epochs == 0 || st.Migrations == 0 {
		t.Fatalf("rotate policy should migrate across boundaries: %+v", st)
	}
	if len(st.Moves) != st.Migrations {
		t.Fatalf("moves list %d != migrations %d", len(st.Moves), st.Migrations)
	}
	if st.PenaltyCycles != uint64(st.Migrations)*opts.Penalty {
		t.Fatalf("penalty cycles %d != %d moves x %d", st.PenaltyCycles, st.Migrations, opts.Penalty)
	}
	if counter.Migrations != uint64(st.Migrations) {
		t.Fatalf("probe saw %d migrations, stats say %d", counter.Migrations, st.Migrations)
	}
	for _, mv := range st.Moves {
		if mv.From == mv.To || mv.From < 0 || mv.To >= cfg.Processors || mv.Thread < 0 || mv.Thread >= 4 {
			t.Fatalf("implausible move %+v", mv)
		}
		if mv.Cycle%opts.Interval != 0 {
			t.Fatalf("move off-boundary: %+v", mv)
		}
	}
	// A static run must not carry online stats.
	static, err := Run(tr, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if static.Online != nil {
		t.Fatal("static Result has Online stats")
	}
	if static.ExecTime == res.ExecTime {
		t.Log("note: online exec time equals static (allowed, just unusual under rotate)")
	}
}

// TestOnlineRejectsMaxContexts: loaded-context admission and migration
// cannot compose; the entry point refuses rather than silently skewing.
func TestOnlineRejectsMaxContexts(t *testing.T) {
	tr, pl, cfg := onlineTestWorkload(t)
	cfg.MaxContexts = 1
	opts := OnlineOptions{Interval: 100, Penalty: 1, Policy: keepPolicy{}}
	if _, err := RunOnlineGuarded(tr, pl, cfg, FastEngine, opts, nil, Guard{}); err == nil {
		t.Fatal("online run with MaxContexts > 0 should be refused")
	}
}
