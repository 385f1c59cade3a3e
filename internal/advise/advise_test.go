package advise

import (
	"reflect"
	"testing"

	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ---- virtual algorithm name grammar ----

func TestParseOnlineAlgorithmRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		want OnlineSpec
	}{
		{"ONLINE/COHERENCE@i=200000,c=5000", OnlineSpec{Policy: "COHERENCE", Interval: 200000, Penalty: 5000}},
		{"ONLINE/HYST@i=100,c=0", OnlineSpec{Policy: "HYST", Interval: 100}},
		{"ONLINE/HYST@i=100,c=2000,seed=SHARE-REFS", OnlineSpec{Policy: "HYST", Interval: 100, Penalty: 2000, Seed: "SHARE-REFS"}},
		{"ONLINE/COHERENCE@c=1,i=2", OnlineSpec{Policy: "COHERENCE", Interval: 2, Penalty: 1}},
	}
	for _, tc := range cases {
		spec, ok, err := ParseOnlineAlgorithm(tc.name)
		if err != nil || !ok {
			t.Fatalf("%s: ok=%v err=%v", tc.name, ok, err)
		}
		if spec != tc.want {
			t.Fatalf("%s: parsed %+v, want %+v", tc.name, spec, tc.want)
		}
		// parse -> String -> parse is a fixed point.
		again, ok, err := ParseOnlineAlgorithm(spec.String())
		if err != nil || !ok || again != spec {
			t.Fatalf("%s: canonical %q reparse: %+v ok=%v err=%v", tc.name, spec.String(), again, ok, err)
		}
	}
}

func TestOnlineSpecStringOmitsDefaultSeed(t *testing.T) {
	s := OnlineSpec{Policy: "COHERENCE", Interval: 5, Penalty: 7, Seed: DefaultSeed}
	if got := s.String(); got != "ONLINE/COHERENCE@i=5,c=7" {
		t.Fatalf("default seed leaked into name: %q", got)
	}
	s.Seed = "SHARE-REFS"
	if got := s.String(); got != "ONLINE/COHERENCE@i=5,c=7,seed=SHARE-REFS" {
		t.Fatalf("explicit seed missing from name: %q", got)
	}
	if s.SeedAlgorithm() != "SHARE-REFS" {
		t.Fatalf("SeedAlgorithm: %q", s.SeedAlgorithm())
	}
	if (OnlineSpec{}).SeedAlgorithm() != DefaultSeed {
		t.Fatal("empty seed should resolve to the default")
	}
}

func TestParseOnlineAlgorithmNotOnline(t *testing.T) {
	for _, name := range []string{"LOAD-BAL", "", "COHERENCE", "online/COHERENCE@i=1,c=1"} {
		if _, ok, err := ParseOnlineAlgorithm(name); ok || err != nil {
			t.Fatalf("%q: ok=%v err=%v, want ok=false err=nil", name, ok, err)
		}
	}
	if IsOnlineAlgorithm("LOAD-BAL") || !IsOnlineAlgorithm("ONLINE/x") {
		t.Fatal("IsOnlineAlgorithm prefix check broken")
	}
}

func TestParseOnlineAlgorithmMalformed(t *testing.T) {
	bad := []string{
		"ONLINE/",                           // no policy, no params
		"ONLINE/COHERENCE",                  // no @ section
		"ONLINE/@i=1,c=1",                   // empty policy
		"ONLINE/COHERENCE@i=1,c=1,i=2",      // duplicate key
		"ONLINE/COHERENCE@i=1,c=1,x=3",      // unknown key
		"ONLINE/COHERENCE@i=1,c=",           // empty value
		"ONLINE/COHERENCE@i=1,c",            // no =
		"ONLINE/COHERENCE@i=nope,c=1",       // non-numeric
		"ONLINE/COHERENCE@i=-5,c=1",         // negative
		"ONLINE/COHERENCE@i=0,c=1",          // zero interval
		"ONLINE/NOSUCH@i=1,c=1",             // unknown policy
		"ONLINE/COHERENCE@i=1,c=1,seed=BAD", // unknown seed algorithm
	}
	for _, name := range bad {
		if _, ok, err := ParseOnlineAlgorithm(name); err == nil || ok {
			t.Errorf("%q: accepted malformed name (ok=%v)", name, ok)
		}
	}
}

func TestPolicyRegistry(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("policy %q reports name %q", name, p.Name())
		}
	}
	if _, err := PolicyByName("NOSUCH"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	opts, err := OnlineSpec{Policy: "HYST", Interval: 9, Penalty: 3}.Options()
	if err != nil || opts.Interval != 9 || opts.Penalty != 3 || opts.Policy.Name() != "HYST" {
		t.Fatalf("Options: %+v err=%v", opts, err)
	}
}

// ---- policy decisions on synthetic checkpoints ----

// syntheticCheckpoint: 4 threads on 2 procs placed {0,1},{2,3} while the
// traffic says the hot pairs are (0,2) and (1,3) — the worst case for the
// seed placement, fully fixable by re-clustering.
func syntheticCheckpoint() (*sim.OnlineCheckpoint, sim.OnlineEnv) {
	pair := [][]uint64{
		{0, 0, 1000, 0},
		{0, 0, 0, 1000},
		{1000, 0, 0, 0},
		{0, 1000, 0, 0},
	}
	ck := &sim.OnlineCheckpoint{
		Epoch:     1,
		Cycle:     1000,
		Assign:    []int{0, 0, 1, 1},
		Pair:      pair,
		EpochPair: pair,
	}
	env := sim.OnlineEnv{Procs: 2, MemLatency: 30, Penalty: 100, Lengths: []uint64{100, 100, 100, 100}}
	return ck, env
}

func TestCoherenceDecide(t *testing.T) {
	ck, env := syntheticCheckpoint()
	want := Coherence{}.Decide(ck, env)
	if want == nil {
		t.Fatal("coherence policy ignored a hot traffic matrix")
	}
	if want[0] != want[2] || want[1] != want[3] || want[0] == want[1] {
		t.Fatalf("hot pairs not co-located: %v", want)
	}
	// No traffic at all: keep the current placement.
	ck.Pair = make([][]uint64, 4)
	for i := range ck.Pair {
		ck.Pair[i] = make([]uint64, 4)
	}
	if got := (Coherence{}).Decide(ck, env); got != nil {
		t.Fatalf("decision without any measured traffic: %v", got)
	}
}

// fixedPolicy always proposes the same assignment.
type fixedPolicy struct{ want []int }

func (fixedPolicy) Name() string                                        { return "FIXED" }
func (p fixedPolicy) Decide(*sim.OnlineCheckpoint, sim.OnlineEnv) []int { return p.want }

func TestHysteresisDecide(t *testing.T) {
	ck, env := syntheticCheckpoint()
	fix := fixedPolicy{want: []int{0, 1, 0, 1}} // co-locate the hot pairs: 2 moves

	// Savings: cur cross = 4000 (all traffic), prop cross = 0.
	// 4000 * MemLatency(30) >> 2 moves * Penalty(100): migrate.
	if got := (Hysteresis{Inner: fix}).Decide(ck, env); !reflect.DeepEqual(got, fix.want) {
		t.Fatalf("profitable migration suppressed: %v", got)
	}

	// Make the epoch window show almost no traffic: predicted savings
	// no longer cover the bill, so hysteresis holds position.
	ck.EpochPair = [][]uint64{
		{0, 0, 1, 0},
		{0, 0, 0, 1},
		{1, 0, 0, 0},
		{0, 1, 0, 0},
	}
	env.MemLatency = 30
	env.Penalty = 1000
	if got := (Hysteresis{Inner: fix}).Decide(ck, env); got != nil {
		t.Fatalf("unprofitable migration allowed: %v", got)
	}

	// Proposal identical to current placement: no moves, no decision.
	if got := (Hysteresis{Inner: fixedPolicy{want: []int{0, 0, 1, 1}}}).Decide(ck, env); got != nil {
		t.Fatalf("no-op proposal should be suppressed: %v", got)
	}

	// Inner declines: hysteresis declines.
	if got := (Hysteresis{Inner: fixedPolicy{}}).Decide(ck, env); got != nil {
		t.Fatalf("nil inner decision should pass through: %v", got)
	}
}

// ---- assignment helpers ----

func TestAssignOfAndCrossTraffic(t *testing.T) {
	pl := &placement.Placement{Algorithm: "X", Clusters: [][]int{{0, 2}, {1}}}
	assign := AssignOf(pl, 4)
	if want := []int{0, 1, 0, -1}; !reflect.DeepEqual(assign, want) {
		t.Fatalf("AssignOf: %v, want %v", assign, want)
	}
	pair := [][]uint64{
		{0, 5, 7, 100},
		{5, 0, 0, 100},
		{7, 0, 0, 100},
		{100, 100, 100, 0},
	}
	// Cross pairs: (0,1) and (1,2)... thread 3 is unplaced and must not
	// contribute. (0,1)=5+5, (1,2)=0+0; (0,2) co-located.
	if got := CrossTraffic(pair, assign); got != 10 {
		t.Fatalf("CrossTraffic: %d, want 10", got)
	}
	if got := CrossTraffic(pair, []int{0, 0, 0, 0}); got != 0 {
		t.Fatalf("co-located CrossTraffic: %d, want 0", got)
	}
}

// ---- Recommend and measurement ----

func TestRecommend(t *testing.T) {
	ck, _ := syntheticCheckpoint()
	lengths := []uint64{100, 100, 100, 100}
	current := &placement.Placement{Algorithm: "SEED", Clusters: [][]int{{0, 1}, {2, 3}}}
	rec, err := Recommend(ck.Pair, lengths, 2, current, 30)
	if err != nil {
		t.Fatal(err)
	}
	assign := AssignOf(rec.Placement, 4)
	if assign[0] != assign[2] || assign[1] != assign[3] {
		t.Fatalf("recommendation does not co-locate hot pairs: %v", assign)
	}
	if rec.ProposedCross != 0 || rec.CurrentCross != 4000 {
		t.Fatalf("cross accounting: cur=%d prop=%d", rec.CurrentCross, rec.ProposedCross)
	}
	if rec.PredictedSavings != 4000*30 {
		t.Fatalf("savings: %d", rec.PredictedSavings)
	}

	// Without a current placement there is nothing to predict against.
	rec, err = Recommend(ck.Pair, lengths, 2, nil, 30)
	if err != nil {
		t.Fatal(err)
	}
	if rec.CurrentCross != 0 || rec.PredictedSavings != 0 {
		t.Fatalf("savings without a baseline: %+v", rec)
	}
}

func TestRecommendRejects(t *testing.T) {
	lengths := []uint64{1, 1}
	square := [][]uint64{{0, 1}, {1, 0}}
	if _, err := Recommend(square, nil, 2, nil, 1); err == nil {
		t.Fatal("no threads accepted")
	}
	if _, err := Recommend([][]uint64{{0}}, lengths, 2, nil, 1); err == nil {
		t.Fatal("matrix/lengths size mismatch accepted")
	}
	if _, err := Recommend([][]uint64{{0, 1}, {1}}, lengths, 2, nil, 1); err == nil {
		t.Fatal("ragged matrix accepted")
	}
	bad := &placement.Placement{Algorithm: "X", Clusters: [][]int{{0, 0}, {1}}}
	if _, err := Recommend(square, lengths, 2, bad, 1); err == nil {
		t.Fatal("invalid current placement accepted")
	}
}

// pairedTrace builds a 4-thread trace where threads 0 and 2 ping-pong
// one shared line, threads 1 and 3 another — disjoint hot pairs.
func pairedTrace() *trace.Trace {
	tr := trace.New("paired", 4)
	for i := 0; i < 4; i++ {
		r := trace.NewRecorder(tr, i)
		line := trace.SharedBase + uint64(i%2)*64*trace.WordSize
		for j := 0; j < 200; j++ {
			r.Compute(2)
			r.Store(line)
		}
	}
	return tr
}

func TestMeasurePairTrafficAndLengths(t *testing.T) {
	tr := pairedTrace()
	pair, res, err := MeasurePairTraffic(tr, sim.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(pair) != 4 {
		t.Fatalf("measurement shape: %v", pair)
	}
	for a := range pair {
		for b := range pair[a] {
			if pair[a][b] != pair[b][a] {
				t.Fatalf("matrix not symmetric at (%d,%d)", a, b)
			}
		}
	}
	if pair[0][2] == 0 || pair[1][3] == 0 {
		t.Fatalf("hot pairs not measured: %v", pair)
	}
	if pair[0][1] >= pair[0][2] || pair[0][3] >= pair[0][2] {
		t.Fatalf("cold pair outweighs hot pair: %v", pair)
	}
	lengths := Lengths(tr)
	if len(lengths) != 4 || lengths[0] == 0 || lengths[0] != lengths[3] {
		t.Fatalf("lengths: %v", lengths)
	}
	// Measurement must refuse an empty trace.
	if _, _, err := MeasurePairTraffic(trace.New("empty", 0), sim.DefaultConfig(1)); err == nil {
		t.Fatal("empty trace accepted")
	}
}

// ---- end to end: real policies driving the online engines ----

// TestOnlinePoliciesEnginesAgree runs the shipped policies through both
// engines on a workload whose seed placement splits the hot pairs, and
// requires bit-identical results — the cross-engine differential for the
// advise layer itself.
func TestOnlinePoliciesEnginesAgree(t *testing.T) {
	tr := pairedTrace()
	seed := &placement.Placement{Algorithm: "SEED", Clusters: [][]int{{0, 1}, {2, 3}}}
	cfg := sim.DefaultConfig(2)
	for _, policy := range []sim.OnlinePolicy{Coherence{}, Hysteresis{}} {
		opts := sim.OnlineOptions{Interval: 400, Penalty: 32, Policy: policy}
		ref, err := sim.RunOnlineGuarded(tr, seed, cfg, sim.ReferenceEngine, opts, nil, sim.Guard{})
		if err != nil {
			t.Fatalf("%s: reference: %v", policy.Name(), err)
		}
		fast, err := sim.RunOnlineGuarded(tr, seed, cfg, sim.FastEngine, opts, nil, sim.Guard{})
		if err != nil {
			t.Fatalf("%s: fast: %v", policy.Name(), err)
		}
		if !reflect.DeepEqual(ref, fast) {
			t.Fatalf("%s: engines diverge: ref exec %d (%d moves) vs fast exec %d (%d moves)",
				policy.Name(), ref.ExecTime, ref.Online.Migrations, fast.ExecTime, fast.Online.Migrations)
		}
		if ref.Online == nil || ref.Online.Policy != policy.Name() {
			t.Fatalf("%s: missing or mislabeled online stats", policy.Name())
		}
		if ref.Online.Migrations == 0 {
			t.Fatalf("%s: pathological seed placement triggered no migration", policy.Name())
		}
	}
}
