package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/placement"
	"repro/internal/trace"
)

// mkTrace builds a trace from per-thread event lists.
func mkTrace(threads ...[]trace.Event) *trace.Trace {
	tr := trace.New("test", len(threads))
	for i, evs := range threads {
		r := trace.NewRecorder(tr, i)
		for _, e := range evs {
			r.Compute(int(e.Gap))
			r.Ref(e.Kind, e.Addr)
		}
	}
	return tr
}

// mkPlacement builds an explicit placement.
func mkPlacement(clusters ...[]int) *placement.Placement {
	return &placement.Placement{Algorithm: "TEST", Clusters: clusters}
}

func sh(i int) uint64 { return trace.SharedBase + uint64(i)*trace.WordSize }

// shBlock returns an address i whole cache lines into the shared segment,
// so consecutive i never collide within a line.
func shBlock(i int) uint64 { return trace.SharedBase + uint64(i)*DefaultLineSize }

func TestSingleRefTiming(t *testing.T) {
	// One thread, one reference, gap 0: miss at 0, memory until 50,
	// retried hit completes at 51.
	tr := mkTrace([]trace.Event{{Kind: trace.Read, Addr: sh(0)}})
	res, err := Run(tr, mkPlacement([]int{0}), DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime != 50 {
		t.Errorf("exec time = %d, want 50", res.ExecTime)
	}
	p := res.Procs[0]
	if p.Busy != 1 || p.Switch != 6 || p.Idle != 0 {
		t.Errorf("busy/switch/idle = %d/%d/%d, want 1/6/0", p.Busy, p.Switch, p.Idle)
	}
	if p.Misses[Compulsory] != 1 || p.Hits != 0 || p.Refs != 1 {
		t.Errorf("miss/hit/refs = %d/%d/%d, want 1/0/1", p.Misses[Compulsory], p.Hits, p.Refs)
	}
	if p.SharedRefs != 1 {
		t.Errorf("shared refs = %d, want 1", p.SharedRefs)
	}
}

func TestHitAfterMissTiming(t *testing.T) {
	// First reference misses (completes at 50); the processor idles
	// until the context resumes, then the second reference hits: 50+1.
	tr := mkTrace([]trace.Event{
		{Kind: trace.Read, Addr: sh(0)},
		{Kind: trace.Read, Addr: sh(0)},
	})
	res, err := Run(tr, mkPlacement([]int{0}), DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime != 51 {
		t.Errorf("exec time = %d, want 51", res.ExecTime)
	}
	p := res.Procs[0]
	if p.TotalMisses() != 1 || p.Hits != 1 {
		t.Errorf("misses/hits = %d/%d, want 1/1", p.TotalMisses(), p.Hits)
	}
	if p.Idle != 44 {
		t.Errorf("idle = %d, want 44 (stall between switch and resume)", p.Idle)
	}
}

func TestGapExecution(t *testing.T) {
	// gap 10 before a missing ref: miss at 10, completes at 60.
	tr := mkTrace([]trace.Event{{Gap: 10, Kind: trace.Read, Addr: sh(0)}})
	res, err := Run(tr, mkPlacement([]int{0}), DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime != 60 {
		t.Errorf("exec time = %d, want 60", res.ExecTime)
	}
	if res.Procs[0].Busy != 11 {
		t.Errorf("busy = %d, want 11", res.Procs[0].Busy)
	}
}

func TestMultithreadingHidesLatency(t *testing.T) {
	// Two threads with disjoint missing references on one processor:
	// the second context runs during the first's memory stall.
	evs := func(base int) []trace.Event {
		var out []trace.Event
		for i := 0; i < 10; i++ {
			out = append(out, trace.Event{Kind: trace.Read, Addr: shBlock(base + i)})
		}
		return out
	}
	serialA, err := Run(mkTrace(evs(0)), mkPlacement([]int{0}), DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	both, err := Run(mkTrace(evs(0), evs(100)), mkPlacement([]int{0, 1}), DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	// Interleaved execution must be far below twice the serial time.
	if both.ExecTime >= 2*serialA.ExecTime {
		t.Errorf("multithreaded exec %d not faster than serial %d x2", both.ExecTime, serialA.ExecTime)
	}
	// And idle time must drop.
	if both.Procs[0].Idle >= serialA.Procs[0].Idle*2 {
		t.Errorf("idle %d did not drop vs serial %d x2", both.Procs[0].Idle, serialA.Procs[0].Idle)
	}
}

func TestCoherenceInvalidation(t *testing.T) {
	// P0 writes X; P1 reads X (fetches dirty data, P0 downgrades);
	// P0 upgrades (invalidates P1); P1 re-reads: invalidation miss.
	x := shBlock(0)
	tr := mkTrace(
		[]trace.Event{
			{Kind: trace.Write, Addr: x},           // t=0: compulsory miss, M
			{Gap: 200, Kind: trace.Write, Addr: x}, // t~251: upgrade w/ invalidation
		},
		[]trace.Event{
			{Gap: 100, Kind: trace.Read, Addr: x}, // t=100: compulsory miss, fetch from P0
			{Gap: 300, Kind: trace.Read, Addr: x}, // t~451: invalidation miss
		},
	)
	res, err := RunChecked(tr, mkPlacement([]int{0}, []int{1}), DefaultConfig(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	p0, p1 := res.Procs[0], res.Procs[1]
	if p0.Misses[Compulsory] != 1 {
		t.Errorf("p0 compulsory = %d, want 1", p0.Misses[Compulsory])
	}
	if p0.Upgrades != 1 {
		t.Errorf("p0 upgrades = %d, want 1", p0.Upgrades)
	}
	if p0.InvalidationsSent != 1 {
		t.Errorf("p0 invalidations sent = %d, want 1", p0.InvalidationsSent)
	}
	if p0.Writebacks != 2 {
		t.Errorf("p0 writebacks = %d, want 2 (downgrade + dirty fetch at the invalidation miss)", p0.Writebacks)
	}
	if p1.Misses[Compulsory] != 1 || p1.Misses[InvalidationMiss] != 1 {
		t.Errorf("p1 misses = %+v", p1.Misses)
	}
	if p1.InvalidationsReceived != 1 {
		t.Errorf("p1 invalidations received = %d, want 1", p1.InvalidationsReceived)
	}
	// Pair traffic: P1's two dirty fetches from P0 -> pair[1][0] = 2;
	// P0's invalidation of P1 plus P1's invalidation miss -> pair[0][1] = 2.
	if res.PairTraffic[1][0] != 2 {
		t.Errorf("pair[1][0] = %d, want 2", res.PairTraffic[1][0])
	}
	if res.PairTraffic[0][1] != 2 {
		t.Errorf("pair[0][1] = %d, want 2", res.PairTraffic[0][1])
	}
	if res.CoherenceTraffic() != 2+1+1 { // 2 compulsory + 1 inv miss + 1 inv
		t.Errorf("coherence traffic = %d, want 4", res.CoherenceTraffic())
	}
}

func TestSilentUpgradeIsFree(t *testing.T) {
	// Read then write the same block with no other sharers: the write is
	// a silent upgrade, not a transaction.
	x := shBlock(0)
	tr := mkTrace([]trace.Event{
		{Kind: trace.Read, Addr: x},
		{Kind: trace.Write, Addr: x},
	})
	res, err := RunChecked(tr, mkPlacement([]int{0}), DefaultConfig(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Procs[0]
	if p.Upgrades != 0 {
		t.Errorf("upgrades = %d, want 0 (silent)", p.Upgrades)
	}
	if res.ExecTime != 51 { // read miss completes at 50, upgrade-hit at 51
		t.Errorf("exec time = %d, want 51", res.ExecTime)
	}
}

func TestWriteMissInvalidatesAllSharers(t *testing.T) {
	x := shBlock(0)
	// P0, P1 read X; P2 writes X later.
	tr := mkTrace(
		[]trace.Event{{Kind: trace.Read, Addr: x}, {Gap: 500, Kind: trace.Read, Addr: sh(100 * DefaultLineSize / trace.WordSize)}},
		[]trace.Event{{Gap: 100, Kind: trace.Read, Addr: x}, {Gap: 500, Kind: trace.Read, Addr: sh(101 * DefaultLineSize / trace.WordSize)}},
		[]trace.Event{{Gap: 200, Kind: trace.Write, Addr: x}},
	)
	res, err := RunChecked(tr, mkPlacement([]int{0}, []int{1}, []int{2}), DefaultConfig(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Procs[2].InvalidationsSent; got != 2 {
		t.Errorf("invalidations sent by writer = %d, want 2", got)
	}
	if res.Procs[0].InvalidationsReceived != 1 || res.Procs[1].InvalidationsReceived != 1 {
		t.Error("sharers did not each receive one invalidation")
	}
}

func TestIntraVsInterThreadConflicts(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.CacheSize = 64 // 2 lines; blocks 0 and 2 collide in set 0
	a := trace.SharedBase
	b := trace.SharedBase + 2*DefaultLineSize

	// Intra: one thread ping-pongs two colliding blocks.
	tr := mkTrace([]trace.Event{
		{Kind: trace.Read, Addr: a},
		{Kind: trace.Read, Addr: b},
		{Kind: trace.Read, Addr: a},
		{Kind: trace.Read, Addr: b},
	})
	res, err := Run(tr, mkPlacement([]int{0}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Procs[0]
	if p.Misses[Compulsory] != 2 || p.Misses[ConflictIntra] != 2 || p.Misses[ConflictInter] != 0 {
		t.Errorf("intra case misses = %+v", p.Misses)
	}

	// Inter: two co-located threads ping-pong the same set.
	tr = mkTrace(
		[]trace.Event{{Kind: trace.Read, Addr: a}, {Gap: 120, Kind: trace.Read, Addr: a}},
		[]trace.Event{{Gap: 60, Kind: trace.Read, Addr: b}, {Gap: 120, Kind: trace.Read, Addr: b}},
	)
	res, err = Run(tr, mkPlacement([]int{0, 1}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p = res.Procs[0]
	if p.Misses[ConflictInter] == 0 {
		t.Errorf("inter case misses = %+v, want inter-thread conflicts", p.Misses)
	}
}

func TestInfiniteCacheEliminatesConflicts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := trace.New("rnd", 4)
	for i := 0; i < 4; i++ {
		r := trace.NewRecorder(tr, i)
		for j := 0; j < 2000; j++ {
			r.Compute(rng.Intn(5))
			addr := sh(rng.Intn(5000))
			if rng.Intn(4) == 0 {
				r.Store(addr)
			} else {
				r.Load(addr)
			}
		}
	}
	cfg := DefaultConfig(2)
	cfg.InfiniteCache = true
	res, err := RunChecked(tr, mkPlacement([]int{0, 1}, []int{2, 3}), cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Totals()
	if tot.Misses[ConflictIntra] != 0 || tot.Misses[ConflictInter] != 0 {
		t.Errorf("infinite cache produced conflict misses: %+v", tot.Misses)
	}
	if tot.Misses[Compulsory] == 0 {
		t.Error("no compulsory misses at all")
	}
	if tot.Misses[InvalidationMiss] == 0 {
		t.Error("random read/write sharing produced no invalidation misses")
	}
}

// TestConservationInvariants: every reference completes exactly one hit,
// and total busy time equals total trace instructions.
func TestConservationInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 4; trial++ {
		n := 4 + rng.Intn(5)
		tr := trace.New("rnd", n)
		for i := 0; i < n; i++ {
			r := trace.NewRecorder(tr, i)
			refs := 500 + rng.Intn(1500)
			for j := 0; j < refs; j++ {
				r.Compute(rng.Intn(8))
				addr := sh(rng.Intn(3000))
				if rng.Intn(5) == 0 {
					addr = uint64(i*100000+rng.Intn(200)) * trace.WordSize
				}
				if rng.Intn(3) == 0 {
					r.Store(addr)
				} else {
					r.Load(addr)
				}
			}
		}
		procs := 2 + rng.Intn(2)
		var clusters [][]int
		for q := 0; q < procs; q++ {
			clusters = append(clusters, nil)
		}
		for i := 0; i < n; i++ {
			clusters[i%procs] = append(clusters[i%procs], i)
		}
		cfg := DefaultConfig(procs)
		cfg.CacheSize = 4 << 10 // small cache to force conflicts
		res, err := RunChecked(tr, mkPlacement(clusters...), cfg, 500)
		if err != nil {
			t.Fatal(err)
		}
		tot := res.Totals()
		if tot.Refs != tr.TotalRefs() {
			t.Errorf("trial %d: refs = %d, want %d", trial, tot.Refs, tr.TotalRefs())
		}
		if got := tot.Hits + tot.TotalMisses() + tot.Upgrades; got != tr.TotalRefs() {
			t.Errorf("trial %d: hits+misses+upgrades = %d, want %d", trial, got, tr.TotalRefs())
		}
		if tot.Busy != tr.TotalInstructions() {
			t.Errorf("trial %d: busy = %d, want %d", trial, tot.Busy, tr.TotalInstructions())
		}
		// Invalidations received == invalidations sent.
		if tot.InvalidationsSent != tot.InvalidationsReceived {
			t.Errorf("trial %d: inv sent %d != received %d", trial, tot.InvalidationsSent, tot.InvalidationsReceived)
		}
		// Every thread finished.
		for tid, f := range res.ThreadFinish {
			if f == 0 {
				t.Errorf("trial %d: thread %d never finished", trial, tid)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := trace.New("rnd", 6)
	for i := 0; i < 6; i++ {
		r := trace.NewRecorder(tr, i)
		for j := 0; j < 3000; j++ {
			r.Compute(rng.Intn(4))
			if rng.Intn(3) == 0 {
				r.Store(sh(rng.Intn(2000)))
			} else {
				r.Load(sh(rng.Intn(2000)))
			}
		}
	}
	pl := mkPlacement([]int{0, 1}, []int{2, 3}, []int{4, 5})
	cfg := DefaultConfig(3)
	a, err := Run(tr, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tr, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("simulation not deterministic")
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	tr := mkTrace([]trace.Event{{Kind: trace.Read, Addr: sh(0)}})
	if _, err := Run(tr, mkPlacement([]int{0}, []int{0}), DefaultConfig(2)); err == nil {
		t.Error("double-placed thread accepted")
	}
	if _, err := Run(tr, mkPlacement([]int{0}), Config{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := Run(tr, mkPlacement([]int{0}), DefaultConfig(2)); err == nil {
		t.Error("placement/config processor mismatch accepted")
	}
}

func TestThreadFinishOrdering(t *testing.T) {
	// Thread 1 is much longer than thread 0; both on one processor.
	short := []trace.Event{{Kind: trace.Read, Addr: sh(0)}}
	var long []trace.Event
	for i := 0; i < 50; i++ {
		long = append(long, trace.Event{Gap: 20, Kind: trace.Read, Addr: shBlock(i + 10)})
	}
	tr := mkTrace(short, long)
	res, err := Run(tr, mkPlacement([]int{0, 1}), DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.ThreadFinish[0] >= res.ThreadFinish[1] {
		t.Errorf("short thread finished at %d, long at %d", res.ThreadFinish[0], res.ThreadFinish[1])
	}
	if res.ExecTime != res.Procs[0].Finish {
		t.Errorf("exec time %d != proc finish %d", res.ExecTime, res.Procs[0].Finish)
	}
}

func TestPairTrafficSymmetry(t *testing.T) {
	r := &Result{PairTraffic: [][]uint64{{0, 3}, {1, 0}}}
	m := r.PairTrafficSym()
	if m[0][1] != 4 || m[1][0] != 4 {
		t.Errorf("sym = %v", m)
	}
}

func TestMissFractionsAndTotals(t *testing.T) {
	tr := mkTrace([]trace.Event{
		{Kind: trace.Read, Addr: sh(0)},
		{Kind: trace.Read, Addr: sh(0)},
		{Kind: trace.Read, Addr: shBlock(5)},
	})
	res, err := Run(tr, mkPlacement([]int{0}), DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	f := res.MissFractions()
	if f[Compulsory] < 0.66 || f[Compulsory] > 0.67 {
		t.Errorf("compulsory fraction = %v, want 2/3", f[Compulsory])
	}
	if f[InvalidationMiss] != 0 {
		t.Errorf("invalidation fraction = %v, want 0", f[InvalidationMiss])
	}
	empty := &Result{Procs: []ProcStats{{}}}
	if got := empty.MissFractions(); got[Compulsory] != 0 {
		t.Error("zero-ref result should give zero fractions")
	}
}

// TestTimeOverflowAborts: a run whose simulated time would leave the
// fast engine's event key aborts with the same error on both engines
// instead of wrapping. On a 2-processor machine the limit is 2^63-2. In
// the memory case the processors write six shared words each in turn,
// so every write is a 2^62-cycle transaction and the second one's
// completion passes the limit; in the finish case that completion ends
// the thread, so no later event carries it. In the hit cases one thread
// rereads a word: at 3·2^60 cycles a hit a scheduled event passes the
// limit first, and at 2^62 the thread's last hit does. Online
// options past the same 2^62 cycle cap are refused up front.
func TestTimeOverflowAborts(t *testing.T) {
	var a, b, reads []trace.Event
	for i := 0; i < 6; i++ {
		a = append(a, trace.Event{Kind: trace.Write, Addr: sh(i)})
		b = append(b, trace.Event{Kind: trace.Write, Addr: sh(i)})
		reads = append(reads, trace.Event{Kind: trace.Read, Addr: sh(0)})
	}
	pl := mkPlacement([]int{0}, []int{1})
	for _, tc := range []struct {
		name string
		tr   *trace.Trace
		set  func(*Config)
	}{
		{"memory", mkTrace(a, b), func(c *Config) { c.MemLatency = 1 << 62 }},
		{"finish", mkTrace(a[:2], b[:2]), func(c *Config) { c.MemLatency = 1 << 62 }},
		{"hits", mkTrace(reads, b[5:]), func(c *Config) { c.HitCycles = 3 << 60 }},
		{"final hit", mkTrace(reads[:3], b[5:]), func(c *Config) { c.HitCycles = 1 << 62 }},
	} {
		cfg := DefaultConfig(2)
		tc.set(&cfg)
		var msgs [2]string
		for i, eng := range []Engine{ReferenceEngine, FastEngine} {
			res, err := RunObserved(tc.tr, pl, cfg, eng, nil)
			if !errors.Is(err, errTimeOverflow) {
				t.Fatalf("%s/%v: got %+v, %v; want a time overflow", tc.name, eng, res, err)
			}
			msgs[i] = err.Error()
		}
		if msgs[0] != msgs[1] {
			t.Errorf("%s: engines disagree:\n  reference %s\n  fast      %s", tc.name, msgs[0], msgs[1])
		}
	}

	tr := mkTrace(a, b)
	for _, opts := range []OnlineOptions{
		{Interval: 1<<62 + 1, Policy: keepPolicy{}},
		{Interval: 100, Penalty: 1<<62 + 1, Policy: keepPolicy{}},
	} {
		if _, err := RunOnline(tr, pl, DefaultConfig(2), opts); err == nil {
			t.Errorf("online interval %d, penalty %d accepted", opts.Interval, opts.Penalty)
		}
	}
}
