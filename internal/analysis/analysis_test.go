package analysis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// buildTrace constructs a trace from a compact description: per thread, a
// list of (kind, addr) pairs each preceded by one compute instruction.
func buildTrace(t *testing.T, app string, threads [][]trace.Event) *trace.Trace {
	t.Helper()
	tr := trace.New(app, len(threads))
	for i, evs := range threads {
		r := trace.NewRecorder(tr, i)
		for _, e := range evs {
			r.Compute(int(e.Gap))
			r.Ref(e.Kind, e.Addr)
		}
	}
	return tr
}

func sh(i int) uint64 { return trace.SharedBase + uint64(i)*trace.WordSize }
func pv(i int) uint64 { return uint64(i+1) * trace.WordSize }

func TestProfileThread(t *testing.T) {
	tr := buildTrace(t, "app", [][]trace.Event{{
		{Gap: 3, Kind: trace.Read, Addr: sh(0)},
		{Gap: 0, Kind: trace.Write, Addr: sh(0)},
		{Gap: 2, Kind: trace.Read, Addr: sh(1)},
		{Gap: 0, Kind: trace.Read, Addr: pv(0)},
		{Gap: 0, Kind: trace.Write, Addr: pv(1)},
	}})
	p := ProfileThread(tr.Threads[0])
	if p.TotalRefs != 5 {
		t.Errorf("TotalRefs = %d, want 5", p.TotalRefs)
	}
	if p.SharedRefs != 3 {
		t.Errorf("SharedRefs = %d, want 3", p.SharedRefs)
	}
	if p.SharedAddrs() != 2 {
		t.Errorf("SharedAddrs = %d, want 2", p.SharedAddrs())
	}
	if p.PrivateAddrs != 2 {
		t.Errorf("PrivateAddrs = %d, want 2", p.PrivateAddrs)
	}
	if got := p.Shared[sh(0)]; got != (RefCount{Reads: 1, Writes: 1}) {
		t.Errorf("counts for sh(0) = %+v", got)
	}
	if got, want := p.RefsPerSharedAddr(), 1.5; got != want {
		t.Errorf("RefsPerSharedAddr = %v, want %v", got, want)
	}
	if p.Length != 5+5 {
		t.Errorf("Length = %d, want 10", p.Length)
	}
}

func TestSharingMatrices(t *testing.T) {
	// Thread 0: reads sh0 twice, writes sh1 once, reads pv.
	// Thread 1: reads sh0 once, reads sh1 three times.
	// Thread 2: touches only private data.
	tr := buildTrace(t, "app", [][]trace.Event{
		{
			{Kind: trace.Read, Addr: sh(0)},
			{Kind: trace.Read, Addr: sh(0)},
			{Kind: trace.Write, Addr: sh(1)},
			{Kind: trace.Read, Addr: pv(0)},
		},
		{
			{Kind: trace.Read, Addr: sh(0)},
			{Kind: trace.Read, Addr: sh(1)},
			{Kind: trace.Read, Addr: sh(1)},
			{Kind: trace.Read, Addr: sh(1)},
		},
		{
			{Kind: trace.Read, Addr: pv(10)},
			{Kind: trace.Write, Addr: pv(11)},
		},
	})
	d := Analyze(tr).Sharing()

	// shared refs 0<->1: sh0 contributes 2+1, sh1 contributes 1+3 = total 7.
	if got := d.SharedRefs[0][1]; got != 7 {
		t.Errorf("SharedRefs[0][1] = %d, want 7", got)
	}
	if d.SharedRefs[0][1] != d.SharedRefs[1][0] {
		t.Error("SharedRefs not symmetric")
	}
	if got := d.SharedAddrs[0][1]; got != 2 {
		t.Errorf("SharedAddrs[0][1] = %d, want 2", got)
	}
	// write-shared: only sh1 (written by thread 0): 1+3 = 4.
	if got := d.WriteSharedRefs[0][1]; got != 4 {
		t.Errorf("WriteSharedRefs[0][1] = %d, want 4", got)
	}
	// thread 2 shares nothing.
	for other := 0; other < 2; other++ {
		if d.SharedRefs[2][other] != 0 || d.SharedAddrs[2][other] != 0 {
			t.Errorf("thread 2 shows sharing with %d", other)
		}
	}
	if d.PrivateAddrs[2] != 2 {
		t.Errorf("PrivateAddrs[2] = %d, want 2", d.PrivateAddrs[2])
	}
	if d.SharedRefs[1][1] != 0 {
		t.Error("diagonal not zero")
	}
}

// TestSharingMatchesPairOracle cross-checks the inverted-index computation
// against the direct pairwise intersection on random traces.
func TestSharingMatchesPairOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		n := 3 + rng.Intn(6)
		tr := trace.New("rand", n)
		for i := 0; i < n; i++ {
			r := trace.NewRecorder(tr, i)
			for j := 0; j < 200; j++ {
				addr := sh(rng.Intn(50))
				if rng.Intn(4) == 0 {
					addr = pv(i*100 + rng.Intn(20))
				}
				if rng.Intn(3) == 0 {
					r.Store(addr)
				} else {
					r.Load(addr)
				}
			}
		}
		s := Analyze(tr)
		d := s.Sharing()
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if got, want := d.SharedRefs[a][b], s.PairSharedRefs(a, b); got != want {
					t.Fatalf("trial %d: SharedRefs[%d][%d] = %d, oracle %d", trial, a, b, got, want)
				}
			}
		}
	}
}

// TestInvertedIndexCanonical locks the inverted index's ordering
// invariant: the list is strictly sorted by address and then thread, so
// every address's users form one run in ascending thread order,
// independent of map iteration order. The list is collected in map order
// and then radix-sorted, a sort mtlint's determinism analyzer cannot see
// (the loop carries an allow directive), so this is the whole check.
func TestInvertedIndexCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(1994))
	n := 6
	tr := trace.New("inv", n)
	for i := 0; i < n; i++ {
		r := trace.NewRecorder(tr, i)
		for j := 0; j < 300; j++ {
			r.Load(sh(rng.Intn(40)))
		}
	}
	s := Analyze(tr)
	idx := s.invertedIndex()
	if len(idx) == 0 {
		t.Fatal("empty inverted index")
	}
	for i := 1; i < len(idx); i++ {
		a, b := idx[i-1], idx[i]
		if a.addr > b.addr || (a.addr == b.addr && a.thread >= b.thread) {
			t.Fatalf("index not in (address, thread) order: (%#x, %d) then (%#x, %d)",
				a.addr, a.thread, b.addr, b.thread)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Mean != 5 {
		t.Errorf("mean = %v, want 5", s.Mean)
	}
	if math.Abs(s.Dev-40) > 1e-9 { // sd = 2, 2/5 = 40%
		t.Errorf("dev = %v, want 40", s.Dev)
	}
	if math.Abs(s.AbsDev()-2) > 1e-9 {
		t.Errorf("absdev = %v, want 2", s.AbsDev())
	}
	if got := Summarize(nil); got != (Summary{}) {
		t.Errorf("empty summary = %+v", got)
	}
	if got := Summarize([]float64{0, 0}); got.Dev != 0 {
		t.Errorf("zero-mean dev = %v, want 0", got.Dev)
	}
}

// Property: Summarize mean always lies within [min, max] and Dev >= 0 for
// positive data.
func TestSummarizeProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r % 10000)
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		s := Summarize(xs)
		return s.Mean >= lo-1e-9 && s.Mean <= hi+1e-9 && s.Dev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCharacteristics(t *testing.T) {
	// Uniform sharing: every thread reads the same 10 shared addresses
	// the same number of times -> pairwise deviation must be ~0.
	n := 6
	tr := trace.New("uniform", n)
	for i := 0; i < n; i++ {
		r := trace.NewRecorder(tr, i)
		for j := 0; j < 10; j++ {
			r.Compute(5)
			r.Load(sh(j))
		}
		r.Compute(5)
		r.Load(pv(i))
	}
	s := Analyze(tr)
	c := s.Characteristics(nil)
	if c.Threads != n {
		t.Errorf("threads = %d", c.Threads)
	}
	if c.Pairwise.Mean != 20 { // 10 common addrs x (1+1) refs
		t.Errorf("pairwise mean = %v, want 20", c.Pairwise.Mean)
	}
	if c.Pairwise.Dev != 0 {
		t.Errorf("pairwise dev = %v, want 0", c.Pairwise.Dev)
	}
	if math.Abs(c.PctSharedRefs-10.0/11*100) > 1e-9 {
		t.Errorf("pct shared = %v", c.PctSharedRefs)
	}
	if c.Length.Dev != 0 {
		t.Errorf("length dev = %v, want 0", c.Length.Dev)
	}
	if c.NWay.Mean == 0 {
		t.Error("nway mean = 0")
	}
	if c.RefsPerSharedAddr.Mean != 1 {
		t.Errorf("refs/shared addr = %v, want 1", c.RefsPerSharedAddr.Mean)
	}
}

func TestCharacteristicsSkewedLengths(t *testing.T) {
	tr := trace.New("skewed", 4)
	lens := []int{10, 10, 10, 1000}
	for i, l := range lens {
		r := trace.NewRecorder(tr, i)
		for j := 0; j < l; j++ {
			r.Compute(9)
			r.Load(sh(0))
		}
	}
	c := Analyze(tr).Characteristics(nil)
	if c.Length.Dev < 100 {
		t.Errorf("length dev = %v, want large (>100%%)", c.Length.Dev)
	}
}

func TestCharacteristicsDeterministic(t *testing.T) {
	tr := trace.New("det", 8)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		r := trace.NewRecorder(tr, i)
		for j := 0; j < 100; j++ {
			r.Load(sh(rng.Intn(30)))
		}
	}
	a := Analyze(tr).Characteristics(nil)
	b := Analyze(tr).Characteristics(nil)
	if a != b {
		t.Errorf("characteristics not deterministic:\n%+v\n%+v", a, b)
	}
}
