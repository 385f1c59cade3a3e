package analysis

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/trace"
	"repro/internal/workload"
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
	want := []AddrCount{{sh(0), RefCount{Reads: 1, Writes: 1}}, {sh(1), RefCount{Reads: 1}}}
	if !reflect.DeepEqual(p.Shared, want) {
		t.Errorf("Shared = %+v, want %+v in first-touch order", p.Shared, want)
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

// profileTotals are a profile's fields other than Shared.
type profileTotals struct {
	TotalRefs, SharedRefs uint64
	PrivateAddrs          int
	Length                uint64
}

// mapProfile re-profiles t with Go maps: the oracle for ProfileThread.
func mapProfile(t *trace.Thread) (p profileTotals, counts map[uint64]RefCount) {
	counts = map[uint64]RefCount{}
	private := map[uint64]bool{}
	for i := 0; i < t.Refs(); i++ {
		e := t.Event(i)
		p.TotalRefs++
		if !trace.IsShared(e.Addr) {
			private[e.Addr] = true
			continue
		}
		p.SharedRefs++
		c := counts[e.Addr]
		if e.Kind == trace.Write {
			c.Writes++
		} else {
			c.Reads++
		}
		counts[e.Addr] = c
	}
	p.PrivateAddrs, p.Length = len(private), t.Instructions()
	return p, counts
}

// countsOf returns p's shared counts as a map, and false if an address
// appears twice in p.Shared.
func countsOf(p *Profile) (map[uint64]RefCount, bool) {
	m := make(map[uint64]RefCount, len(p.Shared))
	for _, u := range p.Shared {
		m[u.Addr] = u.Count
	}
	return m, len(m) == len(p.Shared)
}

// profileMismatch describes how p differs from the map oracle's profile
// of t, or returns "" if they agree field by field.
func profileMismatch(t *trace.Thread, p *Profile) string {
	want, wantCounts := mapProfile(t)
	got := profileTotals{p.TotalRefs, p.SharedRefs, p.PrivateAddrs, p.Length}
	if got != want {
		return fmt.Sprintf("thread %d: profile %+v, oracle %+v", t.ID, got, want)
	}
	counts, unique := countsOf(p)
	if !unique {
		return fmt.Sprintf("thread %d: an address appears twice in Shared", t.ID)
	}
	if !maps.Equal(counts, wantCounts) {
		return fmt.Sprintf("thread %d: %d shared counts differ from the oracle's %d", t.ID, len(counts), len(wantCounts))
	}
	return ""
}

// quickTrace is a random trace for testing/quick. Each thread mixes dense
// runs of words, sparse addresses anywhere up to trace.MaxAddr, the
// segment boundary, address 0, heavy repetition of a few words, and
// sometimes more than 1,024 distinct addresses, which makes the profile
// table grow; some threads are empty.
type quickTrace struct{ threads [][]trace.Event }

func (quickTrace) Generate(r *rand.Rand, _ int) reflect.Value {
	word := func() uint64 { return uint64(r.Int63n(int64(trace.MaxAddr/trace.WordSize)+1)) * trace.WordSize }
	edges := []uint64{0, trace.SharedBase - trace.WordSize, trace.SharedBase, trace.MaxAddr &^ (trace.WordSize - 1)}
	threads := make([][]trace.Event, 1+r.Intn(4))
	for i := range threads {
		var addrs []uint64
		for seg := r.Intn(5); seg > 0; seg-- {
			switch r.Intn(5) {
			case 0: // a dense run: private, shared or across the boundary
				base := []uint64{0, trace.SharedBase - 64*trace.WordSize, trace.SharedBase}[r.Intn(3)] +
					uint64(r.Intn(64))*trace.WordSize
				for n := r.Intn(200); n > 0; n-- {
					addrs = append(addrs, base+uint64(r.Intn(100))*trace.WordSize)
				}
			case 1: // sparse addresses over the whole range
				for n := r.Intn(50); n > 0; n-- {
					addrs = append(addrs, word())
				}
			case 2: // the edges
				for n := r.Intn(20); n > 0; n-- {
					addrs = append(addrs, edges[r.Intn(len(edges))])
				}
			case 3: // heavy repetition of a few words
				few := []uint64{word(), edges[r.Intn(len(edges))], word()}
				for n := 100 + r.Intn(400); n > 0; n-- {
					addrs = append(addrs, few[r.Intn(len(few))])
				}
			case 4: // over 1,024 distinct addresses: the table doubles twice
				for n := 1025 + r.Intn(2000); n > 0; n-- {
					addrs = append(addrs, word())
				}
			}
		}
		for _, a := range addrs {
			threads[i] = append(threads[i], trace.Event{Gap: uint32(r.Intn(4)), Kind: trace.Kind(r.Intn(2)), Addr: a})
		}
	}
	return reflect.ValueOf(quickTrace{threads})
}

// GoString keeps a failing case's report short: quick prints its input
// with %#v.
func (q quickTrace) GoString() string {
	lens := make([]int, len(q.threads))
	for i, evs := range q.threads {
		lens[i] = len(evs)
	}
	return fmt.Sprintf("quickTrace{refs per thread %v}", lens)
}

// TestProfileMatchesMapOracle is a property: on random traces, both
// Analyze (one table reused across threads) and ProfileThread (a fresh
// table) agree with the map oracle on every field and every count.
func TestProfileMatchesMapOracle(t *testing.T) {
	f := func(q quickTrace) bool {
		tr := buildTrace(t, "quick", q.threads)
		s := Analyze(tr)
		for i, th := range tr.Threads {
			for _, p := range []*Profile{s.Profiles[i], ProfileThread(th)} {
				if msg := profileMismatch(th, p); msg != "" {
					t.Log(msg)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCatalogProfilesMatchMapOracle runs the map oracle over every thread
// of every catalog application.
func TestCatalogProfilesMatchMapOracle(t *testing.T) {
	for _, app := range workload.Apps() {
		tr, err := app.Build(workload.Params{Scale: 0.1, Seed: 1994})
		if err != nil {
			t.Fatal(err)
		}
		s := Analyze(tr)
		for i, th := range tr.Threads {
			if msg := profileMismatch(th, s.Profiles[i]); msg != "" {
				t.Errorf("%s: %s", app.Name, msg)
			}
		}
	}
}

// pairSharing computes the (a, b) entries of SharedRefs, SharedAddrs,
// WriteSharedRefs and InvalidatingRefs directly from a's shared list and
// b's counts, without the inverted index: the oracle for Sharing.
func pairSharing(a []AddrCount, b map[uint64]RefCount) [4]uint64 {
	var m [4]uint64
	for _, u := range a {
		cb, ok := b[u.Addr]
		if !ok {
			continue
		}
		r := u.Count.Total() + cb.Total()
		m[0] += r
		m[1]++
		if u.Count.Writes > 0 || cb.Writes > 0 {
			m[2] += r
			m[3] += uint64(u.Count.Writes) + uint64(cb.Writes)
		}
	}
	return m
}

// checkPairOracle compares all four of s's sharing matrices, both halves,
// with pairSharing for every thread pair, and returns the number of pairs
// with invalidating references.
func checkPairOracle(t *testing.T, s *Set) int {
	t.Helper()
	d := s.Sharing()
	counts := make([]map[uint64]RefCount, len(s.Profiles))
	for i, p := range s.Profiles {
		counts[i], _ = countsOf(p)
	}
	written := 0
	for a := range s.Profiles {
		for b := a + 1; b < len(s.Profiles); b++ {
			want := pairSharing(s.Profiles[a].Shared, counts[b])
			for _, got := range [][4]uint64{
				{d.SharedRefs[a][b], d.SharedAddrs[a][b], d.WriteSharedRefs[a][b], d.InvalidatingRefs[a][b]},
				{d.SharedRefs[b][a], d.SharedAddrs[b][a], d.WriteSharedRefs[b][a], d.InvalidatingRefs[b][a]},
			} {
				if got != want {
					t.Fatalf("%s: matrices at (%d, %d) = %v (refs, addrs, write refs, invalidating), oracle %v", s.App, a, b, got, want)
				}
			}
			if want[3] > 0 {
				written++
			}
		}
	}
	return written
}

// TestSharingMatchesPairOracle cross-checks the inverted-index computation
// of all four matrices against the direct pairwise intersection, on
// random traces and on two catalog applications.
func TestSharingMatchesPairOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		n := 3 + rng.Intn(6)
		tr := trace.New(fmt.Sprintf("rand%d", trial), n)
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
		checkPairOracle(t, Analyze(tr))
	}
	for _, name := range []string{"LocusRoute", "FFT"} {
		app, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := app.Build(workload.Params{Scale: 0.1, Seed: 1994})
		if err != nil {
			t.Fatal(err)
		}
		if checkPairOracle(t, Analyze(tr)) == 0 {
			t.Errorf("%s: no thread pair has invalidating references; the write matrices went unchecked", name)
		}
	}
}

// TestInvertedIndexCanonical locks the inverted index's ordering
// invariant: the list is strictly sorted by address and then thread, so
// every address's users form one run in ascending thread order. The list
// is collected thread by thread, each thread's addresses in first-touch
// order, and then radix-sorted, one pass per byte of the address range;
// the address spans give zero to three passes, so the sort ends in the
// list from either of its two arrays.
func TestInvertedIndexCanonical(t *testing.T) {
	for _, words := range []int{1, 20, 40, 1 << 14} {
		rng := rand.New(rand.NewSource(1994))
		n := 6
		tr := trace.New("inv", n)
		for i := 0; i < n; i++ {
			r := trace.NewRecorder(tr, i)
			for j := 0; j < 300; j++ {
				r.Load(sh(rng.Intn(words)))
			}
		}
		s := Analyze(tr)
		idx := s.uses
		if len(idx) == 0 {
			t.Fatalf("%d-word span: empty inverted index", words)
		}
		for i := 1; i < len(idx); i++ {
			a, b := idx[i-1], idx[i]
			if a.addr > b.addr || (a.addr == b.addr && a.thread >= b.thread) {
				t.Fatalf("%d-word span: index not in (address, thread) order: (%#x, %d) then (%#x, %d)",
					words, a.addr, a.thread, b.addr, b.thread)
			}
		}
	}
}

// TestSetConcurrentReaders: a Set is immutable once Analyze returns, so
// the methods that read its inverted index may run on one shared Set from
// several goroutines (core.Suite hands one Set to every caller) and agree.
// Run under -race, a lazily built index fails this test.
func TestSetConcurrentReaders(t *testing.T) {
	app, err := workload.ByName("FFT")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := app.Build(workload.Params{Scale: 0.1, Seed: 1994})
	if err != nil {
		t.Fatal(err)
	}
	s := Analyze(tr)
	type reading struct {
		sharing *SharingData
		fs      FalseSharingReport
		ch      Characteristics
	}
	const readers = 4
	got := make([]reading, readers)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = reading{s.Sharing(), s.FalseSharing(64), s.Characteristics(nil)}
		}()
	}
	wg.Wait()
	for g := 1; g < readers; g++ {
		if !reflect.DeepEqual(got[g], got[0]) {
			t.Fatalf("reader %d disagrees with reader 0", g)
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
