// Package workload generates per-thread memory reference traces for
// fourteen explicitly parallel applications modeled on the paper's suite
// (§3.1, Table 1/Table 2): seven coarse-grain programs (LocusRoute, Water,
// MP3D, Cholesky, Barnes-Hut, Pverify, Topopt) and seven medium-grain
// Presto programs (Fullconn, Grav, Health, Patch, Vandermonde, FFT,
// Gauss).
//
// The paper traced real binaries with MPtrace on a Sequent Symmetry; those
// traces are not available, so each application here is a scaled-down
// kernel that executes the same class of algorithm through an instrumented
// load/store shim and emits the reference stream. Each kernel is tuned so
// its static characteristics (thread count, thread-length deviation,
// percentage of shared references, sharing uniformity, sequential phase
// structure) land near the paper's Table 2 row — the properties the paper
// identifies as decisive for its result.
//
// All generation is deterministic given Params.Seed.
package workload

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/trace"
)

// Grain classifies applications the way the paper does.
type Grain int

const (
	// Coarse applications have fewer, longer threads (SPLASH-style).
	Coarse Grain = iota
	// Medium applications ran under the Presto environment: shorter,
	// more numerous threads.
	Medium
)

// String returns "coarse" or "medium".
func (g Grain) String() string {
	if g == Medium {
		return "medium"
	}
	return "coarse"
}

// Params controls trace generation.
type Params struct {
	// Scale multiplies all iteration counts; 1.0 is the library default
	// (thread lengths of a few thousand to a few tens of thousands of
	// instructions — the paper's lengths scaled down together with the
	// caches, exactly as the paper itself scaled its data sets).
	Scale float64
	// Seed drives all pseudo-random generation.
	Seed int64
}

// DefaultParams returns Scale 1.0 with a fixed seed.
func DefaultParams() Params { return Params{Scale: 1, Seed: 1994} }

// App is one generatable application.
type App struct {
	// Name matches the paper's application name.
	Name string
	// Grain is the paper's granularity class.
	Grain Grain
	// Threads is the number of threads the application creates.
	Threads int
	// CacheSize is the per-processor cache the paper simulated for this
	// program (32 KB for the coarse programs plus Health and FFT; 64 KB
	// for the other medium programs), already scaled to our trace sizes.
	CacheSize int
	// Description says what the program computes.
	Description string

	build func(b *builder)
}

// Build generates the application's trace.
func (a App) Build(p Params) (*trace.Trace, error) {
	if p.Scale <= 0 {
		return nil, fmt.Errorf("workload: scale must be positive, got %v", p.Scale)
	}
	b := newBuilder(a, p)
	a.build(b)
	b.finishAll()
	tr := b.tr
	// Validate is the trace's first reader, so it seals the recorded
	// events into the trace's one exact-size slab.
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("workload: %s generated an invalid trace: %w", a.Name, err)
	}
	return tr, nil
}

// Apps returns the full suite in the paper's order (coarse then medium).
func Apps() []App {
	return []App{
		locusRoute(), water(), mp3d(), cholesky(), barnesHut(), pverify(), topopt(),
		fullconn(), grav(), health(), patch(), vandermonde(), fft(), gauss(),
	}
}

// ByName returns the named application.
func ByName(name string) (App, error) {
	for _, a := range Apps() {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("workload: unknown application %q", name)
}

// Names returns every application name in suite order.
func Names() []string {
	apps := Apps()
	ns := make([]string, len(apps))
	for i, a := range apps {
		ns[i] = a.Name
	}
	return ns
}

// ---- builder substrate ----

// privateStride separates per-thread private arenas.
const privateStride uint64 = 1 << 28

// Region is a contiguous array of words.
type Region struct {
	base  uint64
	words int
}

// Addr returns the byte address of element i. Indexing wraps modulo the
// region size, so kernels may address with unreduced indices.
func (r Region) Addr(i int) uint64 {
	if r.words <= 0 {
		panic("workload: empty region")
	}
	i %= r.words
	if i < 0 {
		i += r.words
	}
	return r.base + uint64(i)*trace.WordSize
}

// Len returns the number of words in the region.
func (r Region) Len() int { return r.words }

// Slice returns the sub-region [from, from+words).
func (r Region) Slice(from, words int) Region {
	if from < 0 || words < 0 || from+words > r.words {
		panic(fmt.Sprintf("workload: slice [%d,%d) of region with %d words", from, from+words, r.words))
	}
	return Region{base: r.base + uint64(from)*trace.WordSize, words: words}
}

// builder holds per-application generation state.
type builder struct {
	app          App
	tr           *trace.Trace
	scale        float64
	sharedNext   uint64
	sharedAllocs int
	privNext     []uint64
	threads      []*T
}

func newBuilder(a App, p Params) *builder {
	b := &builder{
		app:        a,
		tr:         trace.New(a.Name, a.Threads),
		scale:      p.Scale,
		sharedNext: trace.SharedBase,
		privNext:   make([]uint64, a.Threads),
		threads:    make([]*T, a.Threads),
	}
	for t := 0; t < a.Threads; t++ {
		// Offset each arena base so private data does not alias across
		// threads or onto the shared segment's cache sets — a pure
		// address-layout artifact real programs' heaps do not have.
		// Two components: a fine stagger of 17 lines per thread spreads
		// arenas within small (<= 64 KB) caches, and a coarse
		// pseudo-random multiple of 64 KB (invisible to those caches)
		// spreads them across the 8 MB "infinite" cache of §4.3.
		fine := uint64(t) * 17 * 64
		coarse := (uint64(t+3) * 2654435761 % (1 << 22)) &^ 65535
		b.privNext[t] = uint64(t+1)*privateStride + coarse + fine
		b.threads[t] = &T{
			ID:   t,
			rec:  trace.NewRecorder(b.tr, t),
			seed: threadSeed(p.Seed, t),
		}
	}
	return b
}

// threadSeed derives thread t's stream seed from the build's seed.
func threadSeed(seed int64, t int) int64 { return seed ^ int64(t)*-0x61C8864680B583EB }

// N scales an iteration count, never below 1.
func (b *builder) N(n int) int {
	v := int(float64(n) * b.scale)
	if v < 1 {
		v = 1
	}
	return v
}

// Shared allocates a shared array of the given word count. Allocations
// are separated by a deterministic odd-line-count gap so that differently
// sized arrays do not land on systematically overlapping cache sets (a
// back-to-back layout would, e.g., align a table directly over a
// power-of-two-sized array in a direct-mapped cache — an artifact real
// allocators' headers and padding break up).
func (b *builder) Shared(words int) Region {
	if words <= 0 {
		panic("workload: non-positive shared allocation")
	}
	r := Region{base: b.sharedNext, words: words}
	b.sharedAllocs++
	gap := uint64(17+251*b.sharedAllocs) % 509
	b.sharedNext += (uint64(words) + gap) * trace.WordSize
	return r
}

// Private allocates a private array for thread t.
func (b *builder) Private(t, words int) Region {
	if words <= 0 {
		panic("workload: non-positive private allocation")
	}
	if uint64(words)*trace.WordSize > privateStride {
		panic("workload: private allocation exceeds arena stride")
	}
	r := Region{base: b.privNext[t], words: words}
	b.privNext[t] += uint64(words) * trace.WordSize
	return r
}

// Thread returns thread t's shim.
func (b *builder) Thread(t int) *T { return b.threads[t] }

// EachThread runs f for every thread in ID order.
func (b *builder) EachThread(f func(t *T)) {
	for _, t := range b.threads {
		f(t)
	}
}

// finishAll flushes each thread's trailing computation by touching its
// private scratch word, ensuring no recorded work is dropped, and hands
// the threads' generators back for the next build.
func (b *builder) finishAll() {
	for t, th := range b.threads {
		if th.rec.PendingGap() > 0 || th.rec.Refs() == 0 {
			th.rec.Load(uint64(t+1) * privateStride)
		}
		if th.rng != nil {
			streams.Put(th.rng)
			th.rng = nil
		}
	}
}

// T is the per-thread instrumented memory shim the kernels program
// against.
type T struct {
	// ID is the thread's index.
	ID   int
	rec  *trace.Recorder
	seed int64
	rng  *stream // seeded on the first draw; most kernels never draw
}

// Read records a load of element i of region r.
func (t *T) Read(r Region, i int) { t.rec.Load(r.Addr(i)) }

// Write records a store to element i of region r.
func (t *T) Write(r Region, i int) { t.rec.Store(r.Addr(i)) }

// Compute records n non-memory instructions.
func (t *T) Compute(n int) { t.rec.Compute(n) }

// Intn returns a deterministic pseudo-random int in [0, n) from the
// thread's private stream.
func (t *T) Intn(n int) int { return t.stream().Intn(n) }

// Float64 returns a deterministic pseudo-random float in [0, 1).
func (t *T) Float64() float64 { return t.stream().Float64() }

// stream returns the thread's private stream, seeding it on first use.
func (t *T) stream() *rand.Rand {
	if t.rng == nil {
		t.rng = streams.Get().(*stream)
		t.rng.Seed(t.seed)
	}
	return t.rng.Rand
}

// stream is a thread's generator: rand.Rand's methods over the source.
type stream struct {
	*rand.Rand
	src source
}

// streams keeps generators for reuse across builds: a source's register
// is 4.9 KB, and every build seeds one per thread that draws.
var streams = sync.Pool{New: func() any {
	s := new(stream)
	s.Rand = rand.New(&s.src)
	return s
}}
