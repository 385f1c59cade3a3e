package workload

import (
	"math"
	"math/rand"
	"testing"
)

// TestSourceMatchesMathRand: the threads' generator is math/rand's. Over
// one reused source, reseeded for each seed, every rand.Rand method the
// kernels could call draws what rand.New(rand.NewSource(seed)) draws:
// at the seeds where Seed's reduction mod 2^31-1 wraps, at its extremes,
// at the zero seed math/rand replaces, and at every thread seed the
// builder derives for the catalog at the default params.
func TestSourceMatchesMathRand(t *testing.T) {
	const m = int64(math.MaxInt32) // 2^31 - 1
	seeds := []int64{0, 1, -1, m, -m, m - 1, m + 1, -m - 1, 2 * m, -2 * m, 3 * m, m << 32, -(m << 32),
		math.MaxInt64 / m * m, math.MinInt64 / m * m, math.MinInt64, math.MaxInt64, 89482311, 1994}
	maxThreads := 0
	for _, a := range Apps() {
		maxThreads = max(maxThreads, a.Threads)
	}
	for tid := 0; tid < maxThreads; tid++ {
		seeds = append(seeds, threadSeed(DefaultParams().Seed, tid))
	}

	var src source
	got := rand.New(&src)
	for _, seed := range seeds {
		got.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			n := 1 + i%1000
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 = %d, math/rand %d", seed, i, g, w)
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 = %d, math/rand %d", seed, i, g, w)
			}
			if g, w := got.Intn(n), want.Intn(n); g != w {
				t.Fatalf("seed %d draw %d: Intn(%d) = %d, math/rand %d", seed, i, n, g, w)
			}
			if g, w := got.Int63n(int64(n)<<40+3), want.Int63n(int64(n)<<40+3); g != w {
				t.Fatalf("seed %d draw %d: Int63n = %d, math/rand %d", seed, i, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d draw %d: Float64 = %v, math/rand %v", seed, i, g, w)
			}
			g, w := got.Perm(i%17), want.Perm(i%17)
			for k := range w {
				if g[k] != w[k] {
					t.Fatalf("seed %d draw %d: Perm = %v, math/rand %v", seed, i, g, w)
				}
			}
		}
	}
}
