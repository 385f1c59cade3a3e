package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries is the bucket-boundary golden: power-of-two
// bounds are inclusive upper edges, so v=2^i lands in the bucket whose
// bound is 2^i and v=2^i+1 in the next one.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v   int64
		idx int
		le  int64 // inclusive upper bound of the bucket v lands in
	}{
		{-5, 0, 1}, // negative clamps to zero
		{0, 0, 1},
		{1, 0, 1},
		{2, 1, 2},
		{3, 2, 4},
		{4, 2, 4},
		{5, 3, 8},
		{8, 3, 8},
		{9, 4, 16},
		{1024, 10, 1024},
		{1025, 11, 2048},
		{1 << 31, 31, 1 << 31},
		{1<<31 + 1, histFiniteBuckets, 0}, // overflow bucket
		{1 << 40, histFiniteBuckets, 0},
	}
	for _, c := range cases {
		if got := histBucketIndex(c.v); got != c.idx {
			t.Errorf("histBucketIndex(%d) = %d, want %d", c.v, got, c.idx)
		}
		if c.idx < histFiniteBuckets && histBucketBound(c.idx) != c.le {
			t.Errorf("histBucketBound(%d) = %d, want %d", c.idx, histBucketBound(c.idx), c.le)
		}
	}
}

// TestHistogramRenderGolden pins the Prometheus exposition bytes:
// cumulative buckets in ascending le order, empty tail elided into +Inf,
// then _sum and _count.
func TestHistogramRenderGolden(t *testing.T) {
	s := NewMetricSet()
	h := s.Histogram("serve_request_latency_us", "request latency in microseconds")
	for _, v := range []int64{1, 2, 3, 4, 100, 1 << 40} {
		h.Observe(v)
	}
	var b strings.Builder
	if _, err := s.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP serve_request_latency_us request latency in microseconds\n" +
		"# TYPE serve_request_latency_us histogram\n" +
		"serve_request_latency_us_bucket{le=\"1\"} 1\n" +
		"serve_request_latency_us_bucket{le=\"2\"} 2\n" +
		"serve_request_latency_us_bucket{le=\"4\"} 4\n" +
		"serve_request_latency_us_bucket{le=\"8\"} 4\n" +
		"serve_request_latency_us_bucket{le=\"16\"} 4\n" +
		"serve_request_latency_us_bucket{le=\"32\"} 4\n" +
		"serve_request_latency_us_bucket{le=\"64\"} 4\n" +
		"serve_request_latency_us_bucket{le=\"128\"} 5\n" +
		"serve_request_latency_us_bucket{le=\"+Inf\"} 6\n" +
		"serve_request_latency_us_sum 1099511627886\n" +
		"serve_request_latency_us_count 6\n"
	if b.String() != want {
		t.Errorf("render mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestHistogramInterleavedRender: histograms and scalar metrics share one
// sorted name order in WriteTo.
func TestHistogramInterleavedRender(t *testing.T) {
	s := NewMetricSet()
	s.Counter("a_total", "a").Inc()
	s.Histogram("b_latency_us", "b").Observe(1)
	s.Counter("c_total", "c").Inc()
	var b strings.Builder
	if _, err := s.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	ia := strings.Index(out, "a_total")
	ib := strings.Index(out, "b_latency_us")
	ic := strings.Index(out, "c_total")
	if ia < 0 || ib < 0 || ic < 0 || !(ia < ib && ib < ic) {
		t.Errorf("names not interleaved in sorted order:\n%s", out)
	}
}

// TestHistogramKindClash: a histogram name cannot collide with a scalar
// metric in either registration order.
func TestHistogramKindClash(t *testing.T) {
	s := NewMetricSet()
	s.Counter("x_total", "x")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("histogram over counter did not panic")
			}
		}()
		s.Histogram("x_total", "x")
	}()
	s2 := NewMetricSet()
	s2.Histogram("y_us", "y")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("counter over histogram did not panic")
			}
		}()
		s2.Counter("y_us", "y")
	}()
}

// TestHistogramSnapshot: Snapshot exposes _count and _sum for histograms.
func TestHistogramSnapshot(t *testing.T) {
	s := NewMetricSet()
	h := s.Histogram("z_us", "z")
	h.Observe(5)
	h.Observe(7)
	snap := s.Snapshot()
	if snap["z_us_count"] != 2 || snap["z_us_sum"] != 12 {
		t.Errorf("snapshot = %v, want z_us_count=2 z_us_sum=12", snap)
	}
}

// TestHistogramConcurrent: observations under contention tally exactly
// (the -race proof for the atomic cells).
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram("c", "c")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
}
