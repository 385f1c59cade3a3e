package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket log-scale latency/throughput distribution.
// Buckets are powers of two: the i-th finite bucket covers values v with
// 2^(i-1) < v <= 2^i (bucket 0 holds v <= 1), and one overflow bucket
// holds everything above the last finite bound. The fixed layout keeps
// Observe allocation-free (three atomic adds) and the rendered exposition
// deterministic: same observations, same bytes, regardless of order.
//
// Units are the caller's choice and should be part of the metric name
// (serve_request_latency_us, serve_engine_cycles_per_sec). Negative
// observations are clamped to zero.

// histFiniteBuckets is the number of finite power-of-two buckets; the
// largest finite upper bound is 2^(histFiniteBuckets-1) = 2^31, which at
// microsecond resolution covers ~36 minutes — beyond any request this
// server answers.
const histFiniteBuckets = 32

// Histogram is one named distribution. All methods are safe for
// concurrent use; Observe is allocation-free.
type Histogram struct {
	name    string
	help    string
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histFiniteBuckets + 1]atomic.Int64
}

// NewHistogram returns a standalone histogram (not attached to a
// MetricSet); use MetricSet.Histogram to register one for /metrics.
func NewHistogram(name, help string) *Histogram {
	return &Histogram{name: name, help: help}
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// histBucketIndex maps a value to its bucket. Exposed for the
// bucket-boundary golden test.
func histBucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	// bits.Len64(v-1) is ceil(log2(v)) for v >= 2: the index of the first
	// power-of-two bound >= v.
	i := bits.Len64(uint64(v - 1))
	if i > histFiniteBuckets {
		return histFiniteBuckets
	}
	return i
}

// histBucketBound returns the inclusive upper bound of finite bucket i.
func histBucketBound(i int) int64 { return int64(1) << uint(i) }

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[histBucketIndex(v)].Add(1)
}

// ObserveSince records the elapsed wall time since t0 in microseconds —
// the unit every latency histogram in this repo uses.
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0).Microseconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// writeTo renders the histogram in the Prometheus text exposition format:
// cumulative _bucket series in ascending le order, then _sum and _count.
// Empty buckets past the last observation are elided (except le="+Inf")
// to keep /metrics readable; the output is still deterministic because
// elision depends only on the recorded values.
func (h *Histogram) writeTo(w io.Writer) (int64, error) {
	// Snapshot every cell first so one render is internally consistent
	// (le="+Inf" always equals _count) even under concurrent Observe.
	var snap [histFiniteBuckets + 1]int64
	var total int64
	for i := range snap {
		snap[i] = h.buckets[i].Load()
		total += snap[i]
	}
	sum := h.sum.Load()

	var n int64
	c, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
	n += int64(c)
	if err != nil {
		return n, err
	}
	// Find the last non-empty finite bucket so the tail of empty buckets
	// collapses into le="+Inf".
	last := 0
	for i := 0; i < histFiniteBuckets; i++ {
		if snap[i] != 0 {
			last = i
		}
	}
	var cum int64
	for i := 0; i <= last; i++ {
		cum += snap[i]
		c, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", h.name, histBucketBound(i), cum)
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	c, err = fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
		h.name, total, h.name, sum, h.name, total)
	n += int64(c)
	return n, err
}
