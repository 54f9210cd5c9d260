// Package obs holds the daemon's in-process instruments: fixed-bucket
// histograms that count wall-clock durations without allocating, for
// exposition on /metrics.prom. Nothing recorded here reaches an event,
// a WAL record or any other part of the determinism contract.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Buckets is the number of finite buckets of a Histogram. Bucket k
// counts durations in (2^(k-1) µs, 2^k µs] (bucket 0 everything up to
// 1 µs), so the finite bounds run from 1 µs to 2^22 µs ≈ 4.2 s; a last
// bucket counts the rest.
const Buckets = 23

// Histogram counts durations into log-spaced buckets. Observe and Load
// are safe from any goroutine and never allocate; the zero value is
// ready to use.
type Histogram struct {
	counts [Buckets + 1]atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

// bucket returns the index of the bucket that counts d: the smallest k
// with d <= UpperBound(k).
func bucket(d time.Duration) int {
	if d <= time.Microsecond {
		return 0
	}
	return min(bits.Len64(uint64((d-1)/time.Microsecond)), Buckets)
}

// UpperBound returns bucket k's inclusive upper bound in seconds, +Inf
// for the last bucket.
func UpperBound(k int) float64 {
	if k >= Buckets {
		return math.Inf(1)
	}
	return math.Ldexp(1e-6, k)
}

// Observe counts one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[bucket(d)].Add(1)
	h.sum.Add(int64(d))
}

// ObserveCount counts a non-negative integer n (a GA generation index,
// say) on the same buckets read in units of one: bucket k counts n in
// (2^(k-1), 2^k], bucket 0 counts 0 and 1, and the Counts' Sum holds Σn
// in microseconds (Sum.Microseconds() is Σn).
func (h *Histogram) ObserveCount(n int) { h.Observe(time.Duration(n) * time.Microsecond) }

// Counts is a point-in-time copy of a Histogram.
type Counts struct {
	// Buckets holds the per-bucket counts (not cumulative).
	Buckets [Buckets + 1]uint64
	Sum     time.Duration
}

// Load copies the histogram. Under concurrent Observe calls the copy
// may split one observation between its count and its sum.
func (h *Histogram) Load() Counts {
	var c Counts
	for k := range h.counts {
		c.Buckets[k] = h.counts[k].Load()
	}
	c.Sum = time.Duration(h.sum.Load())
	return c
}

// Add folds o into c, as when summing shards.
func (c *Counts) Add(o Counts) {
	for k, n := range o.Buckets {
		c.Buckets[k] += n
	}
	c.Sum += o.Sum
}
