package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestBucketEdges pins the bucket math: every bound lands in its own
// bucket, one nanosecond past it in the next, and the finite bounds
// are the powers of two from 1 µs.
func TestBucketEdges(t *testing.T) {
	for _, d := range []time.Duration{-time.Second, 0, 1, time.Microsecond} {
		if got := bucket(d); got != 0 {
			t.Fatalf("bucket(%v) = %d, want 0", d, got)
		}
	}
	for k := 0; k < Buckets; k++ {
		bound := time.Duration(math.Round(UpperBound(k) * 1e9))
		if bound != time.Microsecond<<k {
			t.Fatalf("UpperBound(%d) = %v, want %v", k, UpperBound(k), time.Microsecond<<k)
		}
		if got := bucket(bound); got != k {
			t.Fatalf("bucket(%v) = %d, want %d", bound, got, k)
		}
		if got := bucket(bound + 1); got != k+1 {
			t.Fatalf("bucket(%v) = %d, want %d", bound+1, got, k+1)
		}
	}
	if got := bucket(time.Hour); got != Buckets {
		t.Fatalf("bucket(1h) = %d, want the overflow bucket %d", got, Buckets)
	}
	if !math.IsInf(UpperBound(Buckets), 1) {
		t.Fatalf("overflow bucket bound %v, want +Inf", UpperBound(Buckets))
	}
}

func TestHistogramLoadAndAdd(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{500, 3 * time.Microsecond, 3 * time.Microsecond, 10 * time.Second} {
		h.Observe(d)
	}
	c := h.Load()
	if count(c) != 4 || c.Buckets[0] != 1 || c.Buckets[2] != 2 || c.Buckets[Buckets] != 1 {
		t.Fatalf("counts %v", c.Buckets)
	}
	if want := 500 + 6*time.Microsecond + 10*time.Second; c.Sum != want {
		t.Fatalf("sum %v, want %v", c.Sum, want)
	}
	c.Add(c)
	if count(c) != 8 || c.Buckets[2] != 4 || c.Sum != 2*(500+6*time.Microsecond+10*time.Second) {
		t.Fatalf("after Add: %v, sum %v", c.Buckets, c.Sum)
	}
	if allocs := testing.AllocsPerRun(100, func() { h.Observe(time.Millisecond) }); allocs != 0 {
		t.Fatalf("Observe allocates %v times", allocs)
	}
}

func count(c Counts) uint64 {
	var n uint64
	for _, b := range c.Buckets {
		n += b
	}
	return n
}

// TestHistogramConcurrent: Observe from several goroutines while
// another loads; nothing is lost (run under -race).
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	for i := 0; i < 100; i++ {
		_ = h.Load()
	}
	wg.Wait()
	if c := h.Load(); count(c) != 4000 {
		t.Fatalf("%d observations, want 4000", count(c))
	}
}
