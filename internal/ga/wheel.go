package ga

import "math"

// wheel is the cumulative-weight wheel both proportional operators spin
// (roulette on window-scaled values, rank on linear ranks), indexed by a
// Chen–Asau guide table so a pick costs a load and a short forward walk
// instead of a binary search's chain of dependent loads.
//
// cum is the running weight sum, accumulated in index order. bucket maps
// a value v to ⌊v·n/total⌋ clamped to [0, n−1], and guide[b] is the
// first index whose cum falls in bucket b or later (n−1 when none does).
// bucket is monotone, so every index before guide[bucket(x)] has
// cum < x: a walk started there and stopped at the first cum ≥ x (or
// cum > x), or at n−1, returns exactly what a search of the whole of cum
// returns — the same pick for every draw.
type wheel struct {
	cum   []float64
	guide []int
	scale float64 // n/total; 0 when total is not finite and positive, or n/total overflows
	top   float64 // n−1, the last bucket
}

// spin accumulates weights into cum and indexes cum into guide (both
// caller-owned scratch, len(weights) long). A scale of 0 puts every
// value in bucket 0, so a wheel whose total is NaN, infinite, not
// positive or too small to divide by starts every walk at index 0 —
// slower, and still exact.
func spin(weights, cum []float64, guide []int, total float64) wheel {
	n := len(weights)
	acc := 0.0
	for i, w := range weights {
		acc += w
		cum[i] = acc
	}
	wh := wheel{cum: cum, guide: guide, scale: float64(n) / total, top: float64(n - 1)}
	if !(total > 0) || total > math.MaxFloat64 || wh.scale > math.MaxFloat64 {
		wh.scale = 0
	}
	b := 0
	for i, c := range cum {
		for k := wh.bucket(c); b <= k; b++ {
			guide[b] = i
		}
	}
	for ; b < n; b++ {
		guide[b] = n - 1
	}
	return wh
}

// bucket is ⌊v·scale⌋ clamped to [0, n−1]. The clamp is done on the
// float, before the conversion: Go leaves the int conversion of NaN and
// of out-of-range values to the implementation. A NaN product (NaN x, or
// ±Inf times a zero scale) lands in bucket 0.
func (w *wheel) bucket(v float64) int {
	t := v * w.scale
	if !(t > 0) {
		return 0
	}
	if t >= w.top {
		return len(w.guide) - 1
	}
	return int(t)
}

// atLeast returns the first index whose cum is ≥ x, or n−1 when there is
// none (roulette's pick).
func (w *wheel) atLeast(x float64) int {
	i, last := w.guide[w.bucket(x)], len(w.cum)-1
	for i < last && w.cum[i] < x {
		i++
	}
	return i
}

// above returns the first index whose cum is > x, or n−1 when there is
// none (rank's pick).
func (w *wheel) above(x float64) int {
	i, last := w.guide[w.bucket(x)], len(w.cum)-1
	for i < last && w.cum[i] <= x {
		i++
	}
	return i
}
