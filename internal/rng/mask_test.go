package rng

import (
	"fmt"
	"math"
	"testing"

	"trustgrid/internal/cpu"
)

// maskPaths lists the FillBernoulli paths this CPU can run: the
// portable loop always, the vector kernel where cpu.HasAVX2.
func maskPaths() []bool {
	if cpu.HasAVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

// forEachMaskPath runs f as one subtest per FillBernoulli path, named
// after MaskKernel, and restores the start-up choice afterwards.
func forEachMaskPath(t *testing.T, f func(t *testing.T)) {
	defer func(v bool) { useMaskKernel = v }(useMaskKernel)
	for _, on := range maskPaths() {
		useMaskKernel = on
		t.Run(MaskKernel(), f)
	}
}

// checkFillBernoulli fills an n-trial mask from a Block seeded with
// seed and advanced misalign draws, and holds it to the element-wise
// reference: every bit, zero tail bits, every word overwritten and none
// past the word count, and the Block's stripes and cursor equal to the
// reference's afterwards. It returns "" or what differed.
func checkFillBernoulli(seed uint64, n int, bn Bernoulli, misalign int) string {
	b := NewBlock(New(seed))
	for i := 0; i < misalign; i++ {
		b.Next()
	}
	ref := cloneBlock(b)
	words := (n + 63) / 64
	const junk, sentinel = 0xa5a5a5a5a5a5a5a5, 0xdeadbeef
	got := make([]uint64, words+1)
	for i := range got {
		got[i] = junk
	}
	got[words] = sentinel // must not be touched
	b.FillBernoulli(got[:words], n, bn)
	for j := 0; j < n; j++ {
		var want bool
		switch {
		case bn.never:
			want = false
		case bn.always:
			want = true
		default:
			want = ref.Next()>>11 < bn.threshold
		}
		if gotBit := got[j>>6]&(1<<uint(j&63)) != 0; gotBit != want {
			return fmt.Sprintf("misalign=%d n=%d: bit %d = %v, want %v", misalign, n, j, gotBit, want)
		}
	}
	// Tail bits beyond count stay zero so callers can popcount whole
	// words.
	if n&63 != 0 {
		if tail := got[words-1] >> uint(n&63); tail != 0 {
			return fmt.Sprintf("misalign=%d n=%d: tail bits set: %#x", misalign, n, tail)
		}
	}
	if got[words] != sentinel {
		return fmt.Sprintf("misalign=%d n=%d: wrote past the word count", misalign, n)
	}
	// Draw-count parity: same stripe states, same cursor.
	if *b != *ref {
		return fmt.Sprintf("misalign=%d n=%d: block state diverged: %+v, want %+v", misalign, n, *b, *ref)
	}
	return ""
}

// FuzzFillBernoulli holds every FillBernoulli path to the element-wise
// Next reference on arbitrary seeds, counts up to 8192 trials, any
// probability bits (0, negatives, ≥ 1, ±Inf, NaN and subnormals
// included) and a cursor 0–3 draws into the stripe cycle.
func FuzzFillBernoulli(f *testing.F) {
	f.Add(uint64(1), uint16(4200), math.Float64bits(0.01), uint8(0))
	f.Add(uint64(2), uint16(8192), math.Float64bits(0.5), uint8(0))
	f.Add(uint64(3), uint16(130), math.Float64bits(0.8), uint8(3))
	f.Add(uint64(4), uint16(64), math.Float64bits(1), uint8(0))
	f.Add(uint64(5), uint16(65), math.Float64bits(0), uint8(1))
	f.Add(uint64(6), uint16(1000), math.Float64bits(math.NaN()), uint8(0))
	f.Add(uint64(7), uint16(640), uint64(1), uint8(0)) // smallest subnormal
	f.Add(uint64(8), uint16(640), math.Float64bits(math.Nextafter(1, 0)), uint8(2))
	f.Add(uint64(9), uint16(0), math.Float64bits(0.3), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, count uint16, pbits uint64, misalign uint8) {
		n, bn := int(count)%8193, NewBernoulli(math.Float64frombits(pbits))
		defer func(v bool) { useMaskKernel = v }(useMaskKernel)
		for _, on := range maskPaths() {
			useMaskKernel = on
			if err := checkFillBernoulli(seed, n, bn, int(misalign%4)); err != "" {
				t.Fatalf("%s p=%v: %s", MaskKernel(), math.Float64frombits(pbits), err)
			}
		}
	})
}

// TestBernoulliMatchesBool pins Hit to Bool on the probabilities the
// threshold cannot express directly: a NaN probability draws and never
// hits under Bool, so Hit must too, on every architecture.
func TestBernoulliMatchesBool(t *testing.T) {
	for _, p := range []float64{math.NaN(), math.Inf(-1), math.Inf(1), -0.0, 5e-324, 0.25, math.Nextafter(1, 0)} {
		a, b := New(99), New(99)
		bn := NewBernoulli(p)
		for i := 0; i < 256; i++ {
			if got, want := bn.Hit(a), b.Bool(p); got != want {
				t.Fatalf("p=%v draw %d: Hit = %v, Bool = %v", p, i, got, want)
			}
		}
		if a.State() != b.State() {
			t.Fatalf("p=%v: Hit and Bool consumed different draw counts", p)
		}
	}
}

// BenchmarkFillBernoulli times one mutation mask of replay-nas-stga's
// shape (population 200 × 21 genes, p = 0.01) per path, in ns per
// trial.
func BenchmarkFillBernoulli(b *testing.B) {
	const count = 200 * 21
	bn := NewBernoulli(0.01)
	dst := make([]uint64, (count+63)/64)
	defer func(v bool) { useMaskKernel = v }(useMaskKernel)
	for _, on := range maskPaths() {
		useMaskKernel = on
		b.Run(MaskKernel(), func(b *testing.B) {
			blk := NewBlock(New(1))
			for i := 0; i < b.N; i++ {
				blk.FillBernoulli(dst, count, bn)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/count, "ns/draw")
		})
	}
}
