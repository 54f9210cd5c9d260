package stga

import "math"

// SimilarityEq2 is the paper's Eq. 2 exactly as printed:
//
//	Similarity(a,b) = 1 − Σ|aᵢ−bᵢ| / max{max aᵢ, max bᵢ}
//
// Note the denominator is a single maximal element, not a sum, so for
// long vectors the value easily goes negative; see Similarity for the
// normalized variant the scheduler uses by default (DESIGN.md §2.3).
// Vectors of different lengths are compared over the common prefix with
// a length-ratio penalty.
func SimilarityEq2(a, b []float64) float64 {
	return similarity(a, b, false)
}

// Similarity is the length-normalized variant:
//
//	Similarity(a,b) = 1 − (1/k)·Σ|aᵢ−bᵢ| / max{max aᵢ, max bᵢ}
//
// It is 1 for identical vectors, stays in (−∞, 1] but in practice within
// [0,1] whenever the element-wise differences are bounded by the max, and
// makes the paper's 0.8 lookup threshold attainable for realistically
// similar batches.
func Similarity(a, b []float64) float64 {
	return similarity(a, b, true)
}

func similarity(a, b []float64, normalize bool) float64 {
	return similarityPremax(a, b, maxElemOf(a), maxElemOf(b), normalize)
}

// maxElemOf returns the maximal element of v under the exact comparison
// the similarity scan historically used: strict >, starting from zero
// (so all-negative vectors yield 0, and NaNs never win).
func maxElemOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// similarityPremax is similarity with both vectors' maximal elements
// precomputed. The maxima are scan-invariant, so the history table
// caches each entry's at insert time and computes the query's once per
// lookup; the per-entry hot loop then reduces to the branchless |aᵢ−bᵢ|
// accumulation (the data-dependent max-tracking branches used to cost
// as much as the arithmetic). Bit-identical to the fused scan: the
// difference sum accumulates in the same order and the max is
// order-independent under strict >.
func similarityPremax(a, b []float64, maxA, maxB float64, normalize bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	k := len(a)
	if len(b) < k {
		k = len(b)
	}
	var sumDiff float64
	for i := 0; i < k; i++ {
		// math.Abs clears the sign bit, no compare and branch: a
		// difference of either sign costs the same. -0 adds as +0 and a
		// NaN stays NaN, as under the branch it replaced.
		sumDiff += math.Abs(a[i] - b[i])
	}
	maxElem := maxA
	if maxB > maxElem {
		maxElem = maxB
	}
	var sim float64
	switch {
	case maxElem == 0:
		// Both vectors all-zero over the prefix: identical.
		sim = 1
	case normalize:
		sim = 1 - sumDiff/(float64(k)*maxElem)
	default:
		sim = 1 - sumDiff/maxElem
	}
	// Length mismatch penalty: scale by |common| / |longest|.
	longest := len(a)
	if len(b) > longest {
		longest = len(b)
	}
	if longest != k {
		sim *= float64(k) / float64(longest)
	}
	if math.IsNaN(sim) {
		return 0
	}
	return sim
}
