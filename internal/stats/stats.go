package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation (0 for n < 2: one
// observation has no measured spread; see the package contract).
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// CI95 returns the half-width of an approximate 95% confidence interval
// for the mean (normal approximation; replication counts here are small
// so this is indicative, not inferential). 0 for n < 2, matching
// StdDev.
func CI95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return 1.96 * StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// TCI95 returns the half-width of the two-sided 95% Student-t
// confidence interval for the mean: t(0.975, n−1)·s/√n. Unlike CI95 it
// is exact for normal data at small n, which is what paired
// replications (Table 2's per-rep ratios) need. 0 for n < 2.
func TCI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return t975(n-1) * StdDev(xs) / math.Sqrt(float64(n))
}

// t975Table holds t(0.975, ν) for ν = 1..30.
var t975Table = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// t975 returns the 97.5th percentile of Student's t with ν degrees of
// freedom: tabulated to ν = 30, then the Cornish-Fisher expansion
// around z = 1.96, which is within 1e-4 of the exact value there.
func t975(nu int) float64 {
	if nu <= len(t975Table) {
		return t975Table[nu-1]
	}
	const z = 1.959964
	v := float64(nu)
	z3, z5, z7 := z*z*z, math.Pow(z, 5), math.Pow(z, 7)
	return z + (z3+z)/(4*v) + (5*z5+16*z3+3*z)/(96*v*v) + (3*z7+19*z5+17*z3-15*z)/(384*v*v*v)
}

// Min returns the minimum (NaN for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum (NaN for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median (NaN for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Percentile returns the p-th percentile (p in [0, 100]) of xs using
// linear interpolation between order statistics (NaN for empty input).
// The service layer uses it for scheduling-latency p50/p99 reports.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return PercentileOfSorted(s, p)
}

// PercentileOfSorted is Percentile over an already ascending-sorted
// slice, for callers reading several percentiles from one sort.
func PercentileOfSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// ArgMin returns the index of the smallest element (-1 for empty input).
func ArgMin(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// Sample accumulates replicated observations of one quantity.
type Sample struct {
	Values []float64
}

// Add appends an observation.
func (s *Sample) Add(v float64) { s.Values = append(s.Values, v) }

// Mean of the sample.
func (s *Sample) Mean() float64 { return Mean(s.Values) }

// CI95 half-width of the sample mean.
func (s *Sample) CI95() float64 { return CI95(s.Values) }

// String formats as "mean ± ci".
func (s *Sample) String() string {
	return fmt.Sprintf("%.4g ± %.2g", s.Mean(), s.CI95())
}

// HumanSeconds renders a duration in seconds with engineering-style
// grouping, e.g. "1.53e6 s (17.7 days)". The experiment tables use it so
// magnitudes are comparable to the paper's axes at a glance.
func HumanSeconds(sec float64) string {
	switch {
	case sec >= 36*3600:
		return fmt.Sprintf("%.3g s (%.1f days)", sec, sec/86400)
	case sec >= 3600:
		return fmt.Sprintf("%.3g s (%.1f h)", sec, sec/3600)
	default:
		return fmt.Sprintf("%.3g s", sec)
	}
}
