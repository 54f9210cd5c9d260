package stga

import (
	"fmt"
	"math"
	"testing"

	"trustgrid/internal/ga"
	"trustgrid/internal/rng"
)

// floorRound draws an m-site, n-job round: positive ETCs on a per-case
// scale (the smallest subnormal and MaxFloat64 mixed in), finite bases
// that may be negative, and a non-empty random allowed set per job.
func floorRound(r *rng.Stream, m, n int) (base, etc []float64, allowed [][]int) {
	etcScale, baseScale := math.Ldexp(1, r.Intn(40)-10), math.Ldexp(1, r.Intn(40)-10)
	etc = make([]float64, n*m)
	for i := range etc {
		switch r.Intn(32) {
		case 0:
			etc[i] = math.SmallestNonzeroFloat64
		case 1:
			etc[i] = math.MaxFloat64
		default:
			etc[i] = (0.001 + r.Float64()) * etcScale
		}
	}
	base = make([]float64, m)
	for i := range base {
		base[i] = r.Float64() * baseScale
		if r.Intn(4) == 0 {
			base[i] = -base[i]
		}
	}
	allowed = make([][]int, n)
	for j := range allowed {
		for s := 0; s < m; s++ {
			if r.Intn(2) == 0 {
				allowed[j] = append(allowed[j], s)
			}
		}
		if len(allowed[j]) == 0 {
			allowed[j] = []int{r.Intn(m)}
		}
	}
	return base, etc, allowed
}

// checkFloor scores pop through the scalar decode and through the
// round's scorer (decode4 where the CPU has it and m ≤ 12) and returns
// the lowest score, or what broke the floor.
func checkFloor(m int, base, etc []float64, floor float64, pop []ga.Chromosome) (lowest float64, err string) {
	idx := make([]int, len(pop))
	for i := range idx {
		idx[i] = i
	}
	fit := make([]float64, len(pop))
	var d decoder
	d.scorers(m, base, etc)().Score(pop, idx, fit)
	scalar := makespanFitness(m, base, etc)
	lowest = math.Inf(1)
	for i, c := range pop {
		for _, f := range []float64{scalar(c), fit[i]} {
			if f < floor {
				return 0, fmt.Sprintf("chromosome %v scored %v (%s decode), below the floor %v", c, f, DecodeKernel(), floor)
			}
			lowest = min(lowest, f)
		}
	}
	return lowest, ""
}

// badFloorInputs are the values that leave a round without a floor:
// non-positive or non-finite ETCs in an allowed cell, non-finite bases.
var badFloorInputs = []struct {
	v      float64
	inBase bool
}{
	{0, false}, {math.Copysign(0, -1), false}, {-1, false},
	{math.Copysign(math.SmallestNonzeroFloat64, -1), false},
	{math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false},
	{math.NaN(), true}, {math.Inf(1), true}, {math.Inf(-1), true},
}

// FuzzSpanFloor holds spanFloor to its contract on fuzzed rounds of
// 1–16 sites and 1–48 jobs: no legal chromosome — random ones, and each
// job on its cheapest site, the likeliest to meet the floor — scores
// below the floor through either decode. A non-zero mode plants one
// input outside the floor's domain (a zero, negative, NaN or infinite
// allowed ETC, or a non-finite base), which must leave no floor.
func FuzzSpanFloor(f *testing.F) {
	for i, c := range []struct{ m, n uint8 }{{12, 21}, {1, 1}, {3, 40}, {16, 8}, {12, 1}, {5, 5}} {
		f.Add(uint64(i+1), c.m-1, c.n-1, uint8(0))
	}
	for mode := range badFloorInputs {
		f.Add(uint64(100+mode), uint8(11), uint8(20), uint8(mode+1))
	}
	f.Fuzz(func(t *testing.T, seed uint64, mRaw, nRaw, modeRaw uint8) {
		m, n := 1+int(mRaw)%16, 1+int(nRaw)%48
		mode := int(modeRaw) % (len(badFloorInputs) + 1)
		r := rng.New(seed)
		base, etc, allowed := floorRound(r, m, n)
		if mode > 0 {
			bad := badFloorInputs[mode-1]
			if bad.inBase {
				base[r.Intn(m)] = bad.v
			} else {
				j := r.Intn(n)
				etc[j*m+allowed[j][r.Intn(len(allowed[j]))]] = bad.v
			}
			if floor, ok := spanFloor(m, allowed, base, etc); ok {
				t.Fatalf("seed=%d m=%d n=%d: planted %v (base: %v) yet got floor %v", seed, m, n, bad.v, bad.inBase, floor)
			}
			return
		}
		floor, ok := spanFloor(m, allowed, base, etc)
		if !ok {
			// Only an overflowing sum (MaxFloat64 ETCs) leaves an
			// in-domain round without a finite floor.
			return
		}
		pop := make([]ga.Chromosome, 9)
		for i := range pop {
			pop[i] = make(ga.Chromosome, n)
			for j, a := range allowed {
				pop[i][j] = a[r.Intn(len(a))]
			}
		}
		for j, a := range allowed {
			for _, s := range a {
				if base[s]+etc[j*m+s] < base[pop[0][j]]+etc[j*m+pop[0][j]] {
					pop[0][j] = s
				}
			}
		}
		defer func(v bool) { useDecodeKernel = v }(useDecodeKernel)
		for _, on := range decodePaths() {
			useDecodeKernel = on
			if _, err := checkFloor(m, base, etc, floor, pop); err != "" {
				t.Fatalf("seed=%d m=%d n=%d: %s", seed, m, n, err)
			}
		}
	})
}

// TestSpanFloorBruteForce enumerates every legal schedule of tiny
// rounds (n ≤ 6 jobs, m ≤ 4 sites) and holds the best of them, through
// either decode, to at least the floor. Some rounds meet it exactly,
// which is what lets a GA round stop there.
func TestSpanFloorBruteForce(t *testing.T) {
	met := 0
	for seed := uint64(1); seed <= 300; seed++ {
		r := rng.New(seed)
		m, n := 1+r.Intn(4), 1+r.Intn(6)
		base, etc, allowed := floorRound(r, m, n)
		floor, ok := spanFloor(m, allowed, base, etc)
		if !ok {
			continue
		}
		var pop []ga.Chromosome
		c := make(ga.Chromosome, n)
		pick := make([]int, n) // odometer over the allowed sets
		for {
			for j := range c {
				c[j] = allowed[j][pick[j]]
			}
			pop = append(pop, c.Clone())
			j := 0
			for ; j < n; j++ {
				if pick[j]++; pick[j] < len(allowed[j]) {
					break
				}
				pick[j] = 0
			}
			if j == n {
				break
			}
		}
		forEachDecodePath(t, func(t *testing.T) {
			lowest, err := checkFloor(m, base, etc, floor, pop)
			if err != "" {
				t.Fatalf("seed %d (m=%d n=%d): %s", seed, m, n, err)
			}
			if lowest == floor && !useDecodeKernel {
				met++
			}
		})
	}
	if met == 0 {
		t.Fatal("no round's optimum met its floor: the bound was never tight")
	}
}
