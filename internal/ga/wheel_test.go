package ga

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"trustgrid/internal/rng"
)

// refSelectRoulette is roulette selection as it was before the guide
// table: the same window-scaled weights, picked by a binary search over
// the cumulative wheel. It is the oracle the wheel must match draw for
// draw.
func refSelectRoulette(fit []float64, picks []int, r *rng.Stream) {
	n := len(fit)
	weights, cum := make([]float64, n), make([]float64, n)
	worst, best := fit[0], fit[0]
	for _, f := range fit {
		if !math.IsInf(f, 1) {
			worst = f
			break
		}
	}
	for _, f := range fit {
		if f > worst && !math.IsInf(f, 1) {
			worst = f
		}
		if f < best {
			best = f
		}
	}
	spread := worst - best
	floor := 0.1 * spread
	if spread == 0 {
		floor = 1
	}
	var total float64
	for i, f := range fit {
		w := 0.0
		if !math.IsInf(f, 1) {
			w = (worst - f) + floor
		}
		weights[i] = w
		total += w
	}
	if total <= 0 {
		for i := range weights {
			weights[i] = 1
		}
		total = float64(n)
	}
	acc := 0.0
	for i, w := range weights {
		acc += w
		cum[i] = acc
	}
	for i := 0; i < n; i++ {
		x := r.Float64() * total
		lo, hi := 0, n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		picks[i] = lo
	}
}

// refSelectRank is rank selection as it was before the guide table: the
// same insertion-sort ranking, picked by a linear scan per draw.
func refSelectRank(fit []float64, picks []int, r *rng.Stream) {
	n := len(fit)
	order, weights := make([]int, n), make([]float64, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ {
		for k := i; k > 0 && fit[order[k]] < fit[order[k-1]]; k-- {
			order[k], order[k-1] = order[k-1], order[k]
		}
	}
	for rank, idx := range order {
		weights[idx] = float64(n - rank)
	}
	total := float64(n) * float64(n+1) / 2
	for i := range picks {
		x := r.Float64() * total
		acc := 0.0
		chosen := n - 1
		for idx, w := range weights {
			acc += w
			if x < acc {
				chosen = idx
				break
			}
		}
		picks[i] = chosen
	}
}

// checkWheelMatchesReference runs both proportional operators and their
// references on fit from identical streams and fails on the first pick
// that differs.
func checkWheelMatchesReference(t *testing.T, name string, fit []float64, seed uint64) {
	t.Helper()
	n := len(fit)
	got, want := make([]int, n), make([]int, n)
	weights, cum := make([]float64, n), make([]float64, n)
	order, guide := make([]int, n), make([]int, n)

	selectRoulette(fit, got, weights, cum, guide, rng.New(seed))
	refSelectRoulette(fit, want, rng.New(seed))
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: roulette pick %d = %d, binary search gives %d", name, i, got[i], want[i])
		}
	}
	selectRank(fit, got, order, weights, cum, guide, rng.New(seed))
	refSelectRank(fit, want, rng.New(seed))
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: rank pick %d = %d, linear scan gives %d", name, i, got[i], want[i])
		}
	}
}

// adversarialFitness builds the named fitness vector of length n.
func adversarialFitness(kind string, n int, r *rng.Stream) []float64 {
	fit := make([]float64, n)
	for i := range fit {
		switch kind {
		case "random":
			fit[i] = 1e5 * (1 + 0.05*r.Float64())
		case "wide":
			fit[i] = math.Exp(40 * r.Float64())
		case "ties":
			fit[i] = float64(r.Intn(3))
		case "equal":
			fit[i] = 7
		case "inf":
			fit[i] = 100 + r.Float64()
			if r.Bool(0.3) {
				fit[i] = math.Inf(1)
			}
		case "survivor", "allinf":
			fit[i] = math.Inf(1)
		case "neginf":
			fit[i] = 100 + r.Float64()
			if i == n/2 {
				fit[i] = math.Inf(-1)
			}
		case "nan", "nan0":
			fit[i] = 100 + r.Float64()
			if r.Bool(0.1) {
				fit[i] = math.NaN()
			}
		case "huge":
			fit[i] = 1e300 * (1 + r.Float64())
		case "tiny":
			fit[i] = 1e-300 * (1 + r.Float64())
		case "subnormal":
			fit[i] = float64(r.Intn(4)) * 5e-324
		}
	}
	switch kind {
	case "survivor":
		fit[r.Intn(n)] = 42
	case "nan0":
		fit[0] = math.NaN()
	case "inf":
		fit[0] = math.Inf(1)
	}
	return fit
}

// TestWheelMatchesReference holds the guide-table wheel to the binary
// search and the linear rank scan it replaced, on the populations the GA
// meets and on the ones it should never meet: ties and all-equal fitness
// (floor = 1), +Inf individuals (weight 0) down to a single survivor,
// −Inf and NaN fitness, and totals near 1e±300 where the wheel's scale
// overflows and every walk starts at index 0.
func TestWheelMatchesReference(t *testing.T) {
	kinds := []string{"random", "wide", "ties", "equal", "inf", "survivor", "allinf",
		"neginf", "nan", "nan0", "huge", "tiny", "subnormal"}
	for _, n := range []int{2, 3, 200, 4096} {
		for _, kind := range kinds {
			seeds := 20
			if n == 4096 {
				seeds = 2
			}
			for s := 0; s < seeds; s++ {
				seed := uint64(1000*n + s)
				fit := adversarialFitness(kind, n, rng.New(seed).Derive(kind))
				checkWheelMatchesReference(t, kind, fit, seed)
			}
		}
	}
}

// FuzzSelectionWheel holds the wheel to the references on arbitrary
// populations. raw[0] picks the decoding: even reads one fitness per
// byte (many ties; 253–255 are −Inf, NaN and +Inf), odd reads the rest
// as little-endian float64 bit patterns (every exponent, NaN payloads,
// subnormals). Populations run from 2 to 4096 individuals.
func FuzzSelectionWheel(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, seed uint64) {
		if len(raw) < 2 {
			return
		}
		mode, body := raw[0], raw[1:]
		var fit []float64
		if mode%2 == 0 {
			for _, b := range body {
				v := float64(b)
				switch b {
				case 253:
					v = math.Inf(-1)
				case 254:
					v = math.NaN()
				case 255:
					v = math.Inf(1)
				}
				fit = append(fit, v)
			}
		} else {
			for ; len(body) >= 8; body = body[8:] {
				fit = append(fit, math.Float64frombits(binary.LittleEndian.Uint64(body)))
			}
		}
		if len(fit) < 2 || len(fit) > 4096 {
			return
		}
		checkWheelMatchesReference(t, "fuzz", fit, seed)
	})
}

// TestRouletteIgnoresWhereInfSits: an infinitely unfit individual takes
// no share of the wheel and no part in the window scaling, whatever its
// index. With {10, 20, 30, 40} the window gives weights 33:23:13:3. It
// used to seed the window's worst value from fit[0] unguarded, so an
// +Inf there made every weight +Inf and every pick the first finite
// individual.
func TestRouletteIgnoresWhereInfSits(t *testing.T) {
	vals := []float64{10, 20, 30, 40}
	want := map[float64]float64{10: 33.0 / 72, 20: 23.0 / 72, 30: 13.0 / 72, 40: 3.0 / 72}
	for pos := 0; pos <= len(vals); pos++ {
		fit := append(append(append([]float64{}, vals[:pos]...), math.Inf(1)), vals[pos:]...)
		n := len(fit)
		picks, guide := make([]int, n), make([]int, n)
		weights, cum := make([]float64, n), make([]float64, n)
		r := rng.New(5)
		counts := map[float64]int{}
		const rounds = 4000
		for k := 0; k < rounds; k++ {
			selectRoulette(fit, picks, weights, cum, guide, r)
			for _, p := range picks {
				counts[fit[p]]++
			}
		}
		if c := counts[math.Inf(1)]; c != 0 {
			t.Errorf("+Inf at %d picked %d times", pos, c)
		}
		for v, share := range want {
			if got := float64(counts[v]) / (rounds * float64(n)); math.Abs(got-share) > 0.02 {
				t.Errorf("+Inf at %d: fitness %v drew %.3f of the picks, want %.3f", pos, v, got, share)
			}
		}
	}
}

// TestRunAllocsIndependentOfGenerations pins the allocation-free
// generation loop: whatever Run allocates, it allocates up front, so one
// generation and forty cost the same number of allocations, under every
// selection operator.
func TestRunAllocsIndependentOfGenerations(t *testing.T) {
	p := onesProblem(20, 4)
	for _, sel := range []SelectionMethod{RouletteSelection, TournamentSelection, RankSelection} {
		allocs := func(gens int) float64 {
			cfg := DefaultConfig()
			cfg.PopulationSize, cfg.Generations = 50, gens
			cfg.Selection, cfg.Workers = sel, 1
			return testing.AllocsPerRun(5, func() {
				if _, err := Run(p, cfg, nil, rng.New(1)); err != nil {
					t.Fatal(err)
				}
			})
		}
		if one, forty := allocs(1), allocs(40); one != forty {
			t.Errorf("%v: %v allocations at 1 generation, %v at 40", sel, one, forty)
		}
	}
}

// TestEmptySeedSkipped: an empty seed carries no genes to adapt, so Run
// skips it and the run is the one without it (tiling it used to divide by
// its zero length).
func TestEmptySeedSkipped(t *testing.T) {
	p := onesProblem(10, 3)
	cfg := DefaultConfig()
	cfg.Generations = 5
	seed := Chromosome{0, 0, 0}
	for _, tc := range []struct {
		name        string
		with, alone []Chromosome
	}{
		{"only", []Chromosome{{}}, nil},
		{"nil", []Chromosome{nil}, nil},
		{"mixed", []Chromosome{{}, seed, {}}, []Chromosome{seed}},
	} {
		want, err := Run(p, cfg, tc.alone, rng.New(12))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(p, cfg, tc.with, rng.New(12))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !sameResult(want, got) {
			t.Errorf("%s: empty seeds changed the run", tc.name)
		}
	}
}

// TestConfigValidateMethods: Run used to run roulette and single-point
// crossover for any value it did not know.
func TestConfigValidateMethods(t *testing.T) {
	for _, tc := range []struct {
		sel     SelectionMethod
		cx      CrossoverMethod
		wantErr string // "" when valid
	}{
		{RouletteSelection, SinglePointCrossover, ""},
		{TournamentSelection, TwoPointCrossover, ""},
		{RankSelection, UniformCrossover, ""},
		{SelectionMethod(3), SinglePointCrossover, "SelectionMethod(3)"},
		{SelectionMethod(-1), SinglePointCrossover, "SelectionMethod(-1)"},
		{RouletteSelection, CrossoverMethod(3), "CrossoverMethod(3)"},
		{RankSelection, CrossoverMethod(-2), "CrossoverMethod(-2)"},
	} {
		cfg := DefaultConfig()
		cfg.Selection, cfg.Crossover = tc.sel, tc.cx
		err := cfg.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%v/%v rejected: %v", tc.sel, tc.cx, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%v/%v: error %v, want one naming %s", tc.sel, tc.cx, err, tc.wantErr)
		}
		if _, err := Run(onesProblem(4, 2), cfg, nil, rng.New(1)); err == nil {
			t.Errorf("%v/%v: Run accepted the config", tc.sel, tc.cx)
		}
	}
}
