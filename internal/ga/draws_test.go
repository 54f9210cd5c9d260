package ga

import (
	"testing"

	"trustgrid/internal/rng"
)

func sameResult(a, b Result) bool {
	if a.BestFitness != b.BestFitness || len(a.Best) != len(b.Best) || len(a.Trajectory) != len(b.Trajectory) {
		return false
	}
	for i := range a.Best {
		if a.Best[i] != b.Best[i] {
			return false
		}
	}
	for i := range a.Trajectory {
		if a.Trajectory[i] != b.Trajectory[i] {
			return false
		}
	}
	return true
}

// TestRNGVersionV2OperatorCombos smoke-runs the draw contract across
// every selection × crossover combination: all results must stay legal
// and the runs must not panic (the non-default operators draw from the
// same lanes).
func TestRNGVersionV2OperatorCombos(t *testing.T) {
	p := onesProblem(23, 4)
	for _, sel := range []SelectionMethod{RouletteSelection, TournamentSelection, RankSelection} {
		for _, cx := range []CrossoverMethod{SinglePointCrossover, TwoPointCrossover, UniformCrossover} {
			cfg := DefaultConfig()
			cfg.Generations = 10
			cfg.Selection = sel
			cfg.Crossover = cx
			res, err := Run(p, cfg, nil, rng.New(5))
			if err != nil {
				t.Fatalf("%v/%v: %v", sel, cx, err)
			}
			for i, g := range res.Best {
				if g < 0 || g >= 4 {
					t.Fatalf("%v/%v: illegal gene %d=%d", sel, cx, i, g)
				}
			}
		}
	}
}

// TestConfigValidateRNG accepts the one draw contract, spelled 0 or
// rng.V2, and refuses every other value: 1 (the removed v1) included.
func TestConfigValidateRNG(t *testing.T) {
	for _, v := range []rng.Version{0, rng.V2} {
		cfg := DefaultConfig()
		cfg.RNG = v
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Validate refused draw contract %d: %v", v, err)
		}
	}
	for _, v := range []rng.Version{1, 3, 7, -1} {
		cfg := DefaultConfig()
		cfg.RNG = v
		if err := cfg.Validate(); err == nil {
			t.Fatalf("Validate accepted draw contract %d", v)
		}
	}
}
