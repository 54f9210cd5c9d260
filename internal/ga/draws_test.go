package ga

import (
	"testing"

	"trustgrid/internal/rng"
)

func runOnes(t *testing.T, cfg Config, seed uint64) Result {
	t.Helper()
	p := onesProblem(37, 5)
	// A deliberately bad seed (all genes non-zero): the run has real
	// optimization to do, so trajectories discriminate draw sequences.
	bad := make(Chromosome, 37)
	for i := range bad {
		bad[i] = 1 + i%4
	}
	res, err := Run(p, cfg, []Chromosome{bad}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

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

// TestRNGVersionV1IsDefault pins the compatibility contract: the zero
// value, explicit rng.V1 and the user-facing spelling Version(1) all
// run the original serial draw path and produce byte-identical results.
// Every pre-versioning golden in the repository depends on this.
func TestRNGVersionV1IsDefault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Generations = 30
	base := runOnes(t, cfg, 99)
	for _, v := range []rng.Version{rng.V1, rng.Version(1)} {
		c := cfg
		c.RNG = v
		if got := runOnes(t, c, 99); !sameResult(base, got) {
			t.Fatalf("RNG=%d diverged from the default path", int(v))
		}
	}
}

// TestRNGVersionV2Deterministic checks v2 is a real, reproducible
// contract: same seed same result, and a different sequence from v1
// (if v2 ever silently fell back to the serial path, the second check
// would trip long before a fleet mixed the two).
func TestRNGVersionV2Deterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Generations = 30
	cfg.RNG = rng.V2
	a := runOnes(t, cfg, 7)
	b := runOnes(t, cfg, 7)
	if !sameResult(a, b) {
		t.Fatal("v2 run is not deterministic under a fixed seed")
	}
	v1cfg := cfg
	v1cfg.RNG = rng.V1
	if sameResult(a, runOnes(t, v1cfg, 7)) {
		t.Fatal("v2 produced the v1 sequence; the lanes are not engaged")
	}
}

// TestRNGVersionV2OperatorCombos smoke-runs v2 across every selection ×
// crossover combination: all results must stay legal and the runs must
// not panic (the non-default operators draw from the same lanes).
func TestRNGVersionV2OperatorCombos(t *testing.T) {
	p := onesProblem(23, 4)
	for _, sel := range []SelectionMethod{RouletteSelection, TournamentSelection, RankSelection} {
		for _, cx := range []CrossoverMethod{SinglePointCrossover, TwoPointCrossover, UniformCrossover} {
			cfg := DefaultConfig()
			cfg.Generations = 10
			cfg.RNG = rng.V2
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

// TestConfigValidateRNG rejects unknown draw versions.
func TestConfigValidateRNG(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RNG = rng.Version(7)
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted unknown rng version 7")
	}
}
