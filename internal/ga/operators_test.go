package ga

import (
	"testing"

	"trustgrid/internal/rng"
)

func TestSelectionMethodStrings(t *testing.T) {
	if RouletteSelection.String() != "roulette" ||
		TournamentSelection.String() != "tournament" ||
		RankSelection.String() != "rank" {
		t.Fatal("selection names wrong")
	}
	if SinglePointCrossover.String() != "single-point" ||
		TwoPointCrossover.String() != "two-point" ||
		UniformCrossover.String() != "uniform" {
		t.Fatal("crossover names wrong")
	}
}

func TestTournamentFavorsFit(t *testing.T) {
	r := rng.New(1)
	pop := []Chromosome{{0}, {1}}
	big := make([]Chromosome, 100)
	fit := make([]float64, 100)
	for i := range big {
		big[i] = pop[i%2]
		fit[i] = float64(1 + i%2*99) // even indices fit, odd unfit
	}
	picks := make([]int, 1000)
	selectTournament(fit, picks, r)
	fitCount := 0
	for _, src := range picks {
		if big[src][0] == 0 {
			fitCount++
		}
	}
	// P(all 3 samples unfit) = 1/8 → expect ≈ 875 fit picks.
	if fitCount < 800 {
		t.Fatalf("tournament picked fit individual only %d/1000", fitCount)
	}
}

func TestRankSelectionScaleInvariant(t *testing.T) {
	r1 := rng.New(7)
	r2 := rng.New(7)
	pop := []Chromosome{{0}, {1}, {2}, {3}}
	fitA := []float64{1, 2, 3, 4}
	fitB := []float64{1, 2000, 300000, 4e9} // same ranks, wild scale
	picksA := make([]int, 400)
	picksB := make([]int, 400)
	order, guide := make([]int, 4), make([]int, 4)
	weights, cum := make([]float64, 4), make([]float64, 4)
	selectRank(fitA, picksA, order, weights, cum, guide, r1)
	selectRank(fitB, picksB, order, weights, cum, guide, r2)
	for i := range picksA {
		if pop[picksA[i]][0] != pop[picksB[i]][0] {
			t.Fatal("rank selection must depend only on ranks")
		}
	}
}

func TestRankSelectionDistribution(t *testing.T) {
	r := rng.New(3)
	pop := []Chromosome{{0}, {1}, {2}, {3}}
	fit := []float64{10, 20, 30, 40}
	picks := make([]int, 10000)
	order, guide := make([]int, 4), make([]int, 4)
	weights, cum := make([]float64, 4), make([]float64, 4)
	selectRank(fit, picks, order, weights, cum, guide, r)
	counts := make([]int, 4)
	for _, src := range picks {
		counts[pop[src][0]]++
	}
	// Expected weights 4:3:2:1 → 4000, 3000, 2000, 1000.
	if counts[0] < 3600 || counts[3] > 1400 {
		t.Fatalf("rank weights off: %v", counts)
	}
	if !(counts[0] > counts[1] && counts[1] > counts[2] && counts[2] > counts[3]) {
		t.Fatalf("rank ordering violated: %v", counts)
	}
}

func TestTwoPointCrossoverPreservesMultiset(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 100; trial++ {
		a := Chromosome{1, 2, 3, 4, 5, 6}
		b := Chromosome{7, 8, 9, 10, 11, 12}
		crossoverTwoPoint(a, b, r)
		sum := 0
		for i := range a {
			sum += a[i] + b[i]
		}
		if sum != 78 {
			t.Fatalf("two-point crossover lost genes: %v %v", a, b)
		}
		// Positions outside the swapped segment keep their origin: each
		// column still holds {original a, original b} in some order.
		for i := range a {
			origA, origB := i+1, i+7
			if !(a[i] == origA && b[i] == origB || a[i] == origB && b[i] == origA) {
				t.Fatalf("column %d corrupted: %v %v", i, a, b)
			}
		}
	}
}

func TestUniformCrossoverColumns(t *testing.T) {
	r := rng.New(6)
	a := make(Chromosome, 1000)
	b := make(Chromosome, 1000)
	for i := range a {
		a[i] = 0
		b[i] = 1
	}
	crossoverUniform(a, b, r)
	swapped := 0
	for i := range a {
		if a[i] == 1 {
			swapped++
		}
		if a[i]+b[i] != 1 {
			t.Fatal("uniform crossover corrupted a column")
		}
	}
	if swapped < 400 || swapped > 600 {
		t.Fatalf("uniform crossover swapped %d/1000 columns, want ~500", swapped)
	}
}

func TestRunWithAllOperatorCombos(t *testing.T) {
	p := onesProblem(12, 3)
	for _, sel := range []SelectionMethod{RouletteSelection, TournamentSelection, RankSelection} {
		for _, cx := range []CrossoverMethod{SinglePointCrossover, TwoPointCrossover, UniformCrossover} {
			cfg := Config{
				PopulationSize: 30, Generations: 40,
				CrossoverProb: 0.8, MutationProb: 0.05,
				Selection: sel, Crossover: cx,
			}
			res, err := Run(p, cfg, nil, rng.New(9))
			if err != nil {
				t.Fatalf("%v/%v: %v", sel, cx, err)
			}
			// All combos must make clear progress on the trivial problem.
			if res.BestFitness > 4 {
				t.Fatalf("%v/%v stalled at fitness %v", sel, cx, res.BestFitness)
			}
			for i := 1; i < len(res.Trajectory); i++ {
				if res.Trajectory[i] > res.Trajectory[i-1] {
					t.Fatalf("%v/%v: elitism violated", sel, cx)
				}
			}
		}
	}
}
