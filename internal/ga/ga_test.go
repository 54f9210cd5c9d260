package ga

import (
	"math"
	"testing"
	"testing/quick"

	"trustgrid/internal/rng"
)

// onesProblem: fitness counts non-zero genes; optimum is all zeros.
func onesProblem(length, numValues int) *Problem {
	allowed := make([][]int, length)
	for i := range allowed {
		vals := make([]int, numValues)
		for v := range vals {
			vals[v] = v
		}
		allowed[i] = vals
	}
	return &Problem{
		Length:  length,
		Allowed: allowed,
		Fitness: func(c Chromosome) float64 {
			n := 0.0
			for _, g := range c {
				if g != 0 {
					n++
				}
			}
			return n
		},
	}
}

func TestRunFindsEasyOptimum(t *testing.T) {
	p := onesProblem(12, 3)
	cfg := DefaultConfig()
	cfg.Generations = 150
	cfg.MutationProb = 0.3 // small problem: strong mutation finds optimum
	res, err := Run(p, cfg, nil, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness > 1 {
		t.Fatalf("GA best fitness %v, want <= 1 on trivial problem", res.BestFitness)
	}
}

func TestTrajectoryMonotoneWithElitism(t *testing.T) {
	p := onesProblem(20, 4)
	cfg := DefaultConfig()
	cfg.Generations = 60
	res, err := Run(p, cfg, nil, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) != 61 {
		t.Fatalf("trajectory length %d, want generations+1", len(res.Trajectory))
	}
	for i := 1; i < len(res.Trajectory); i++ {
		if res.Trajectory[i] > res.Trajectory[i-1] {
			t.Fatalf("best fitness regressed at generation %d: %v -> %v",
				i, res.Trajectory[i-1], res.Trajectory[i])
		}
	}
}

func TestSeedsImproveStart(t *testing.T) {
	p := onesProblem(30, 5)
	cfg := DefaultConfig()
	cfg.Generations = 0 // only the initial population matters

	cold, err := Run(p, cfg, nil, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	optimal := make(Chromosome, 30) // all zeros
	warm, err := Run(p, cfg, []Chromosome{optimal}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if warm.BestFitness != 0 {
		t.Fatalf("seeded run lost the seed: best %v", warm.BestFitness)
	}
	if cold.BestFitness <= warm.BestFitness {
		t.Fatalf("cold start (%v) should start worse than seeded (%v)",
			cold.BestFitness, warm.BestFitness)
	}
}

func TestSeedLengthAdaptation(t *testing.T) {
	p := onesProblem(10, 3)
	cfg := DefaultConfig()
	cfg.Generations = 0
	short := Chromosome{0, 0, 0} // tiles to length 10
	long := make(Chromosome, 25) // truncates
	res, err := Run(p, cfg, []Chromosome{short, long}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness != 0 {
		t.Fatalf("adapted all-zero seeds should be optimal, got %v", res.BestFitness)
	}
}

func TestRepairClampsIllegalGenes(t *testing.T) {
	p := onesProblem(5, 2) // allowed {0,1}
	c := Chromosome{7, -1, 0, 1, 99}
	p.Repair(c, rng.New(5))
	for i, g := range c {
		if g != 0 && g != 1 {
			t.Fatalf("gene %d still illegal after repair: %d", i, g)
		}
	}
	if c[2] != 0 || c[3] != 1 {
		t.Fatal("repair must not disturb legal genes")
	}
}

// Property: every chromosome the GA ever returns respects the per-gene
// allowed sets, even with hostile seeds.
func TestValidityInvariantProperty(t *testing.T) {
	r := rng.New(6)
	check := func(a, b uint8) bool {
		length := int(a%15) + 2
		numVals := int(b%4) + 2
		p := onesProblem(length, numVals)
		// Restrict some genes to odd subsets to stress Repair and mutate.
		for i := range p.Allowed {
			if i%3 == 0 {
				p.Allowed[i] = []int{numVals - 1}
			}
		}
		seed := make(Chromosome, length)
		for i := range seed {
			seed[i] = 1000 // illegal everywhere
		}
		cfg := Config{PopulationSize: 20, Generations: 10,
			CrossoverProb: 0.9, MutationProb: 0.5, Elitism: true}
		res, err := Run(p, cfg, []Chromosome{seed}, r.Derive("q"))
		if err != nil {
			return false
		}
		for i, g := range res.Best {
			ok := false
			for _, v := range p.Allowed[i] {
				if g == v {
					ok = true
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{PopulationSize: 1, Generations: 1, CrossoverProb: 0.5, MutationProb: 0.5},
		{PopulationSize: 10, Generations: -1, CrossoverProb: 0.5, MutationProb: 0.5},
		{PopulationSize: 10, Generations: 1, CrossoverProb: 1.5, MutationProb: 0.5},
		{PopulationSize: 10, Generations: 1, CrossoverProb: 0.5, MutationProb: -0.1},
		{PopulationSize: 10, Generations: 1, CrossoverProb: math.NaN(), MutationProb: 0.5},
		{PopulationSize: 10, Generations: 1, CrossoverProb: 0.5, MutationProb: math.NaN()},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestProblemValidate(t *testing.T) {
	p := &Problem{Length: 2, Allowed: [][]int{{0}, {}}, Fitness: func(Chromosome) float64 { return 0 }}
	if err := p.Validate(); err == nil {
		t.Fatal("empty allowed set should fail")
	}
	p2 := &Problem{Length: 2, Allowed: [][]int{{0}}, Fitness: func(Chromosome) float64 { return 0 }}
	if err := p2.Validate(); err == nil {
		t.Fatal("mismatched allowed length should fail")
	}
	p3 := onesProblem(3, 2)
	p3.Fitness = nil
	if err := p3.Validate(); err == nil {
		t.Fatal("nil fitness should fail")
	}
}

func TestDeterministicRuns(t *testing.T) {
	p := onesProblem(15, 4)
	cfg := DefaultConfig()
	cfg.Generations = 20
	a, _ := Run(p, cfg, nil, rng.New(42))
	b, _ := Run(p, cfg, nil, rng.New(42))
	if a.BestFitness != b.BestFitness {
		t.Fatal("GA runs with equal seeds diverged")
	}
	for i := range a.Best {
		if a.Best[i] != b.Best[i] {
			t.Fatal("GA best chromosomes with equal seeds diverged")
		}
	}
}

func TestCrossoverPreservesLengthAndGenes(t *testing.T) {
	r := rng.New(7)
	a := Chromosome{1, 2, 3, 4, 5}
	b := Chromosome{6, 7, 8, 9, 10}
	crossover(a, b, r)
	if len(a) != 5 || len(b) != 5 {
		t.Fatal("crossover changed length")
	}
	// Multiset union preserved.
	sum := 0
	for i := range a {
		sum += a[i] + b[i]
	}
	if sum != 55 {
		t.Fatalf("crossover lost genes: %v %v", a, b)
	}
}

func TestCrossoverLengthOneNoop(t *testing.T) {
	r := rng.New(8)
	a, b := Chromosome{1}, Chromosome{2}
	crossover(a, b, r)
	if a[0] != 1 || b[0] != 2 {
		t.Fatal("length-1 crossover must be a no-op")
	}
}

func TestRouletteFavorsFit(t *testing.T) {
	r := rng.New(9)
	pop := []Chromosome{{0}, {1}}
	fit := []float64{1, 100} // chromosome 0 is 100× fitter
	// Run selection over a large sample.
	big := make([]Chromosome, 1000)
	bigFit := make([]float64, 1000)
	for i := range big {
		big[i] = pop[i%2]
		bigFit[i] = fit[i%2]
	}
	picks := make([]int, 1000)
	weights := make([]float64, 1000)
	cum := make([]float64, 1000)
	guide := make([]int, 1000)
	selectRoulette(bigFit, picks, weights, cum, guide, r)
	zeros := 0
	for _, src := range picks {
		if big[src][0] == 0 {
			zeros++
		}
	}
	if zeros < 850 {
		t.Fatalf("roulette picked the fit individual only %d/1000 times", zeros)
	}
}

func TestInfiniteFitnessHandled(t *testing.T) {
	p := onesProblem(4, 2)
	orig := p.Fitness
	p.Fitness = func(c Chromosome) float64 {
		if c[0] == 1 {
			return math.Inf(1)
		}
		return orig(c)
	}
	res, err := Run(p, Config{PopulationSize: 30, Generations: 20,
		CrossoverProb: 0.8, MutationProb: 0.2, Elitism: true}, nil, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.BestFitness, 1) || math.IsNaN(res.BestFitness) {
		t.Fatalf("GA returned non-finite best fitness %v", res.BestFitness)
	}
}

func TestZeroGenerations(t *testing.T) {
	p := onesProblem(5, 2)
	res, err := Run(p, Config{PopulationSize: 10, Generations: 0,
		CrossoverProb: 0.8, MutationProb: 0.01, Elitism: true}, nil, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) != 1 {
		t.Fatalf("trajectory length %d, want 1", len(res.Trajectory))
	}
	if res.Best == nil {
		t.Fatal("zero-generation run must still report the initial best")
	}
}

func BenchmarkGAGeneration(b *testing.B) {
	// One generation on a realistic batch: 50 jobs × 20 sites, pop 200.
	p := onesProblem(50, 20)
	cfg := DefaultConfig()
	cfg.Generations = 1
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, cfg, nil, r); err != nil {
			b.Fatal(err)
		}
	}
}
