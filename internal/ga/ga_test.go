package ga

import (
	"math"
	"runtime"
	"slices"
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

func TestTrajectoryMonotone(t *testing.T) {
	p := onesProblem(20, 4)
	cfg := DefaultConfig()
	cfg.Generations = 60
	res, err := Run(p, cfg, nil, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != 60 || len(res.Trajectory) != res.Generations+1 {
		t.Fatalf("trajectory length %d over %d generations, want 60+1", len(res.Trajectory), res.Generations)
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
			CrossoverProb: 0.9, MutationProb: 0.5}
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
		{PopulationSize: 10, Generations: 1, CrossoverProb: 0.5, MutationProb: 0.5, Stall: -1},
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
		CrossoverProb: 0.8, MutationProb: 0.2}, nil, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.BestFitness, 1) || math.IsNaN(res.BestFitness) {
		t.Fatalf("GA returned non-finite best fitness %v", res.BestFitness)
	}
}

// loadProblem is a small makespan problem: gene i puts job i (random
// length) on one of m machines, fitness is the largest machine load.
// Its best fitness improves in steps with flat stretches between them,
// which is what a stall rule reads.
func loadProblem(n, m int, seed uint64) *Problem {
	size := loadSizes(n, seed)
	allowed := make([][]int, n)
	for i := range allowed {
		for v := 0; v < m; v++ {
			allowed[i] = append(allowed[i], v)
		}
	}
	return &Problem{Length: n, Allowed: allowed, Fitness: func(c Chromosome) float64 {
		load := make([]float64, m)
		for i, site := range c {
			load[site] += size[i]
		}
		worst := 0.0
		for _, l := range load {
			worst = max(worst, l)
		}
		return worst
	}}
}

// loadSizes draws loadProblem's job sizes.
func loadSizes(n int, seed uint64) []float64 {
	r := rng.New(seed)
	size := make([]float64, n)
	for i := range size {
		size[i] = 1 + 9*r.Float64()
	}
	return size
}

// TestFloorStopKeepsResult: a Stall run given a floor (loadProblem's
// largest job, which no site's load can undercut) returns the Best and
// BestFitness of the same run without it. Its trajectory is a prefix of
// that run's and ends at the first generation on the floor; a seed on
// the floor ends it before any random draw. Stall 0 ignores the floor.
func TestFloorStopKeepsResult(t *testing.T) {
	var atSeeds, midRun, notReached int
	for seed := uint64(1); seed <= 24; seed++ {
		n, m := 8, 4+int(seed%5)
		p := loadProblem(n, m, seed)
		floor := 0.0
		for _, sz := range loadSizes(n, seed) {
			floor = max(floor, sz)
		}
		var seeds []Chromosome
		if seed%3 == 0 && m >= n {
			// One job per site: every load is one job's size, so the
			// second seed scores the floor and the first does not.
			id := make(Chromosome, n)
			for i := range id {
				id[i] = i
			}
			seeds = append(seeds, make(Chromosome, n), id)
		} else if seed%3 == 1 {
			seeds = append(seeds, make(Chromosome, n)) // all on site 0
		}
		cfg := DefaultConfig()
		cfg.PopulationSize, cfg.Generations, cfg.Stall = 16, 60, 10
		want, err := Run(p, cfg, seeds, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		fp := *p
		fp.Floor = floor
		got, err := Run(&fp, cfg, seeds, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if want.FloorStop {
			t.Fatalf("seed %d: a run without a floor reported a floor stop", seed)
		}
		if got.BestFitness != want.BestFitness || !slices.Equal(got.Best, want.Best) {
			t.Fatalf("seed %d: floored run's best %v (%v), unfloored %v (%v)", seed, got.Best, got.BestFitness, want.Best, want.BestFitness)
		}
		if len(got.Trajectory) > len(want.Trajectory) || !slices.Equal(got.Trajectory, want.Trajectory[:len(got.Trajectory)]) {
			t.Fatalf("seed %d: floored trajectory %v is not a prefix of %v", seed, got.Trajectory, want.Trajectory)
		}
		stop := slices.IndexFunc(want.Trajectory, func(f float64) bool { return f <= floor })
		switch {
		case stop < 0:
			notReached++
			if got.FloorStop || got.Generations != want.Generations || got.Evaluations != want.Evaluations {
				t.Fatalf("seed %d: the floor was never reached, yet the run changed", seed)
			}
		case !got.FloorStop || got.Generations != stop || got.Evaluations > want.Evaluations:
			t.Fatalf("seed %d: stopped after %d generations (floor stop %v), want a floor stop at %d",
				seed, got.Generations, got.FloorStop, stop)
		case got.Evaluations < cfg.PopulationSize:
			atSeeds++
			if got.Evaluations != len(seeds) {
				t.Fatalf("seed %d: a stop at the seeds scored %d, want the %d seeds", seed, got.Evaluations, len(seeds))
			}
		case stop > 0:
			midRun++
		}

		cfg.Stall = 0
		fixed, err := Run(p, cfg, seeds, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		ignored, err := Run(&fp, cfg, seeds, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(ignored, fixed) || ignored.Evaluations != fixed.Evaluations || ignored.FloorStop {
			t.Fatalf("seed %d: Stall 0 consulted the floor", seed)
		}
	}
	if atSeeds == 0 || midRun == 0 || notReached == 0 {
		t.Fatalf("floor stops at the seeds %d, mid-run %d, never reached %d: a case went unexercised", atSeeds, midRun, notReached)
	}
}

// TestSeedStopAllocs: a run that ends at its seed checkpoint, on the
// floor or on a proof, allocates less than one population-sized
// fitness vector per run (8 B × 200), with the serial scorer and with
// a 2-worker pool configured: it builds no population-sized scratch,
// no pool and no lane it does not draw from.
func TestSeedStopAllocs(t *testing.T) {
	const n, m, runs = 21, 12, 50
	p := onesProblem(n, m)
	ones := p.Fitness
	p.Fitness = func(c Chromosome) float64 { return 1 + ones(c) }
	p.NewScorer = func() Scorer { return p.Fitness }
	seeds := []Chromosome{make(Chromosome, n)} // all zeros: fitness 1
	cfg := DefaultConfig()
	cfg.Stall = 10
	limit := uint64(8 * cfg.PopulationSize)
	for _, stop := range []string{"floor", "proof"} {
		q := *p
		if stop == "floor" {
			q.Floor = 1
		} else {
			q.Prove = func(float64) bool { return true }
		}
		for _, workers := range []int{1, 2} {
			cfg.Workers = workers
			r := rng.New(1)
			run := func() {
				res, err := Run(&q, cfg, seeds, r)
				if err != nil || res.BestFitness != 1 || res.Evaluations != 1 || !res.FloorStop && !res.ProvedStop {
					t.Fatalf("%s stop, workers %d: %+v, %v", stop, workers, res, err)
				}
			}
			run()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				run()
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= limit {
				t.Errorf("%s stop, workers %d: %d B allocated per run, want < %d", stop, workers, per, limit)
			}
		}
	}
}

// loadOptimum enumerates every chromosome of a loadProblem and returns
// the best fitness and its first chromosome.
func loadOptimum(p *Problem, m int) (float64, Chromosome) {
	c := make(Chromosome, p.Length)
	best, bestC := math.Inf(1), Chromosome(nil)
	for {
		if f := p.Fitness(c); f < best {
			best, bestC = f, c.Clone()
		}
		i := 0
		for ; i < len(c); i++ {
			if c[i]++; c[i] < m {
				break
			}
			c[i] = 0
		}
		if i == len(c) {
			return best, bestC
		}
	}
}

// TestProveStopKeepsResult: a Stall run given an exact Prove hook
// returns the Best and BestFitness of the same run without it, its
// trajectory a prefix of that run's. The hook is consulted on the
// seeds' best and on the initial population's, never again; a proof at
// the seeds scores only the seeds, one at the initial population runs
// no generation. Stall 0 never calls the hook.
func TestProveStopKeepsResult(t *testing.T) {
	var atSeeds, atInit, notProved int
	for seed := uint64(1); seed <= 30; seed++ {
		n, m := 6, 2+int(seed%3)
		p := loadProblem(n, m, seed)
		opt, optC := loadOptimum(p, m)
		var seeds []Chromosome
		refuseFirst := false
		switch seed % 3 {
		case 0: // the second seed is optimal: proved at the seeds
			seeds = []Chromosome{make(Chromosome, n), optC}
		case 1: // an optimal seed the hook declines once: proved at the initial population
			seeds, refuseFirst = []Chromosome{optC}, true
		}
		var calls int
		pp := *p
		pp.Prove = func(best float64) bool {
			calls++
			if best < opt {
				t.Fatalf("seed %d: asked to prove %v, below the optimum %v", seed, best, opt)
			}
			return best == opt && !(refuseFirst && calls == 1)
		}
		cfg := DefaultConfig()
		cfg.PopulationSize, cfg.Generations, cfg.Stall = 16, 60, 10
		want, err := Run(p, cfg, seeds, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(&pp, cfg, seeds, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if got.BestFitness != want.BestFitness || !slices.Equal(got.Best, want.Best) {
			t.Fatalf("seed %d: proved run's best %v (%v), unproved %v (%v)", seed, got.Best, got.BestFitness, want.Best, want.BestFitness)
		}
		if len(got.Trajectory) > len(want.Trajectory) || !slices.Equal(got.Trajectory, want.Trajectory[:len(got.Trajectory)]) {
			t.Fatalf("seed %d: proved trajectory %v is not a prefix of %v", seed, got.Trajectory, want.Trajectory)
		}
		if want.ProvedStop || got.FloorStop || calls > 2 {
			t.Fatalf("seed %d: unproved run's proved stop %v, floor stop %v, %d hook calls", seed, want.ProvedStop, got.FloorStop, calls)
		}
		switch {
		case !got.ProvedStop:
			notProved++
			if want.Trajectory[0] == opt || !sameResult(got, want) || got.Evaluations != want.Evaluations {
				t.Fatalf("seed %d: no proof, yet the run changed or its initial best %v was the optimum", seed, want.Trajectory[0])
			}
		case got.Generations != 0 || len(got.Trajectory) != 1:
			t.Fatalf("seed %d: a proved run ran %d generations", seed, got.Generations)
		case got.Evaluations == len(seeds):
			atSeeds++
		case got.Evaluations == cfg.PopulationSize:
			atInit++
		default:
			t.Fatalf("seed %d: a proved run scored %d chromosomes", seed, got.Evaluations)
		}

		cfg.Stall, calls = 0, 0
		fixed, err := Run(p, cfg, seeds, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		ignored, err := Run(&pp, cfg, seeds, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if calls != 0 || !sameResult(ignored, fixed) || ignored.Evaluations != fixed.Evaluations || ignored.ProvedStop {
			t.Fatalf("seed %d: Stall 0 consulted the hook (%d calls)", seed, calls)
		}
	}
	if atSeeds == 0 || atInit == 0 || notProved == 0 {
		t.Fatalf("proofs at the seeds %d, at the initial population %d, none %d: a case went unexercised", atSeeds, atInit, notProved)
	}
}

// TestStallIsPrefixOfFixedRun: a run with Stall G draws exactly what
// the fixed run draws until it stops, so its trajectory is a prefix of
// the fixed run's that ends at the first G generations without a strict
// improvement (or at the cap), and it returns what the fixed run
// truncated there returns — Best, fitness, evaluations and all.
func TestStallIsPrefixOfFixedRun(t *testing.T) {
	const cap = 120
	early := 0
	for seed := uint64(1); seed <= 8; seed++ {
		p := loadProblem(30, 5, seed)
		cfg := DefaultConfig()
		cfg.PopulationSize, cfg.Generations = 20, cap
		fixed, err := Run(p, cfg, nil, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if fixed.Generations != cap || len(fixed.Trajectory) != cap+1 {
			t.Fatalf("seed %d: fixed run ran %d generations", seed, fixed.Generations)
		}
		for _, stall := range []int{1, 3, 5, 10} {
			// The first flat stretch of length stall in the fixed run:
			// best fitness is non-increasing, so G generations without a
			// strict improvement end at the first e with traj[e] ==
			// traj[e-G].
			stop, last := cap, 0
			for e := stall; e <= cap; e++ {
				if fixed.Trajectory[e] == fixed.Trajectory[e-stall] {
					stop = e
					break
				}
			}
			for g := 1; g <= stop; g++ {
				if fixed.Trajectory[g] < fixed.Trajectory[g-1] {
					last = g
				}
			}
			if stop < cap {
				early++
			}
			sc := cfg
			sc.Stall = stall
			got, err := Run(p, sc, nil, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if got.Generations != stop || len(got.Trajectory) != stop+1 || got.LastImproved != last {
				t.Fatalf("seed %d stall %d: ran %d generations (trajectory %d, last improvement %d), want %d (last improvement %d)",
					seed, stall, got.Generations, len(got.Trajectory), got.LastImproved, stop, last)
			}
			for g, v := range got.Trajectory {
				if v != fixed.Trajectory[g] {
					t.Fatalf("seed %d stall %d: generation %d best %v, fixed run %v", seed, stall, g, v, fixed.Trajectory[g])
				}
			}
			tc := cfg
			tc.Generations = stop
			want, err := Run(p, tc, nil, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(got, want) || got.Evaluations != want.Evaluations {
				t.Fatalf("seed %d stall %d: stopped run differs from the fixed run cut at %d", seed, stall, stop)
			}
		}
	}
	if early == 0 {
		t.Fatal("no run stopped before the cap: the test exercises nothing")
	}
}

func TestZeroGenerations(t *testing.T) {
	p := onesProblem(5, 2)
	res, err := Run(p, Config{PopulationSize: 10, Generations: 0,
		CrossoverProb: 0.8, MutationProb: 0.01}, nil, rng.New(11))
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
