package ga

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"trustgrid/internal/rng"
)

// Chromosome is a candidate solution: gene i is the site assignment of
// job i in the batch.
type Chromosome []int

// Clone copies the chromosome.
func (c Chromosome) Clone() Chromosome {
	out := make(Chromosome, len(c))
	copy(out, c)
	return out
}

// Fitness scores a chromosome; smaller is better (the paper's fitness is
// the completion time of the encoded schedule).
type Fitness func(Chromosome) float64

// Scorer is the evaluator's unit of work: Score sets fit[i] to the
// fitness of pop[i] for every i in idx, and touches no other element
// of fit. Batching lets a problem decode several chromosomes per pass;
// an implementation may keep scratch state, so one Scorer serves one
// goroutine.
type Scorer interface {
	Score(pop []Chromosome, idx []int, fit []float64)
}

// Score makes a plain Fitness a Scorer: one call per index.
func (f Fitness) Score(pop []Chromosome, idx []int, fit []float64) {
	for _, i := range idx {
		fit[i] = f(pop[i])
	}
}

// Config holds the GA hyper-parameters (Table 1 defaults).
type Config struct {
	PopulationSize int // Table 1: 200
	// Generations is the generation count (Table 1: 100), a cap when
	// Stall is set.
	Generations   int
	CrossoverProb float64 // Table 1: 0.8
	MutationProb  float64 // Table 1: 0.01
	// Stall, when G > 0, ends the run after G consecutive generations
	// without a strict improvement of the best fitness (checked after
	// each generation's elitism step; the check draws nothing), or as
	// soon as the best reaches Problem.Floor or Problem.Prove certifies
	// it. 0 runs exactly Generations generations and consults neither. A
	// stopped run's draws are a prefix of the fixed run's, so its
	// trajectory is too.
	Stall int
	// Selection picks the parent-sampling operator (default: the paper's
	// value-based roulette wheel). See the operator ablation.
	Selection SelectionMethod
	// Crossover picks the recombination operator (default: the paper's
	// single-point tail swap).
	Crossover CrossoverMethod
	// Workers is the number of goroutines used to evaluate the
	// population's fitness: 0 means runtime.GOMAXPROCS, 1 (or any
	// negative value) forces the serial path, n > 1 uses exactly n
	// workers. Parallel evaluation requires Problem.NewScorer
	// (per-worker scorers); with only a bare Problem.Fitness the
	// evaluator stays serial, since it cannot know whether the closure
	// carries scratch state. Selection, crossover and mutation always
	// consume the run's own draw lanes on the calling goroutine, so
	// every worker count produces bit-identical evolution.
	Workers int
	// RNG names the draw contract. Run has one, rng.DrawsV2, and 0 and
	// rng.V2 both select it; Validate refuses any other value, so a
	// config written for the removed v1 contract fails instead of
	// silently drawing a different sequence. The field remains only
	// because the frozen benchmark harness assigns it; ROADMAP item
	// 6(d) deletes it.
	RNG rng.Version
}

// DefaultConfig returns the Table 1 hyper-parameters.
func DefaultConfig() Config {
	return Config{
		PopulationSize: 200,
		Generations:    100,
		CrossoverProb:  0.8,
		MutationProb:   0.01,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.PopulationSize < 2:
		return fmt.Errorf("ga: population size %d < 2", c.PopulationSize)
	case c.Generations < 0:
		return fmt.Errorf("ga: negative generation count %d", c.Generations)
	case c.Stall < 0:
		return fmt.Errorf("ga: negative stall count %d", c.Stall)
	case !(c.CrossoverProb >= 0 && c.CrossoverProb <= 1):
		return fmt.Errorf("ga: crossover probability %v outside [0,1]", c.CrossoverProb)
	case !(c.MutationProb >= 0 && c.MutationProb <= 1):
		return fmt.Errorf("ga: mutation probability %v outside [0,1]", c.MutationProb)
	case c.Selection < RouletteSelection || c.Selection > RankSelection:
		return fmt.Errorf("ga: unknown selection method %v", c.Selection)
	case c.Crossover < SinglePointCrossover || c.Crossover > UniformCrossover:
		return fmt.Errorf("ga: unknown crossover method %v", c.Crossover)
	case c.RNG != 0 && c.RNG != rng.V2:
		return fmt.Errorf("ga: draw contract %d refused: only v2 remains (v1 was removed)", c.RNG)
	}
	return nil
}

// Problem describes one GA run: the chromosome length, the per-gene
// allowed values (eligible sites per job), and the fitness function.
type Problem struct {
	Length  int
	Allowed [][]int // Allowed[i] lists legal values of gene i; must be non-empty
	Fitness Fitness
	// NewScorer, when non-nil, builds one batch scorer per evaluation
	// worker and is used instead of Fitness. It is what enables parallel
	// evaluation (Config.Workers): scorers commonly carry scratch
	// buffers (the STGA's scalar decode does), so one instance cannot
	// be invoked concurrently. Every instance must compute the same
	// function, bit for bit, as any Fitness the problem also carries —
	// workers differ only in which indices they score. A Fitness is a
	// Scorer, so a factory may return one.
	NewScorer func() Scorer
	// Floor, when non-zero, is a lower bound on the fitness of every
	// legal chromosome. A run with Config.Stall > 0 ends as soon as its
	// best reaches it: no later generation can strictly improve on a
	// best at the floor, so the run returns the Best and BestFitness
	// the full run would. 0 means no floor.
	Floor float64
	// Prove, when non-nil, reports true only if no legal chromosome
	// scores strictly below best; false means "not shown", never "a
	// better one exists". A run with Config.Stall > 0 consults it at two
	// checkpoints, on the seeds' best and on the initial population's,
	// whenever that best is above Floor, and ends on a proof as it ends
	// on the floor, with the Best and BestFitness the full run would
	// return. It is never called inside the generation loop.
	Prove func(best float64) bool
}

// Validate checks the problem definition.
func (p *Problem) Validate() error {
	if p.Length <= 0 {
		return fmt.Errorf("ga: chromosome length %d <= 0", p.Length)
	}
	if len(p.Allowed) != p.Length {
		return fmt.Errorf("ga: allowed-set count %d != length %d", len(p.Allowed), p.Length)
	}
	for i, a := range p.Allowed {
		if len(a) == 0 {
			return fmt.Errorf("ga: gene %d has empty allowed set", i)
		}
	}
	if p.Fitness == nil && p.NewScorer == nil {
		return fmt.Errorf("ga: nil fitness function")
	}
	return nil
}

// RandomChromosome draws a uniformly random legal chromosome.
func (p *Problem) RandomChromosome(r *rng.Stream) Chromosome {
	c := make(Chromosome, p.Length)
	for i := range c {
		a := p.Allowed[i]
		c[i] = a[r.Intn(len(a))]
	}
	return c
}

// Repair clamps every illegal gene to a random allowed value; used when
// adapting historical schedules whose site choices may violate the
// current batch's constraints.
func (p *Problem) Repair(c Chromosome, r *rng.Stream) {
	for i := range c {
		legal := false
		for _, v := range p.Allowed[i] {
			if c[i] == v {
				legal = true
				break
			}
		}
		if !legal {
			a := p.Allowed[i]
			c[i] = a[r.Intn(len(a))]
		}
	}
}

// Result reports the outcome of a run.
type Result struct {
	Best        Chromosome
	BestFitness float64
	// Trajectory[g] is the best fitness after generation g (index 0 is
	// the initial population). Used for the convergence experiments
	// (paper Figs. 5 and 7(b)).
	Trajectory []float64
	// Generations actually executed: Config.Generations, or fewer when
	// Config.Stall stopped the run.
	Generations int
	// LastImproved is the last generation that strictly improved the
	// best fitness, 0 when none improved on the initial population.
	LastImproved int
	// Evaluations counts the fitness decodes the run made: the initial
	// population plus each generation's individuals that crossover or
	// mutation changed (carried-forward scores are not counted). A run
	// whose seeds reach the floor scores only the seeds.
	Evaluations int
	// FloorStop reports that the run consulted Problem.Floor and ended
	// with its best on it.
	FloorStop bool
	// ProvedStop reports that Problem.Prove certified the seeds' or the
	// initial population's best, ending the run there.
	ProvedStop bool
}

// Run executes the GA: evaluate, then per generation select (roulette
// wheel on 1/fitness with elitism), crossover, mutate. seeds (may be
// empty) are inserted into the initial population after repair and
// scored before the random remainder is drawn, so a seed on
// Problem.Floor, or one Problem.Prove certifies, ends a Stall > 0 run
// at once, before anything population-sized is built. An empty seed
// carries nothing and is skipped.
//
// The generation loop is allocation-free: the population is
// double-buffered against a preallocated twin, selection produces pick
// indices that are copied in place, and the roulette/rank scratch
// (weights, the cumulative wheel and its guide table) is allocated once
// and reused across generations.
func Run(p *Problem, cfg Config, seeds []Chromosome, r *rng.Stream) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}

	// Per-phase draw streams: each phase draws from its own lane forked
	// off r. The seeds need only the Init lane; Fork never advances r,
	// so forking the others past the seed checkpoint changes no draw.
	rInit := rng.InitLaneV2(r)

	pop := make([]Chromosome, 0, min(len(seeds), cfg.PopulationSize))
	for _, s := range seeds {
		if len(pop) == cfg.PopulationSize {
			break
		}
		if len(s) == 0 {
			continue
		}
		c := s.Clone()
		if len(c) != p.Length {
			c = adaptLength(c, p.Length)
		}
		p.Repair(c, rInit)
		pop = append(pop, c)
	}

	// atFloor is the floor test and proved the proof test; Stall 0
	// consults neither. Nothing legal scores below a best on the floor
	// or a proved best, so either is final.
	useFloor := cfg.Stall > 0 && p.Floor != 0
	atFloor := func(f float64) bool { return useFloor && f <= p.Floor }
	proved := func(f float64) bool { return cfg.Stall > 0 && p.Prove != nil && !atFloor(f) && p.Prove(f) }

	// The seed checkpoint, scored by one scorer on this goroutine. The
	// seeds hold the lowest indices, so a seed on the floor, or a proved
	// one, is also the whole population's first minimum: returning it
	// here returns what the full run would.
	seeded := len(pop)
	var sc Scorer = p.Fitness
	if p.NewScorer != nil {
		sc = p.NewScorer()
	}
	fit := make([]float64, seeded)
	picks := make([]int, seeded)
	for i := range picks {
		picks[i] = i
	}
	sc.Score(pop, picks, fit)
	evals := seeded
	if seeded > 0 {
		i := argMin(fit)
		if floorStop := atFloor(fit[i]); floorStop || proved(fit[i]) {
			return Result{Best: pop[i].Clone(), BestFitness: fit[i], Trajectory: []float64{fit[i]},
				Evaluations: evals, FloorStop: floorStop, ProvedStop: !floorStop}, nil
		}
	}

	d := rng.CompleteDrawsV2(r, rInit)
	rSel, rCross, rMutVal := d.Select, d.Cross, d.MutVal
	pop = slices.Grow(pop, cfg.PopulationSize-seeded)
	for len(pop) < cfg.PopulationSize {
		pop = append(pop, p.RandomChromosome(rInit))
	}
	eval := newEvaluator(p, cfg, sc)
	defer eval.close()
	fit = slices.Grow(fit, cfg.PopulationSize-seeded)[:cfg.PopulationSize]
	// Fitness carry-forward: selection copies each pick's known score
	// into fitNext alongside the chromosome, and only individuals
	// crossover or mutation actually changed are marked dirty and
	// re-decoded. Scores are pure functions of the chromosome, so carried
	// values are bit-identical to a re-evaluation; no rng draw depends on
	// any of this. picks doubles as the evaluator's index scratch:
	// selection rewrites it before each read.
	fitNext, dirty := make([]float64, cfg.PopulationSize), make([]bool, cfg.PopulationSize)
	for i := seeded; i < len(dirty); i++ {
		dirty[i] = true
	}
	picks = make([]int, cfg.PopulationSize)
	evals += eval.evaluate(pop, fit, dirty, picks)
	bestIdx := argMin(fit)
	best := pop[bestIdx].Clone()
	bestFit := fit[bestIdx]
	trajectory := make([]float64, 0, cfg.Generations+1)
	trajectory = append(trajectory, bestFit)
	if proved(bestFit) {
		return Result{Best: best, BestFitness: bestFit, Trajectory: trajectory,
			Evaluations: evals, ProvedStop: true}, nil
	}

	next := make([]Chromosome, len(pop))
	for i := range next {
		next[i] = make(Chromosome, p.Length)
	}
	selectParents := NewSelection(cfg)
	// Precomputed Bernoulli comparators: bit-identical to
	// r.Bool(CrossoverProb)/r.Bool(MutationProb), minus the per-draw
	// float arithmetic.
	crossDraw := rng.NewBernoulli(cfg.CrossoverProb)
	mutDraw := rng.NewBernoulli(cfg.MutationProb)
	// The whole generation's mutation hits are one bit vector: bit
	// i*Length+g of mutMask decides whether gene g of individual i
	// mutates. Replacement values then come from the MutVal lane in hit
	// order.
	mutMask := make([]uint64, (cfg.PopulationSize*p.Length+63)/64)

	// ran counts generations executed; the run stops at the cap, once
	// Stall generations in a row left bestFit where it was, or once
	// bestFit is on the floor.
	ran, lastImproved := 0, 0
	for ran < cfg.Generations && (cfg.Stall == 0 || ran-lastImproved < cfg.Stall && !atFloor(bestFit)) {
		selectParents(fit, picks, rSel)
		for i, src := range picks {
			copy(next[i], pop[src])
			fitNext[i] = fit[src] // the pick's score is already known
		}
		pop, next = next, pop
		fit, fitNext = fitNext, fit
		for i := range dirty {
			dirty[i] = false
		}

		// Crossover in adjacent pairs (the selection output is already a
		// random sample, so pairing neighbours is unbiased).
		for i := 0; i+1 < len(pop); i += 2 {
			if crossDraw.Hit(rCross) {
				a, b := pop[i], pop[i+1]
				var changed bool
				switch cfg.Crossover {
				case TwoPointCrossover:
					changed = crossoverTwoPoint(a, b, rCross)
				case UniformCrossover:
					changed = crossoverUniform(a, b, rCross)
				default:
					changed = crossover(a, b, rCross)
				}
				if changed {
					dirty[i], dirty[i+1] = true, true
				}
			}
		}
		// Mutation: each gene is re-drawn from its allowed set with
		// probability MutationProb (the standard per-gene reading of the
		// paper's "mutation probability 0.01"; a per-chromosome reading
		// leaves 40-gene chromosomes nearly frozen). The generation's hit
		// mask is filled in one batched pass and word-scanned, so the
		// common case (no hit in 64 genes) costs one load.
		d.MutBit.FillBernoulli(mutMask, len(pop)*p.Length, mutDraw)
		for i := range pop {
			if mutateMasked(pop[i], p, mutMask, i*p.Length, rMutVal) {
				dirty[i] = true
			}
		}
		evals += eval.evaluate(pop, fit, dirty, picks)
		ran++
		genBest := argMin(fit)
		if fit[genBest] < bestFit {
			copy(best, pop[genBest])
			bestFit = fit[genBest]
			lastImproved = ran
		} else {
			// The incumbent (elitism) replaces the worst individual.
			worst := argMax(fit)
			copy(pop[worst], best)
			fit[worst] = bestFit
		}
		trajectory = append(trajectory, bestFit)
	}
	return Result{Best: best, BestFitness: bestFit, Trajectory: trajectory,
		Generations: ran, LastImproved: lastImproved, Evaluations: evals, FloorStop: atFloor(bestFit)}, nil
}

// adaptLength truncates or modularly tiles a chromosome to length n
// (historical schedules may come from batches of different sizes).
func adaptLength(c Chromosome, n int) Chromosome {
	out := make(Chromosome, n)
	for i := range out {
		out[i] = c[i%len(c)]
	}
	return out
}

func argMin(xs []float64) int {
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[best] {
			best = i
		}
	}
	return best
}

func argMax(xs []float64) int {
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[best] {
			best = i
		}
	}
	return best
}

// selectRoulette fills picks with population indices sampled
// proportionally to their value on a windowed scale: w = (worst − f) +
// 10% of the spread. This is the paper's value-based roulette wheel
// with standard window scaling — raw 1/f weights degenerate to uniform
// selection once the population's makespans cluster within a few
// percent, which stalls the search entirely. weights, cum and guide are
// caller-owned scratch (len == len(fit)); the draw sequence is the one
// the cloning implementation consumed. An infinitely unfit (+Inf)
// individual gets weight 0 and no say in the window, wherever it sits.
func selectRoulette(fit []float64, picks []int, weights, cum []float64, guide []int, r *rng.Stream) {
	n := len(fit)
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
		floor = 1 // uniform selection when all fitnesses are equal
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
		// Every individual is infinitely unfit: select uniformly.
		for i := range weights {
			weights[i] = 1
		}
		total = float64(n)
	}
	wh := spin(weights, cum, guide, total)
	for i := range picks {
		picks[i] = wh.atLeast(r.Float64() * total)
	}
}

// crossover performs single-point crossover in place: both tails beyond a
// random cut point are swapped. Genes stay legal because each position's
// allowed set is position-specific and both parents are legal. Returns
// whether any gene actually changed.
func crossover(a, b Chromosome, r *rng.Stream) bool {
	if len(a) < 2 {
		return false
	}
	cut := 1 + r.Intn(len(a)-1)
	// Detect whether the tails differ at all, four genes per iteration
	// (the OR of XORs is zero exactly when all four pairs match): crossing
	// converged-identical parents — increasingly common late in a run —
	// costs one branch-light scan and no writes. When they do differ,
	// swap the whole tail unconditionally: swapping equal genes is a
	// no-op, and the straight-line loop beats a compare-and-swap whose
	// branch the predictor cannot learn.
	differed := false
	i := cut
	for ; i+4 <= len(a); i += 4 {
		if (a[i]^b[i])|(a[i+1]^b[i+1])|(a[i+2]^b[i+2])|(a[i+3]^b[i+3]) != 0 {
			differed = true
			break
		}
	}
	if !differed {
		for ; i < len(a); i++ {
			if a[i] != b[i] {
				differed = true
				break
			}
		}
	}
	if !differed {
		return false
	}
	for p := i; p < len(a); p++ {
		a[p], b[p] = b[p], a[p]
	}
	return true
}

// mutateMasked is the mutation kernel: bit off+i of bitvec decides
// whether gene i mutates, replacement values come from the MutVal lane
// in hit order. The scan jumps word to word, so at MutationProb 0.01 a
// 64-gene stretch with no hits costs one load and one branch. Bits past
// off+len(c) belong to the next individual's window and are ignored.
func mutateMasked(c Chromosome, p *Problem, bitvec []uint64, off int, r *rng.Stream) bool {
	n := len(c)
	changed := false
	for i := 0; i < n; {
		pos := off + i
		w := bitvec[pos>>6] >> uint(pos&63)
		if w == 0 {
			i += 64 - pos&63
			continue
		}
		i += bits.TrailingZeros64(w)
		if i >= n {
			break
		}
		a := p.Allowed[i]
		if v := a[r.Intn(len(a))]; v != c[i] {
			c[i] = v
			changed = true
		}
		i++
	}
	return changed
}
