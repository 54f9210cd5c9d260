package ga

import (
	"fmt"

	"trustgrid/internal/rng"
)

// SelectionMethod picks how parents are sampled each generation.
type SelectionMethod int

const (
	// RouletteSelection is the paper's value-based roulette wheel (with
	// window scaling; see selectRoulette).
	RouletteSelection SelectionMethod = iota
	// TournamentSelection samples each slot as the best of
	// tournamentSize uniformly random individuals.
	TournamentSelection
	// RankSelection weights individuals linearly by fitness rank,
	// independent of the fitness scale.
	RankSelection
)

// String names the method.
func (m SelectionMethod) String() string {
	switch m {
	case RouletteSelection:
		return "roulette"
	case TournamentSelection:
		return "tournament"
	case RankSelection:
		return "rank"
	default:
		return fmt.Sprintf("SelectionMethod(%d)", int(m))
	}
}

// CrossoverMethod picks how two parents exchange genes.
type CrossoverMethod int

const (
	// SinglePointCrossover swaps the tails beyond one cut (paper §3).
	SinglePointCrossover CrossoverMethod = iota
	// TwoPointCrossover swaps the segment between two cuts.
	TwoPointCrossover
	// UniformCrossover swaps each gene independently with probability ½.
	UniformCrossover
)

// String names the method.
func (m CrossoverMethod) String() string {
	switch m {
	case SinglePointCrossover:
		return "single-point"
	case TwoPointCrossover:
		return "two-point"
	case UniformCrossover:
		return "uniform"
	default:
		return fmt.Sprintf("CrossoverMethod(%d)", int(m))
	}
}

// NewSelection returns the parent sampling Run performs once per
// generation under cfg, the operator cfg.Selection names with its
// scratch allocated once: each call fills picks with indices into fit, a
// vector of cfg.PopulationSize scores, drawn from r. Run's own stage;
// exported for the benchmark harness.
func NewSelection(cfg Config) func(fit []float64, picks []int, r *rng.Stream) {
	n := cfg.PopulationSize
	weights, cum := make([]float64, n), make([]float64, n)
	order, guide := make([]int, n), make([]int, n)
	return func(fit []float64, picks []int, r *rng.Stream) {
		switch cfg.Selection {
		case TournamentSelection:
			selectTournament(fit, picks, r)
		case RankSelection:
			selectRank(fit, picks, order, weights, cum, guide, r)
		default:
			selectRoulette(fit, picks, weights, cum, guide, r)
		}
	}
}

// tournamentSize is the number of entrants in each TournamentSelection
// draw.
const tournamentSize = 3

// selectTournament fills picks by tournamentSize-way tournaments.
func selectTournament(fit []float64, picks []int, r *rng.Stream) {
	n := len(fit)
	for i := range picks {
		best := r.Intn(n)
		for round := 1; round < tournamentSize; round++ {
			c := r.Intn(n)
			if fit[c] < fit[best] {
				best = c
			}
		}
		picks[i] = best
	}
}

// selectRank fills picks with probability proportional to inverse rank:
// the best individual gets weight n, the worst weight 1. order, weights,
// cum and guide are caller-owned scratch (len == len(fit)).
func selectRank(fit []float64, picks []int, order []int, weights, cum []float64, guide []int, r *rng.Stream) {
	n := len(fit)
	// Rank via argsort of fitness ascending (best first).
	for i := range order {
		order[i] = i
	}
	// Insertion sort: populations are a few hundred individuals.
	for i := 1; i < n; i++ {
		for k := i; k > 0 && fit[order[k]] < fit[order[k-1]]; k-- {
			order[k], order[k-1] = order[k-1], order[k]
		}
	}
	for rank, idx := range order {
		weights[idx] = float64(n - rank)
	}
	total := float64(n) * float64(n+1) / 2
	wh := spin(weights, cum, guide, total)
	for i := range picks {
		picks[i] = wh.above(r.Float64() * total)
	}
}

// crossoverTwoPoint swaps the segment between two random cuts in place.
// Returns whether any gene actually changed (fitness carry-forward
// skips re-evaluating untouched individuals).
func crossoverTwoPoint(a, b Chromosome, r *rng.Stream) bool {
	if len(a) < 2 {
		return false
	}
	i := r.Intn(len(a))
	k := r.Intn(len(a))
	if i > k {
		i, k = k, i
	}
	differed := false
	for p := i; p < k; p++ {
		if a[p] != b[p] {
			a[p], b[p] = b[p], a[p]
			differed = true
		}
	}
	return differed
}

// crossoverUniform swaps each gene with probability ½ in place. The
// coin is flipped for every gene (including equal ones). Returns
// whether any gene actually changed.
func crossoverUniform(a, b Chromosome, r *rng.Stream) bool {
	differed := false
	for i := range a {
		if r.Bool(0.5) && a[i] != b[i] {
			a[i], b[i] = b[i], a[i]
			differed = true
		}
	}
	return differed
}
