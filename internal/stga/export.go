package stga

import "trustgrid/internal/ga"

// MakespanFitness exposes the full-decode makespan fitness for the
// benchmark harness and tooling; the zero loadWeight form is the
// paper's fitness and the GA's default evaluation path.
func MakespanFitness(nSites int, base, etc []float64, loadWeight float64) ga.Fitness {
	return makespanFitness(nSites, base, etc, loadWeight)
}

// MakespanScorer exposes the GA's batch scorer for one round's decode
// inputs, as Schedule builds it: the 4-way kernel when the round passes
// its gate, else the scalar decode. For the benchmark harness.
func MakespanScorer(nSites int, base, etc []float64) ga.Scorer {
	var d decoder
	return d.scorers(nSites, base, etc, 0)()
}
