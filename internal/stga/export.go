package stga

import "trustgrid/internal/ga"

// MakespanFitness exposes the scalar makespan decode, the paper's
// fitness, for the benchmark harness and tooling. loadWeight must be 0:
// the load-weighted fitness it once selected was removed, and the
// argument remains only because the frozen benchmark harness passes it
// (ROADMAP item 6(d) drops it). A non-zero value can only come from a
// programming error, so it panics.
func MakespanFitness(nSites int, base, etc []float64, loadWeight float64) ga.Fitness {
	if loadWeight != 0 {
		panic("stga: MakespanFitness has no load term; loadWeight must be 0")
	}
	return makespanFitness(nSites, base, etc)
}

// MakespanScorer exposes the GA's batch scorer for one round's decode
// inputs, as Schedule builds it: the 4-way kernel when the round passes
// its gate, else the scalar decode. For the benchmark harness.
func MakespanScorer(nSites int, base, etc []float64) ga.Scorer {
	var d decoder
	return d.scorers(nSites, base, etc)()
}
