package stga

import "trustgrid/internal/ga"

// MakespanFitness exposes the full-decode makespan fitness for the
// benchmark harness and tooling; the zero loadWeight form is the
// paper's fitness and the GA's default evaluation path.
func MakespanFitness(nSites int, base, etc []float64, loadWeight float64) ga.Fitness {
	return makespanFitness(nSites, base, etc, loadWeight)
}
