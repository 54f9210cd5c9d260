package experiments

import (
	"fmt"
	"strings"

	"trustgrid/internal/grid"
	"trustgrid/internal/heuristics"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
	"trustgrid/internal/stga"
)

// SchedulerNames lists the algorithm names SchedulerByName accepts, in
// display order: the heuristics (whose admission policy the caller
// chooses), the STGA (always f-risky at Setup.F, as in the paper), and
// the cold-start GA baseline.
var SchedulerNames = []string{
	"minmin", "rankminmin", "sufferage", "mct", "met", "olb", "random", "stga", "coldga",
}

// SchedulerByName builds one scheduler from its CLI/API name. policy is
// the admission rule for the heuristics (the STGA variants always use
// the setup's f-risky policy, matching the paper's operating point); r
// feeds stochastic schedulers and the GA; training warms the STGA
// history table (nil skips training).
func (s Setup) SchedulerByName(name string, policy grid.Policy, r *rng.Stream,
	training []*grid.Job, sites []*grid.Site) (sched.Scheduler, error) {

	switch strings.ToLower(name) {
	case "minmin":
		return heuristics.NewMinMin(policy), nil
	case "rankminmin":
		return heuristics.NewRankMinMin(policy), nil
	case "sufferage":
		return heuristics.NewSufferage(policy), nil
	case "mct":
		return heuristics.NewMCT(policy), nil
	case "met":
		return heuristics.NewMET(policy), nil
	case "olb":
		return heuristics.NewOLB(policy), nil
	case "random":
		return heuristics.NewRandom(policy, r.Derive("random")), nil
	case "stga", "coldga":
		cfg := s.stgaConfig()
		cfg.DisableHistory = name == "coldga"
		sc := stga.New(cfg, r.Derive("stga"))
		if name == "stga" && training != nil {
			sc.Train(training, sites, s.TrainBatchSize)
		}
		return sc, nil
	default:
		return nil, fmt.Errorf("experiments: unknown scheduler %q (want one of %s)",
			name, strings.Join(SchedulerNames, ", "))
	}
}

// RemovedDraws reports whether durable state that the scheduler named
// algo wrote under draw contract version (a Setup.RNGVersion as it was
// recorded) was drawn under the removed v1 contract, and so cannot be
// continued by this binary. State written before v1's removal names v1
// as an absent field (0) or as 1; state written since names 2. The
// heuristics never draw through ga.Run, so their state restores
// whatever the field says.
func RemovedDraws(algo string, version int) bool {
	return RunsGA(algo) && version != int(rng.V2)
}

// RunsGA reports whether the scheduler named algo evolves its rounds
// through ga.Run, so that its durable state depends on the GA's draw
// contract and shape (population, generations, stall).
func RunsGA(algo string) bool {
	switch strings.ToLower(algo) {
	case "stga", "coldga":
		return true
	}
	return false
}
