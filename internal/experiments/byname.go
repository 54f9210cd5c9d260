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

// heuristicsByName holds each heuristic's constructor and the prefix its
// Name() puts before the policy's name.
var heuristicsByName = map[string]struct {
	label string
	build func(grid.Policy, *rng.Stream) sched.Scheduler
}{
	"minmin":     {"Min-Min", func(p grid.Policy, _ *rng.Stream) sched.Scheduler { return heuristics.NewMinMin(p) }},
	"rankminmin": {"Rank-Min-Min", func(p grid.Policy, _ *rng.Stream) sched.Scheduler { return heuristics.NewRankMinMin(p) }},
	"sufferage":  {"Sufferage", func(p grid.Policy, _ *rng.Stream) sched.Scheduler { return heuristics.NewSufferage(p) }},
	"mct":        {"MCT", func(p grid.Policy, _ *rng.Stream) sched.Scheduler { return heuristics.NewMCT(p) }},
	"met":        {"MET", func(p grid.Policy, _ *rng.Stream) sched.Scheduler { return heuristics.NewMET(p) }},
	"olb":        {"OLB", func(p grid.Policy, _ *rng.Stream) sched.Scheduler { return heuristics.NewOLB(p) }},
	"random":     {"Random", func(p grid.Policy, r *rng.Stream) sched.Scheduler { return heuristics.NewRandom(p, r.Derive("random")) }},
}

// SchedulerByName builds one scheduler from its CLI/API name, in any
// case. policy is the admission rule for the heuristics (the STGA
// variants always use the setup's f-risky policy, matching the paper's
// operating point); r feeds stochastic schedulers and the GA; training
// warms the STGA history table (nil skips training).
func (s Setup) SchedulerByName(name string, policy grid.Policy, r *rng.Stream,
	training []*grid.Job, sites []*grid.Site) (sched.Scheduler, error) {

	name = strings.ToLower(name)
	if h, ok := heuristicsByName[name]; ok {
		return h.build(policy, r), nil
	}
	switch name {
	case "stga", "coldga":
		cfg := s.stgaConfig()
		cfg.DisableHistory = name == "coldga"
		sc := stga.New(cfg, r.Derive("stga"))
		if name == "stga" && training != nil {
			sc.Train(training, sites, s.TrainBatchSize)
		}
		return sc, nil
	}
	return nil, unknownScheduler(name)
}

// SchedulerLabel returns the Name() of the scheduler SchedulerByName
// builds for name and policy, without building it: the service reports
// it for shards that may run in another process.
func SchedulerLabel(name string, policy grid.Policy) (string, error) {
	switch name = strings.ToLower(name); name {
	case "stga":
		return "STGA", nil
	case "coldga":
		return "GA (cold start)", nil
	}
	if h, ok := heuristicsByName[name]; ok {
		return h.label + " " + policy.Name(), nil
	}
	return "", unknownScheduler(name)
}

func unknownScheduler(name string) error {
	return fmt.Errorf("experiments: unknown scheduler %q (want one of %s)", name, strings.Join(SchedulerNames, ", "))
}

// PolicyByMode maps a risk-mode name to the heuristics' admission
// policy: secure, risky, or frisky at f = s.F.
func (s Setup) PolicyByMode(mode string) (grid.Policy, error) {
	switch mode {
	case "secure":
		return s.Policy(grid.Secure, 0), nil
	case "risky":
		return s.Policy(grid.Risky, 0), nil
	case "frisky":
		return s.Policy(grid.FRisky, s.F), nil
	}
	return grid.Policy{}, fmt.Errorf("experiments: unknown mode %q (want secure, risky or frisky)", mode)
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
