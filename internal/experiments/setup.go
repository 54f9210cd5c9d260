package experiments

import (
	"fmt"

	"trustgrid/internal/grid"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
	"trustgrid/internal/stga"
	"trustgrid/internal/trace"

	"trustgrid/internal/heuristics"
)

// Setup collects every knob an experiment depends on. DefaultSetup is the
// paper's Table 1; tests and benchmarks shrink the sizes.
type Setup struct {
	Seed uint64
	// Reps replicates each simulation with derived seeds and averages.
	Reps int

	// NAS workload (Table 1: 16000 jobs, 12 sites, 46-day squeezed trace).
	NASJobs  int
	NASSpan  float64 // seconds
	NASLoad  float64 // offered load vs capacity (DESIGN.md §4)
	NASBatch float64 // scheduling period Δ, seconds

	// PSA workload (Table 1: 20 sites, rate 0.008/s, 20 levels).
	PSABatch float64 // scheduling period Δ, seconds

	// GA / STGA (Table 1: population 200, 100 generations, table 150,
	// threshold 0.8, 500 training jobs).
	Population     int
	Generations    int
	HistorySize    int
	SimThreshold   float64
	TrainingJobs   int
	TrainBatchSize int

	// Security model.
	Lambda     float64
	F          float64 // f-risky threshold (paper: 0.5 after Fig. 7a)
	FailTiming sched.FailureTiming

	// NoHeuristicSeeds disables the STGA's current-batch Min-Min and
	// Sufferage seeding. The convergence experiments (Figs. 5 and 7b)
	// set it so the measured curves expose the GA's own evolution rather
	// than starting at heuristic quality.
	NoHeuristicSeeds bool

	// Dynamic-grid study (DESIGN.md §7): PSA jobs per run, the fraction
	// of sites whose true security level sits DeceptiveGap below their
	// declaration, and the churn regime (see RunChurnStudy).
	ChurnJobs     int
	DeceptiveFrac float64
	DeceptiveGap  float64

	// DAG study (DESIGN.md §14): layered dependent workload shape —
	// jobs per run, layer width (wider than the 20-site platform so
	// batch order matters), edge probability between adjacent layers,
	// and the deadline slack multiplier on each job's critical path.
	DAGJobs     int
	DAGWidth    int
	DAGEdgeProb float64
	DAGSlack    float64

	// Workers bounds how many independent sweep points the figure and
	// table runners execute concurrently (0 = runtime.GOMAXPROCS, 1 =
	// serial). Every point seeds its own rng streams from (Seed, point
	// index), so results are identical at any worker count.
	Workers int

	// GAWorkers is forwarded to ga.Config.Workers for every GA-backed
	// scheduler the setup builds (0 = runtime.GOMAXPROCS, 1 = serial).
	GAWorkers int

	// RNGVersion names the GA draw contract. There is one, and 0 and 2
	// both mean it; ga.Config.Validate refuses any other value. It is
	// forwarded to ga.Config.RNG only because the frozen benchmark
	// harness sets it; ROADMAP item 6(d) deletes it. The daemon writes 2
	// explicitly into every spec and snapshot, so restore can tell
	// state drawn under the removed v1 (absent or 1) from current state.
	RNGVersion int `json:",omitempty"`
}

// DefaultSetup returns the paper's configuration.
func DefaultSetup() Setup {
	return Setup{
		Seed:           1,
		Reps:           1,
		NASJobs:        16000,
		NASSpan:        46 * 24 * 3600,
		NASLoad:        1.15,
		NASBatch:       3600,
		PSABatch:       5000,
		Population:     200,
		Generations:    100,
		HistorySize:    150,
		SimThreshold:   0.8,
		TrainingJobs:   500,
		TrainBatchSize: 40,
		Lambda:         grid.DefaultLambda,
		F:              0.5,
		ChurnJobs:      1000,
		DeceptiveFrac:  0.4,
		DeceptiveGap:   0.4,
		DAGJobs:        800,
		DAGWidth:       48,
		DAGEdgeProb:    0.3,
		DAGSlack:       2,
	}
}

// TestSetup returns a heavily scaled-down configuration for fast unit
// tests and benchmarks: hundreds of jobs, small GA.
func TestSetup() Setup {
	s := DefaultSetup()
	s.NASJobs = 400
	s.NASSpan = 2 * 24 * 3600
	s.Population = 40
	s.Generations = 25
	s.TrainingJobs = 100
	s.TrainBatchSize = 20
	s.ChurnJobs = 300
	s.DAGJobs = 240
	return s
}

// Model returns the Eq. 1 failure law with the setup's λ.
func (s Setup) Model() grid.SecurityModel { return grid.SecurityModel{Lambda: s.Lambda} }

// Policy builds an admission policy consistent with the setup's λ.
func (s Setup) Policy(mode grid.RiskMode, f float64) grid.Policy {
	return grid.Policy{Mode: mode, F: f, Model: s.Model()}
}

// Algorithm enumerates the seven paper algorithms plus the cold-start GA
// baseline used in the Fig. 5 comparison.
type Algorithm int

// The paper's algorithm roster (Fig. 8 order) plus ColdGA.
const (
	MinMinSecure Algorithm = iota
	MinMinFRisky
	MinMinRisky
	SufferageSecure
	SufferageFRisky
	SufferageRisky
	AlgSTGA
	AlgColdGA
	// AlgRankMinMin is the HEFT-style list scheduler for dependent
	// workloads (DESIGN.md §14); appended after the paper roster so the
	// enum values every recorded config pins stay stable.
	AlgRankMinMin
)

// PaperAlgorithms is the roster of Fig. 8 / Table 2.
var PaperAlgorithms = []Algorithm{
	MinMinSecure, MinMinFRisky, MinMinRisky,
	SufferageSecure, SufferageFRisky, SufferageRisky,
	AlgSTGA,
}

// String returns the paper's label for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case MinMinSecure:
		return "Min-Min Secure"
	case MinMinFRisky:
		return "Min-Min f-Risky"
	case MinMinRisky:
		return "Min-Min Risky"
	case SufferageSecure:
		return "Sufferage Secure"
	case SufferageFRisky:
		return "Sufferage f-Risky"
	case SufferageRisky:
		return "Sufferage Risky"
	case AlgSTGA:
		return "STGA"
	case AlgColdGA:
		return "GA (cold start)"
	case AlgRankMinMin:
		return "Rank-Min-Min"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// stgaConfig translates the setup's GA/STGA knobs into an stga.Config;
// every runner that builds an STGA starts from it so a new knob is
// wired in exactly one place.
func (s Setup) stgaConfig() stga.Config {
	cfg := stga.DefaultConfig()
	cfg.GA.PopulationSize = s.Population
	cfg.GA.Generations = s.Generations
	cfg.GA.Workers = s.GAWorkers
	cfg.HistorySize = s.HistorySize
	cfg.SimilarityThreshold = s.SimThreshold
	cfg.Policy = s.Policy(grid.FRisky, s.F)
	cfg.Security = s.Model()
	cfg.SeedHeuristics = !s.NoHeuristicSeeds
	// Forward raw: ga.Config.Validate rejects any contract but 0 or 2
	// at Run time, where an error can actually be returned.
	cfg.GA.RNG = rng.Version(s.RNGVersion)
	return cfg
}

// buildScheduler constructs the scheduler for one simulation run.
// trainJobs seed the STGA history table (nil disables training).
func (s Setup) buildScheduler(a Algorithm, r *rng.Stream,
	trainJobs []*grid.Job, sites []*grid.Site) sched.Scheduler {

	switch a {
	case MinMinSecure:
		return heuristics.NewMinMin(s.Policy(grid.Secure, 0))
	case MinMinFRisky:
		return heuristics.NewMinMin(s.Policy(grid.FRisky, s.F))
	case MinMinRisky:
		return heuristics.NewMinMin(s.Policy(grid.Risky, 0))
	case SufferageSecure:
		return heuristics.NewSufferage(s.Policy(grid.Secure, 0))
	case SufferageFRisky:
		return heuristics.NewSufferage(s.Policy(grid.FRisky, s.F))
	case SufferageRisky:
		return heuristics.NewSufferage(s.Policy(grid.Risky, 0))
	case AlgRankMinMin:
		// The STGA's operating point, so the DAG study compares the two
		// precedence-aware schedulers under one admission rule.
		return heuristics.NewRankMinMin(s.Policy(grid.FRisky, s.F))
	case AlgSTGA, AlgColdGA:
		cfg := s.stgaConfig()
		cfg.DisableHistory = a == AlgColdGA
		sc := stga.New(cfg, r.Derive("stga"))
		if trainJobs != nil {
			sc.Train(trainJobs, sites, s.TrainBatchSize)
		}
		return sc
	default:
		panic(fmt.Sprintf("experiments: unknown algorithm %d", int(a)))
	}
}

// Workload bundles a generated platform and job list plus the training
// set used to warm the STGA.
type Workload struct {
	Name     string
	Jobs     []*grid.Job
	Sites    []*grid.Site
	Training []*grid.Job
	Batch    float64 // scheduling period Δ
}

// NASWorkload generates the Table 1 NAS configuration (12 sites, 16000
// jobs by default) with a disjoint 500-job training prefix for the STGA.
func (s Setup) NASWorkload(seed uint64) (*Workload, error) {
	r := rng.New(seed)
	sites, err := grid.NASPlatform().Generate(r.Derive("sites"))
	if err != nil {
		return nil, err
	}
	cfg := trace.DefaultNASConfig()
	cfg.Jobs = s.NASJobs
	cfg.Span = s.NASSpan
	cfg.LoadFactor = s.NASLoad
	jobs, err := cfg.Generate(r.Derive("jobs"))
	if err != nil {
		return nil, err
	}
	trainCfg := cfg
	trainCfg.Jobs = s.TrainingJobs
	training, err := trainCfg.Generate(r.Derive("training"))
	if err != nil {
		return nil, err
	}
	return &Workload{Name: "NAS", Jobs: jobs, Sites: sites, Training: training, Batch: s.NASBatch}, nil
}

// PSAWorkload generates the Table 1 PSA configuration with n jobs.
func (s Setup) PSAWorkload(seed uint64, n int) (*Workload, error) {
	r := rng.New(seed)
	sites, err := grid.PSAPlatform().Generate(r.Derive("sites"))
	if err != nil {
		return nil, err
	}
	jobs, err := trace.DefaultPSAConfig(n).Generate(r.Derive("jobs"))
	if err != nil {
		return nil, err
	}
	training, err := trace.DefaultPSAConfig(s.TrainingJobs).Generate(r.Derive("training"))
	if err != nil {
		return nil, err
	}
	return &Workload{Name: "PSA", Jobs: jobs, Sites: sites, Training: training, Batch: s.PSABatch}, nil
}

// RecurrentPSAWorkload generates the temporally local PSA variant used
// by the Fig. 5 convergence experiment: a fixed campaign of job specs is
// resubmitted repeatedly, so the STGA's history lookups find genuinely
// transferable schedules. The training set replays the same campaign.
func (s Setup) RecurrentPSAWorkload(seed uint64, n int) (*Workload, error) {
	r := rng.New(seed)
	sites, err := grid.PSAPlatform().Generate(r.Derive("sites"))
	if err != nil {
		return nil, err
	}
	cfg := trace.DefaultRecurrentPSAConfig(n)
	jobs, err := cfg.Generate(r.Derive("jobs"))
	if err != nil {
		return nil, err
	}
	trainCfg := cfg
	trainCfg.Jobs = s.TrainingJobs
	// Same derivation label: the campaign specs must match the main
	// workload for the history to transfer, exactly as in the paper's
	// training procedure on "similar" jobs.
	training, err := trainCfg.Generate(r.Derive("jobs"))
	if err != nil {
		return nil, err
	}
	return &Workload{Name: "PSA-recurrent", Jobs: jobs, Sites: sites, Training: training, Batch: s.PSABatch}, nil
}

// runOnce simulates one (workload, algorithm) pair.
func (s Setup) runOnce(w *Workload, a Algorithm, seed uint64) (*sched.Result, error) {
	r := rng.New(seed)
	scheduler := s.buildScheduler(a, r.Derive("scheduler"), w.Training, w.Sites)
	return sched.Run(sched.RunConfig{
		Jobs:          w.Jobs,
		Sites:         w.Sites,
		Scheduler:     scheduler,
		BatchInterval: w.Batch,
		Security:      s.Model(),
		FailureTiming: s.FailTiming,
		Rand:          r.Derive("engine"),
	})
}

// reps returns the effective replication count.
func (s Setup) reps() int {
	if s.Reps <= 0 {
		return 1
	}
	return s.Reps
}
