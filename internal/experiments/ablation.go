package experiments

import (
	"fmt"

	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
	"trustgrid/internal/stga"
)

// AblationResult is a generic rendered table for the design-choice
// ablations listed in DESIGN.md §3 (A1–A4).
type AblationResult struct {
	Name   string
	Header []string
	Rows   [][]string
	Notes  string
}

// Render formats the ablation as an ASCII table.
func (r *AblationResult) Render() string {
	out := fmt.Sprintf("Ablation %s\n%s", r.Name, table(r.Header, r.Rows))
	if r.Notes != "" {
		out += r.Notes + "\n"
	}
	return out
}

// Ablation names a runnable ablation experiment.
type Ablation struct {
	Name string
	Run  func(Setup) (*AblationResult, error)
}

// AllAblations lists every ablation the benchsuite runs.
var AllAblations = []Ablation{
	{Name: "lambda", Run: RunAblationLambda},
	{Name: "history", Run: RunAblationHistory},
	{Name: "similarity", Run: RunAblationSimilarity},
	{Name: "failmodel", Run: RunAblationFailModel},
}

// runSTGAConfigured runs one PSA simulation with a customized STGA and
// returns both the result and the scheduler (for table statistics).
func runSTGAConfigured(s Setup, n int, mutate func(*stga.Config)) (*sched.Result, *stga.Scheduler, error) {
	w, err := s.PSAWorkload(s.Seed, n)
	if err != nil {
		return nil, nil, err
	}
	cfg := s.stgaConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	r := rng.New(s.Seed ^ 0x5ca1ab1e)
	sc := stga.New(cfg, r.Derive("stga"))
	if !cfg.DisableHistory {
		sc.Train(w.Training, w.Sites, s.TrainBatchSize)
	}
	res, err := sched.Run(sched.RunConfig{
		Jobs: w.Jobs, Sites: w.Sites, Scheduler: sc,
		BatchInterval: w.Batch, Security: s.Model(),
		FailureTiming: s.FailTiming, Rand: r.Derive("engine"),
	})
	if err != nil {
		return nil, nil, err
	}
	return res, sc, nil
}

// RunAblationLambda (A1) sweeps the unstated failure-law coefficient λ
// and reports how the risky and 0.5-risky Min-Min and the STGA respond.
// Expected shape: larger λ punishes risk-taking (more failures), so the
// risky makespan grows with λ while the secure-ish modes are flat.
func RunAblationLambda(s Setup) (*AblationResult, error) {
	res := &AblationResult{
		Name:   "A1: failure-law λ sweep (PSA, N=1000)",
		Header: []string{"lambda", "algorithm", "makespan (s)", "Nfail", "Nrisk"},
		Notes:  "λ is unstated in the paper; 3.0 is the repo default (DESIGN.md §2.1).",
	}
	for _, lambda := range []float64{1, 2, 3, 5, 8} {
		sweep := s
		sweep.Lambda = lambda
		for _, a := range []Algorithm{MinMinRisky, MinMinFRisky, AlgSTGA} {
			agg, err := sweep.runAgg(func(seed uint64) (*Workload, error) {
				return sweep.PSAWorkload(seed, 1000)
			}, a)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, []string{
				f2(lambda), a.String(), e3(agg.Makespan.Mean()),
				i0(agg.NFail.Mean()), i0(agg.NRisk.Mean()),
			})
		}
	}
	return res, nil
}

// RunAblationHistory (A2) sweeps the history-table capacity and the
// similarity threshold, reporting makespan and lookup hit rate.
func RunAblationHistory(s Setup) (*AblationResult, error) {
	res := &AblationResult{
		Name:   "A2: history size / similarity threshold (PSA, N=1000)",
		Header: []string{"history", "threshold", "makespan (s)", "hit rate"},
	}
	for _, size := range []int{0, 25, 150, 600} {
		for _, thr := range []float64{0.5, 0.8, 0.95} {
			if size == 0 && thr != 0.8 {
				continue // cold start: threshold is irrelevant
			}
			r, sc, err := runSTGAConfigured(s, 1000, func(c *stga.Config) {
				c.DisableHistory = size == 0
				if size > 0 {
					c.HistorySize = size
				}
				c.SimilarityThreshold = thr
			})
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, []string{
				fmt.Sprint(size), f2(thr), e3(r.Summary.Makespan),
				f2(sc.Table().HitRate()),
			})
		}
	}
	return res, nil
}

// RunAblationSimilarity (A3) compares the literal Eq. 2 similarity with
// the normalized default (DESIGN.md §2.3).
func RunAblationSimilarity(s Setup) (*AblationResult, error) {
	res := &AblationResult{
		Name:   "A3: Eq. 2 literal vs normalized similarity (PSA, N=1000)",
		Header: []string{"similarity", "makespan (s)", "hit rate"},
		Notes: "The literal Eq. 2 is not length-normalized, so the 0.8 threshold\n" +
			"rarely fires and the STGA degrades toward the cold-start GA.",
	}
	for _, literal := range []bool{false, true} {
		name := "normalized"
		if literal {
			name = "Eq. 2 literal"
		}
		r, sc, err := runSTGAConfigured(s, 1000, func(c *stga.Config) {
			c.UseEq2Literal = literal
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			name, e3(r.Summary.Makespan), f2(sc.Table().HitRate()),
		})
	}
	return res, nil
}

// RunAblationFailModel (A4) compares failure-detection timings: uniform
// fraction of the attempt vs only at the very end.
func RunAblationFailModel(s Setup) (*AblationResult, error) {
	res := &AblationResult{
		Name:   "A4: failure-detection timing (PSA, N=1000)",
		Header: []string{"timing", "algorithm", "makespan (s)", "Nfail"},
		Notes:  "FailAtEnd wastes the full attempt, so risky modes suffer more.",
	}
	for _, timing := range []sched.FailureTiming{sched.FailUniform, sched.FailAtEnd} {
		name := "uniform-fraction"
		if timing == sched.FailAtEnd {
			name = "at-end"
		}
		sweep := s
		sweep.FailTiming = timing
		for _, a := range []Algorithm{MinMinRisky, AlgSTGA} {
			agg, err := sweep.runAgg(func(seed uint64) (*Workload, error) {
				return sweep.PSAWorkload(seed, 1000)
			}, a)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, []string{
				name, a.String(), e3(agg.Makespan.Mean()), i0(agg.NFail.Mean()),
			})
		}
	}
	return res, nil
}
