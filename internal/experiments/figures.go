package experiments

import (
	"fmt"

	"trustgrid/internal/metrics"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
	"trustgrid/internal/stats"
	"trustgrid/internal/stga"
)

// Agg aggregates the paper's metrics over replicated runs of one
// (algorithm, workload) pair.
type Agg struct {
	Algorithm Algorithm
	Makespan  stats.Sample
	Response  stats.Sample
	Slowdown  stats.Sample
	NRisk     stats.Sample
	NFail     stats.Sample
	MeanUtil  stats.Sample
	IdleSites stats.Sample
	// SiteUtil[i] is the mean utilization of site i across reps.
	SiteUtil []float64
	// Work sums the GA work of every rep (zero for the heuristics).
	Work sched.GAWork
}

func (a *Agg) add(s metrics.Summary) {
	a.Makespan.Add(s.Makespan)
	a.Response.Add(s.AvgResponse)
	a.Slowdown.Add(s.Slowdown)
	a.NRisk.Add(float64(s.NRisk))
	a.NFail.Add(float64(s.NFail))
	a.MeanUtil.Add(s.MeanUtilization)
	a.IdleSites.Add(float64(s.IdleSites))
	if a.SiteUtil == nil {
		a.SiteUtil = make([]float64, len(s.SiteUtilization))
	}
	for i, u := range s.SiteUtilization {
		a.SiteUtil[i] += u
	}
}

func (a *Agg) finish(reps int) {
	for i := range a.SiteUtil {
		a.SiteUtil[i] /= float64(reps)
	}
}

// runAgg replicates one (workload family, algorithm) pair. The workload
// itself is regenerated per rep with a derived seed, so replication
// captures workload, platform and failure variability together.
func (s Setup) runAgg(mkWorkload func(seed uint64) (*Workload, error), a Algorithm) (*Agg, error) {
	agg := &Agg{Algorithm: a}
	for rep := 0; rep < s.reps(); rep++ {
		seed := s.Seed + uint64(rep)*1000003
		w, err := mkWorkload(seed)
		if err != nil {
			return nil, err
		}
		res, work, err := s.runOnce(w, a, seed^0x9e3779b97f4a7c15, nil)
		if err != nil {
			return nil, fmt.Errorf("%s rep %d: %w", a, rep, err)
		}
		agg.add(res.Summary)
		agg.Work.Add(work)
	}
	agg.finish(s.reps())
	return agg, nil
}

// ---------------------------------------------------------------------
// Fig. 7(a): makespan of the f-risky heuristics as f sweeps 0 → 1.
// ---------------------------------------------------------------------

// Fig7aResult holds the two makespan curves of Fig. 7(a).
type Fig7aResult struct {
	F         []float64
	MinMin    []float64
	Sufferage []float64
	// BestF are the argmin positions (the paper reports 0.5 and 0.6).
	BestFMinMin, BestFSufferage float64
}

// RunFig7a sweeps the f-risky threshold on the PSA workload (N = 1000).
// The 11 thresholds × 2 heuristics form 22 independent points that fan
// out across Setup.Workers goroutines.
func RunFig7a(s Setup) (*Fig7aResult, error) {
	// Accumulate the grid exactly as the serial loop did so the float64
	// thresholds (which feed the admission policy) are bit-identical.
	var fs []float64
	for f := 0.0; f <= 1.0001; f += 0.1 {
		fs = append(fs, f)
	}
	algos := []Algorithm{MinMinFRisky, SufferageFRisky}
	pt := s.forPoint(len(fs) * len(algos))
	mk := make([][]float64, len(algos))
	for i := range mk {
		mk[i] = make([]float64, len(fs))
	}
	err := fanOut(s.workers(), len(fs)*len(algos), func(i int) error {
		fi, ai := i/len(algos), i%len(algos)
		sweep := pt
		sweep.F = fs[fi]
		agg, err := sweep.runAgg(func(seed uint64) (*Workload, error) {
			return sweep.PSAWorkload(seed, 1000)
		}, algos[ai])
		if err != nil {
			return err
		}
		mk[ai][fi] = agg.Makespan.Mean()
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig7aResult{F: fs, MinMin: mk[0], Sufferage: mk[1]}
	res.BestFMinMin = res.F[stats.ArgMin(res.MinMin)]
	res.BestFSufferage = res.F[stats.ArgMin(res.Sufferage)]
	return res, nil
}

// ---------------------------------------------------------------------
// Fig. 7(b): makespan of the STGA as the iteration budget grows.
// ---------------------------------------------------------------------

// Fig7bResult holds the STGA makespan-vs-iterations curve.
type Fig7bResult struct {
	Iterations []int
	Makespan   []float64
}

// DefaultIterationSweep is the generation grid for Fig. 7(b).
var DefaultIterationSweep = []int{5, 10, 25, 40, 50, 75, 100, 150, 200}

// RunFig7b sweeps the STGA generation budget on the PSA workload
// (N = 1000), reproducing the convergence-by-50-iterations observation.
// Heuristic seeding is disabled and the stall rule is off: the figure
// measures what a fixed generation budget buys the evolutionary search
// itself.
func RunFig7b(s Setup, iterations []int) (*Fig7bResult, error) {
	if len(iterations) == 0 {
		iterations = DefaultIterationSweep
	}
	pt := s.forPoint(len(iterations))
	res := &Fig7bResult{
		Iterations: append([]int(nil), iterations...),
		Makespan:   make([]float64, len(iterations)),
	}
	err := fanOut(s.workers(), len(iterations), func(i int) error {
		sweep := pt
		sweep.Generations = iterations[i]
		sweep.Stall = 0
		sweep.NoHeuristicSeeds = true
		agg, err := sweep.runAgg(func(seed uint64) (*Workload, error) {
			return sweep.PSAWorkload(seed, 1000)
		}, AlgSTGA)
		if err != nil {
			return err
		}
		res.Makespan[i] = agg.Makespan.Mean()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ---------------------------------------------------------------------
// Fig. 5 (conceptual): warm-start vs cold-start GA convergence.
// ---------------------------------------------------------------------

// Fig5Result compares the per-generation best fitness of the STGA
// (history-seeded) against the conventional cold-start GA, averaged over
// all scheduling batches and normalized by each batch's final fitness
// (1.0 = converged value; higher = worse-than-final).
type Fig5Result struct {
	Generations []int
	STGA        []float64
	ColdGA      []float64
	// Gen0Gap is ColdGA[0]/STGA[0]: how much worse the cold start begins.
	Gen0Gap float64
	// Stall is the setup's stall count, and STGAStop and ColdGAStop the
	// mean generations per round a run with it, each round's span floor
	// and its optimality proof would have executed (stallStop over every
	// round's full trajectory, recorded floor and proof): the "fast"
	// claim read as generations to stop, under the rules the daemon
	// runs. Zero when Stall is.
	Stall                int
	STGAStop, ColdGAStop float64
	// HistoryHitRate is the STGA lookup hit rate over the run.
	HistoryHitRate float64
}

// RunFig5 measures convergence trajectories on the *recurrent* PSA
// workload (trace.RecurrentPSAConfig): the history table can only
// shortcut the search when job specifications actually recur, which is
// the paper's §3 premise for the space-time design. Heuristic seeding is
// off for both runs so the curves isolate the table's contribution, and
// the stall rule is off so every curve runs to the cap; generations to
// stop are read off those whole curves instead.
func RunFig5(s Setup) (*Fig5Result, error) {
	w, err := s.RecurrentPSAWorkload(s.Seed, 1000)
	if err != nil {
		return nil, err
	}
	pt := s.forPoint(2)
	pt.Stall = 0
	collect := func(cold bool) (curve []float64, stop, hit float64, err error) {
		cfg := pt.stgaConfig()
		cfg.DisableHistory = cold
		// Isolate the history table's contribution: neither run may
		// start from current-batch heuristic schedules.
		cfg.SeedHeuristics = false
		cfg.RecordTrajectories = true
		r := rng.New(s.Seed ^ 0xabcdef)
		sc := stga.New(cfg, r.Derive("stga"))
		if !cold {
			sc.Train(w.Training, w.Sites, s.TrainBatchSize)
		}
		_, err = sched.Run(sched.RunConfig{
			Jobs: w.Jobs, Sites: w.Sites, Scheduler: sc,
			BatchInterval: w.Batch, Security: s.Model(),
			FailureTiming: s.FailTiming, Rand: r.Derive("engine"),
		})
		if err != nil {
			return nil, 0, 0, err
		}
		// Average normalized trajectories across batches.
		curve = make([]float64, s.Generations+1)
		counts := make([]int, s.Generations+1)
		for i, tr := range sc.AllTrajectories {
			stop += float64(stallStop(tr, s.Stall, sc.AllFloors[i], sc.AllProved[i])) / float64(len(sc.AllTrajectories))
			final := tr[len(tr)-1]
			if final <= 0 {
				continue
			}
			for g, v := range tr {
				if g < len(curve) {
					curve[g] += v / final
					counts[g]++
				}
			}
		}
		for g := range curve {
			if counts[g] > 0 {
				curve[g] /= float64(counts[g])
			}
		}
		return curve, stop, sc.Table().HitRate(), nil
	}

	// The warm and cold runs are independent (the engine clones the
	// shared workload's jobs), so they fan out as two points.
	var warm, cold []float64
	var warmStop, coldStop, hit float64
	err = fanOut(s.workers(), 2, func(i int) error {
		if i == 0 {
			var err error
			warm, warmStop, hit, err = collect(false)
			return err
		}
		var err error
		cold, coldStop, _, err = collect(true)
		return err
	})
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{HistoryHitRate: hit}
	if s.Stall > 0 {
		res.Stall, res.STGAStop, res.ColdGAStop = s.Stall, warmStop, coldStop
	}
	for g := 0; g <= s.Generations; g++ {
		res.Generations = append(res.Generations, g)
		res.STGA = append(res.STGA, warm[g])
		res.ColdGA = append(res.ColdGA, cold[g])
	}
	if warm[0] > 0 {
		res.Gen0Gap = cold[0] / warm[0]
	}
	return res, nil
}

// stallStop returns the generations a run with ga.Config.Stall = stall
// and ga.Problem.Floor = floor executes, read off the fixed run's
// trajectory: such a run is a prefix of the fixed one
// (ga.TestStallIsPrefixOfFixedRun, ga.TestFloorStopKeepsResult,
// ga.TestProveStopKeepsResult) that ends at generation 0 when the
// round's ga.Problem.Prove certified the initial best (proved), at the
// first generation whose best is on a non-zero floor, at the first
// stall generations without a strict improvement — the first e with
// tr[e] == tr[e-stall], the best being non-increasing — or at the cap.
// stall 0 runs to the cap.
func stallStop(tr []float64, stall int, floor float64, proved bool) int {
	if stall > 0 {
		if proved {
			return 0
		}
		for e, best := range tr {
			if floor != 0 && best <= floor || e >= stall && best == tr[e-stall] {
				return e
			}
		}
	}
	return len(tr) - 1
}

// ---------------------------------------------------------------------
// Fig. 8 + Fig. 9 + Table 2: the NAS comparison of all seven algorithms.
// ---------------------------------------------------------------------

// NASResult bundles the aggregated metrics of every paper algorithm on
// the NAS trace workload; Figs. 8, 9 and Table 2 are all views of it.
type NASResult struct {
	Algorithms []*Agg
}

// ByAlgorithm returns the aggregate for a specific algorithm.
func (r *NASResult) ByAlgorithm(a Algorithm) *Agg {
	for _, agg := range r.Algorithms {
		if agg.Algorithm == a {
			return agg
		}
	}
	return nil
}

// RunNAS runs the full seven-algorithm NAS comparison, one fan-out
// point per algorithm.
func RunNAS(s Setup) (*NASResult, error) {
	pt := s.forPoint(len(PaperAlgorithms))
	res := &NASResult{Algorithms: make([]*Agg, len(PaperAlgorithms))}
	err := fanOut(s.workers(), len(PaperAlgorithms), func(i int) error {
		agg, err := pt.runAgg(pt.NASWorkload, PaperAlgorithms[i])
		if err != nil {
			return err
		}
		res.Algorithms[i] = agg
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table2Row is one row of the paper's Table 2.
type Table2Row struct {
	Algorithm Algorithm
	Alpha     float64 // makespan ratio vs STGA, of the rep means
	Beta      float64 // response-time ratio vs STGA, of the rep means
	// PairedAlpha and PairedBeta read the same ratios rep by rep:
	// runAgg hands every algorithm rep r's workload seed, so rep r's α
	// is this algorithm's makespan over the STGA's on one workload. The
	// interval is the per-rep ratios' 95 % t-interval (a point at one
	// rep).
	PairedAlpha, PairedBeta Interval
	Rank                    int
}

// Interval is a mean with the bounds of its confidence interval.
type Interval struct{ Mean, Lo, Hi float64 }

// pairedRatio returns the mean of num[r]/den[r] with its 95 %
// t-interval.
func pairedRatio(num, den []float64) Interval {
	ratios := make([]float64, len(num))
	for r := range num {
		ratios[r] = num[r] / den[r]
	}
	m, h := stats.Mean(ratios), stats.TCI95(ratios)
	return Interval{Mean: m, Lo: m - h, Hi: m + h}
}

// Table2 derives the α/β ratios and ranking from a NAS run.
func (r *NASResult) Table2() []Table2Row {
	ref := r.ByAlgorithm(AlgSTGA)
	if ref == nil {
		return nil
	}
	refMk, refRsp := ref.Makespan.Mean(), ref.Response.Mean()
	rows := make([]Table2Row, 0, len(r.Algorithms))
	for _, agg := range r.Algorithms {
		rows = append(rows, Table2Row{
			Algorithm:   agg.Algorithm,
			Alpha:       agg.Makespan.Mean() / refMk,
			Beta:        agg.Response.Mean() / refRsp,
			PairedAlpha: pairedRatio(agg.Makespan.Values, ref.Makespan.Values),
			PairedBeta:  pairedRatio(agg.Response.Values, ref.Response.Values),
		})
	}
	// Rank holistically by α+β ascending (STGA = 1+1 is minimal when it
	// wins both metrics, matching the paper's ordering).
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for k := i; k > 0; k-- {
			a, b := rows[order[k]], rows[order[k-1]]
			if a.Alpha+a.Beta < b.Alpha+b.Beta {
				order[k], order[k-1] = order[k-1], order[k]
			}
		}
	}
	rank := 0
	var prev float64 = -1
	for pos, idx := range order {
		score := rows[idx].Alpha + rows[idx].Beta
		if pos == 0 || score > prev+1e-3 {
			rank = pos + 1
		}
		rows[idx].Rank = rank
		prev = score
	}
	return rows
}

// ---------------------------------------------------------------------
// Fig. 10: PSA scaling in the number of jobs N.
// ---------------------------------------------------------------------

// Fig10Algorithms is the three-algorithm roster of the scaling study.
var Fig10Algorithms = []Algorithm{MinMinFRisky, SufferageFRisky, AlgSTGA}

// Fig10Result holds the scaling curves: Series[algorithm][i] corresponds
// to N = Sizes[i].
type Fig10Result struct {
	Sizes      []int
	Algorithms []Algorithm
	// Indexed [algo][size].
	Makespan [][]float64
	Response [][]float64
	Slowdown [][]float64
	NRisk    [][]float64
	NFail    [][]float64
}

// DefaultFig10Sizes is the paper's N sweep.
var DefaultFig10Sizes = []int{1000, 2000, 5000, 10000}

// RunFig10 runs the PSA scaling study.
func RunFig10(s Setup, sizes []int) (*Fig10Result, error) {
	if len(sizes) == 0 {
		sizes = DefaultFig10Sizes
	}
	res := &Fig10Result{Sizes: sizes, Algorithms: Fig10Algorithms}
	for range Fig10Algorithms {
		res.Makespan = append(res.Makespan, make([]float64, len(sizes)))
		res.Response = append(res.Response, make([]float64, len(sizes)))
		res.Slowdown = append(res.Slowdown, make([]float64, len(sizes)))
		res.NRisk = append(res.NRisk, make([]float64, len(sizes)))
		res.NFail = append(res.NFail, make([]float64, len(sizes)))
	}
	pt := s.forPoint(len(sizes) * len(Fig10Algorithms))
	err := fanOut(s.workers(), len(sizes)*len(Fig10Algorithms), func(i int) error {
		si, ai := i/len(Fig10Algorithms), i%len(Fig10Algorithms)
		n := sizes[si]
		agg, err := pt.runAgg(func(seed uint64) (*Workload, error) {
			return pt.PSAWorkload(seed, n)
		}, Fig10Algorithms[ai])
		if err != nil {
			return err
		}
		res.Makespan[ai][si] = agg.Makespan.Mean()
		res.Response[ai][si] = agg.Response.Mean()
		res.Slowdown[ai][si] = agg.Slowdown.Mean()
		res.NRisk[ai][si] = agg.NRisk.Mean()
		res.NFail[ai][si] = agg.NFail.Mean()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
