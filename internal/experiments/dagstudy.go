package experiments

import (
	"fmt"
	"strings"

	"trustgrid/internal/dag"
	"trustgrid/internal/grid"
	"trustgrid/internal/rng"
	"trustgrid/internal/stats"
)

// The dependent-workload study (DESIGN.md §14): a layered random DAG on
// the PSA platform, comparing precedence-oblivious Min-Min against the
// two rank-aware schedulers — Rank-Min-Min (HEFT-style list order) and
// the STGA (rank-keyed decode on DAG rounds) — plus the same workload
// with its edges stripped, which bounds what precedence itself costs.
// Layer width exceeds the 20-site platform, so within-batch order
// decides which completions make the next Δ-grid round; scheduling the
// heaviest remaining chains first is exactly what shortens the paths
// that bound the makespan.

// DAGAlgorithms is the roster of the study, all at the paper's f-risky
// operating point so the comparison isolates job ordering.
var DAGAlgorithms = []Algorithm{MinMinFRisky, AlgRankMinMin, AlgSTGA}

// DAGCell aggregates one (algorithm, workload mode) pair over reps.
type DAGCell struct {
	Algorithm     Algorithm
	Independent   bool // edges stripped?
	Makespan      stats.Sample
	Response      stats.Sample
	MeanUtil      stats.Sample
	NDeadlineMiss stats.Sample
	NFail         stats.Sample
}

// DAGStudyResult holds both workload modes for every algorithm plus the
// shape of the rep-0 DAG.
type DAGStudyResult struct {
	Algorithms []Algorithm
	// DAG[i] and Independent[i] correspond to Algorithms[i].
	DAG, Independent []*DAGCell
	// Depth and Edges describe the rep-0 workload.
	Depth, Edges int
}

// dagGenConfig is the study's workload shape: PSA-leveled workloads and
// a layer width wider than the platform.
func (s Setup) dagGenConfig() dag.GenConfig {
	return dag.GenConfig{
		Jobs:     s.DAGJobs,
		Width:    s.DAGWidth,
		EdgeProb: s.DAGEdgeProb,
		// Arrivals an order of magnitude denser than the PSA trace: the
		// backlog forms fast, so release order — not arrival spread —
		// dominates the schedule.
		Rate:         0.05,
		WorkloadStep: 15000,
		Levels:       20,
		Slack:        s.DAGSlack,
		MeanSpeed:    55, // PSA platform mean (levels 1..10 × 10, twice)
	}
}

// DAGWorkload generates the layered dependent workload on the PSA
// platform. Training jobs are the usual independent PSA campaign — the
// STGA's history table warms on shape, not on edges.
func (s Setup) DAGWorkload(seed uint64) (*Workload, error) {
	w, err := s.PSAWorkload(seed, 1) // platform + training; jobs replaced
	if err != nil {
		return nil, err
	}
	jobs, err := dag.Generate(rng.New(seed), s.dagGenConfig())
	if err != nil {
		return nil, err
	}
	w.Name = "DAG"
	w.Jobs = jobs
	return w, nil
}

// stripEdges deep-copies a job list without its dependencies — the
// independent-baseline transform. Deadlines are kept as stamped, so the
// baseline shows what the same deadlines cost without precedence.
func stripEdges(jobs []*grid.Job) []*grid.Job {
	out := make([]*grid.Job, len(jobs))
	for i, j := range jobs {
		c := j.Clone()
		c.DependsOn = nil
		out[i] = c
	}
	return out
}

// RunDAGStudy runs the dependent-workload comparison. Every (algorithm,
// mode) pair is an independent fan-out point; within a rep all pairs
// see the identical generated DAG, so differences are attributable to
// the scheduler (and, across modes, to precedence itself).
func RunDAGStudy(s Setup) (*DAGStudyResult, error) {
	res := &DAGStudyResult{
		Algorithms:  DAGAlgorithms,
		DAG:         make([]*DAGCell, len(DAGAlgorithms)),
		Independent: make([]*DAGCell, len(DAGAlgorithms)),
	}
	pt := s.forPoint(2 * len(DAGAlgorithms))
	err := fanOut(s.workers(), 2*len(DAGAlgorithms), func(i int) error {
		ai, independent := i/2, i%2 == 1
		cell := &DAGCell{Algorithm: DAGAlgorithms[ai], Independent: independent}
		for rep := 0; rep < pt.reps(); rep++ {
			seed := pt.Seed + uint64(rep)*1000003
			w, err := pt.DAGWorkload(seed)
			if err != nil {
				return err
			}
			if independent {
				w.Jobs = stripEdges(w.Jobs)
			}
			r, _, err := pt.runOnce(w, cell.Algorithm, seed^0x9e3779b97f4a7c15, nil)
			if err != nil {
				return fmt.Errorf("%s (independent=%v) rep %d: %w", cell.Algorithm, independent, rep, err)
			}
			cell.Makespan.Add(r.Summary.Makespan)
			cell.Response.Add(r.Summary.AvgResponse)
			cell.MeanUtil.Add(r.Summary.MeanUtilization)
			cell.NDeadlineMiss.Add(float64(r.Summary.NDeadlineMiss))
			cell.NFail.Add(float64(r.Summary.NFail))
		}
		if independent {
			res.Independent[ai] = cell
		} else {
			res.DAG[ai] = cell
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Describe the rep-0 DAG (identical across cells).
	jobs, err := dag.Generate(rng.New(s.Seed), s.dagGenConfig())
	if err != nil {
		return nil, err
	}
	res.Depth = (len(jobs) + s.DAGWidth - 1) / s.DAGWidth
	for _, j := range jobs {
		res.Edges += len(j.DependsOn)
	}
	return res, nil
}

// Render formats the study as a comparison table plus the headline
// rank-vs-baseline deltas on the DAG workload.
func (r *DAGStudyResult) Render() string {
	rows := make([][]string, 0, 2*len(r.Algorithms))
	for i, a := range r.Algorithms {
		for _, cell := range []*DAGCell{r.DAG[i], r.Independent[i]} {
			mode := "dag"
			if cell.Independent {
				mode = "independent"
			}
			rows = append(rows, []string{
				a.String(), mode,
				e3(cell.Makespan.Mean()),
				e3(cell.Response.Mean()),
				f3(cell.MeanUtil.Mean()),
				i0(cell.NDeadlineMiss.Mean()),
				i0(cell.NFail.Mean()),
			})
		}
	}
	t := table([]string{"algorithm", "workload", "makespan (s)", "avg response (s)",
		"mean util", "Nmiss", "Nfail"}, rows)
	var b strings.Builder
	fmt.Fprintf(&b, "Dependent jobs: precedence-aware vs oblivious scheduling "+
		"(depth %d, %d edges)\n%s", r.Depth, r.Edges, t)
	base := r.DAG[0]
	for i, a := range r.Algorithms[1:] {
		cell := r.DAG[i+1]
		fmt.Fprintf(&b, "%s: DAG makespan %+.1f%% vs %s, deadline misses %+.0f\n",
			a,
			100*(cell.Makespan.Mean()-base.Makespan.Mean())/base.Makespan.Mean(),
			base.Algorithm,
			cell.NDeadlineMiss.Mean()-base.NDeadlineMiss.Mean())
	}
	return b.String()
}

// CSV formats the study as CSV.
func (r *DAGStudyResult) CSV() string {
	rows := make([][]string, 0, 2*len(r.Algorithms))
	for i, a := range r.Algorithms {
		for _, cell := range []*DAGCell{r.DAG[i], r.Independent[i]} {
			mode := "dag"
			if cell.Independent {
				mode = "independent"
			}
			rows = append(rows, []string{
				a.String(), mode,
				e3(cell.Makespan.Mean()),
				e3(cell.Response.Mean()),
				f3(cell.MeanUtil.Mean()),
				i0(cell.NDeadlineMiss.Mean()),
				i0(cell.NFail.Mean()),
			})
		}
	}
	return csvJoin([]string{"algorithm", "workload", "makespan_s", "avg_response_s",
		"mean_utilization", "ndeadline_miss", "nfail"}, rows)
}
