package experiments

import (
	"fmt"
	"strings"

	"trustgrid/internal/fuzzy"
	"trustgrid/internal/grid"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
	"trustgrid/internal/stats"
)

// The dynamic-grid study (DESIGN.md §7.4): the PSA workload run on a
// churning platform where a fraction of sites overstate their declared
// security level, comparing static trust (the paper's model: the
// scheduler believes declarations forever) against online reputation
// feedback (trust re-derived from observed outcomes). The axes the
// dynamic-scheduling literature cares about — resources joining,
// leaving and degrading mid-run, and trust earned rather than declared
// — are exactly what the closed-world figures cannot show.

// ChurnAlgorithms is the three-algorithm roster of the study. The
// heuristics run in Secure mode — the admission rule that takes the
// trust vector at face value, which is exactly where a wrong declaration
// hurts most and where feedback pays; the STGA keeps its paper
// operating point (f-risky at Setup.F).
var ChurnAlgorithms = []Algorithm{MinMinSecure, SufferageSecure, AlgSTGA}

// ChurnCell aggregates one (algorithm, trust mode) pair over reps.
type ChurnCell struct {
	Algorithm    Algorithm
	Feedback     bool // reputation feedback on?
	Makespan     stats.Sample
	Response     stats.Sample
	MeanUtil     stats.Sample
	NRisk        stats.Sample
	NFail        stats.Sample
	NInterrupted stats.Sample
}

// ChurnStudyResult holds both trust modes for every algorithm, plus the
// shape of the churn the runs endured.
type ChurnStudyResult struct {
	Algorithms []Algorithm
	// Static[i] and Feedback[i] correspond to Algorithms[i].
	Static, Feedback []*ChurnCell
	// ChurnEvents is the event count of the rep-0 churn trace.
	ChurnEvents int
	// DeceptiveSites is the number of overstating sites (rep 0).
	DeceptiveSites int
}

// churnDynamics builds the deterministic dynamic-grid input for one rep:
// the churn trace spans the workload's expected arrival span, and
// DeceptiveFrac of the sites truly run DeceptiveGap below declaration.
func (s Setup) churnDynamics(seed uint64, w *Workload, reputation bool) *sched.DynamicsConfig {
	r := rng.New(seed)
	horizon := float64(s.ChurnJobs) / 0.008 // PSA arrival span (Table 1 rate)
	churn, err := grid.DefaultChurnConfig(horizon).Generate(r.Derive("churn"), len(w.Sites))
	if err != nil {
		// DefaultChurnConfig is valid by construction.
		panic("experiments: churn generation failed: " + err.Error())
	}
	dyn := &sched.DynamicsConfig{
		Churn:      churn,
		TrueLevels: grid.DeceptiveLevels(w.Sites, s.DeceptiveFrac, s.DeceptiveGap, r.Derive("deceptive")),
	}
	if reputation {
		cfg := fuzzy.DefaultReputationConfig()
		dyn.Reputation = &cfg
	}
	return dyn
}

// RunChurnStudy runs the static-trust vs reputation-feedback comparison
// under churn for Min-Min, Sufferage and the STGA. Every (algorithm,
// mode) pair is an independent fan-out point; within a rep, both modes
// see the identical workload, churn trace and ground-truth security, so
// the measured difference is attributable to the feedback loop alone.
func RunChurnStudy(s Setup) (*ChurnStudyResult, error) {
	res := &ChurnStudyResult{
		Algorithms: ChurnAlgorithms,
		Static:     make([]*ChurnCell, len(ChurnAlgorithms)),
		Feedback:   make([]*ChurnCell, len(ChurnAlgorithms)),
	}
	pt := s.forPoint(2 * len(ChurnAlgorithms))
	err := fanOut(s.workers(), 2*len(ChurnAlgorithms), func(i int) error {
		ai, feedback := i/2, i%2 == 1
		cell := &ChurnCell{Algorithm: ChurnAlgorithms[ai], Feedback: feedback}
		for rep := 0; rep < pt.reps(); rep++ {
			seed := pt.Seed + uint64(rep)*1000003
			w, err := pt.PSAWorkload(seed, pt.ChurnJobs)
			if err != nil {
				return err
			}
			dyn := pt.churnDynamics(seed, w, feedback)
			r, _, err := pt.runOnce(w, cell.Algorithm, seed^0x9e3779b97f4a7c15, dyn)
			if err != nil {
				return fmt.Errorf("%s (feedback=%v) rep %d: %w", cell.Algorithm, feedback, rep, err)
			}
			cell.Makespan.Add(r.Summary.Makespan)
			cell.Response.Add(r.Summary.AvgResponse)
			cell.MeanUtil.Add(r.Summary.MeanUtilization)
			cell.NRisk.Add(float64(r.Summary.NRisk))
			cell.NFail.Add(float64(r.Summary.NFail))
			cell.NInterrupted.Add(float64(r.Summary.NInterrupted))
		}
		if feedback {
			res.Feedback[ai] = cell
		} else {
			res.Static[ai] = cell
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Describe the rep-0 churn the runs endured (identical across modes).
	w, err := s.PSAWorkload(s.Seed, s.ChurnJobs)
	if err != nil {
		return nil, err
	}
	dyn := s.churnDynamics(s.Seed, w, false)
	res.ChurnEvents = len(dyn.Churn)
	for i, l := range dyn.TrueLevels {
		if l != w.Sites[i].SecurityLevel {
			res.DeceptiveSites++
		}
	}
	return res, nil
}

// Render formats the study as the paper-style comparison table plus the
// headline feedback-vs-static deltas.
func (r *ChurnStudyResult) Render() string {
	rows := make([][]string, 0, 2*len(r.Algorithms))
	for i, a := range r.Algorithms {
		for _, cell := range []*ChurnCell{r.Static[i], r.Feedback[i]} {
			mode := "static"
			if cell.Feedback {
				mode = "feedback"
			}
			rows = append(rows, []string{
				a.String(), mode,
				e3(cell.Makespan.Mean()),
				e3(cell.Response.Mean()),
				f3(cell.MeanUtil.Mean()),
				i0(cell.NRisk.Mean()),
				i0(cell.NFail.Mean()),
				i0(cell.NInterrupted.Mean()),
			})
		}
	}
	t := table([]string{"algorithm", "trust", "makespan (s)", "avg response (s)",
		"mean util", "Nrisk", "Nfail", "Ninterrupted"}, rows)
	var b strings.Builder
	fmt.Fprintf(&b, "Dynamic grid: static trust vs reputation feedback under churn "+
		"(%d churn events, %d deceptive sites)\n%s", r.ChurnEvents, r.DeceptiveSites, t)
	for i, a := range r.Algorithms {
		st, fb := r.Static[i], r.Feedback[i]
		fmt.Fprintf(&b, "%s: feedback makespan %+.1f%%, Nfail %+.0f, response %+.1f%%\n",
			a,
			100*(fb.Makespan.Mean()-st.Makespan.Mean())/st.Makespan.Mean(),
			fb.NFail.Mean()-st.NFail.Mean(),
			100*(fb.Response.Mean()-st.Response.Mean())/st.Response.Mean())
	}
	return b.String()
}

// CSV formats the study as CSV.
func (r *ChurnStudyResult) CSV() string {
	rows := make([][]string, 0, 2*len(r.Algorithms))
	for i, a := range r.Algorithms {
		for _, cell := range []*ChurnCell{r.Static[i], r.Feedback[i]} {
			mode := "static"
			if cell.Feedback {
				mode = "feedback"
			}
			rows = append(rows, []string{
				a.String(), mode,
				e3(cell.Makespan.Mean()),
				e3(cell.Response.Mean()),
				f3(cell.MeanUtil.Mean()),
				i0(cell.NRisk.Mean()),
				i0(cell.NFail.Mean()),
				i0(cell.NInterrupted.Mean()),
			})
		}
	}
	return csvJoin([]string{"algorithm", "trust", "makespan_s", "avg_response_s",
		"mean_utilization", "nrisk", "nfail", "ninterrupted"}, rows)
}
