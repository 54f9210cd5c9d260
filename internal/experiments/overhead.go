package experiments

import (
	"fmt"
	"time"
)

// OverheadRow reports one algorithm's scheduling cost.
type OverheadRow struct {
	Algorithm    Algorithm
	Total        time.Duration
	PerBatch     time.Duration
	PerJob       time.Duration
	Batches      int
	LargestBatch int
}

// OverheadResult quantifies the paper's central feasibility claim: that
// the STGA is "very fast and easy to implement" and suitable for online
// scheduling. It measures real wall-clock time spent inside
// Scheduler.Schedule over a full PSA run for every paper algorithm.
type OverheadResult struct {
	Jobs int
	Rows []OverheadRow
}

// RunOverhead measures per-batch scheduling cost on PSA (N = 1000).
func RunOverhead(s Setup) (*OverheadResult, error) {
	w, err := s.PSAWorkload(s.Seed, 1000)
	if err != nil {
		return nil, err
	}
	out := &OverheadResult{Jobs: len(w.Jobs)}
	for _, a := range PaperAlgorithms {
		res, _, err := s.runOnce(w, a, s.Seed^0xbeefcafe, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a, err)
		}
		row := OverheadRow{
			Algorithm:    a,
			Total:        res.SchedulerTime,
			Batches:      res.Batches,
			LargestBatch: res.LargestBatch,
		}
		if res.Batches > 0 {
			row.PerBatch = res.SchedulerTime / time.Duration(res.Batches)
		}
		row.PerJob = res.SchedulerTime / time.Duration(len(w.Jobs))
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render formats the overhead comparison.
func (r *OverheadResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Algorithm.String(),
			row.Total.Round(time.Microsecond).String(),
			row.PerBatch.Round(time.Microsecond).String(),
			row.PerJob.Round(time.Microsecond).String(),
			fmt.Sprint(row.Batches),
			fmt.Sprint(row.LargestBatch),
		})
	}
	return fmt.Sprintf("Scheduling overhead on PSA (N=%d): wall-clock cost of Scheduler.Schedule\n%s"+
		"The STGA's per-batch cost must sit far below the scheduling period Δ for\n"+
		"online use (the paper's feasibility argument for the 100-iteration GA).\n",
		r.Jobs, table([]string{"algorithm", "total", "per batch", "per job", "batches", "largest batch"}, rows))
}
