package experiments

import (
	"fmt"
	"strings"

	"trustgrid/internal/sched"
)

// table renders rows as an aligned ASCII table.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// csvJoin renders rows as CSV (no quoting needed: numeric content).
func csvJoin(header []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(strings.Join(header, ","))
	b.WriteByte('\n')
	for _, row := range rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func e3(v float64) string { return fmt.Sprintf("%.3e", v) }
func i0(v float64) string { return fmt.Sprintf("%.0f", v) }

// Render formats the Fig. 7(a) sweep.
func (r *Fig7aResult) Render() string {
	rows := make([][]string, len(r.F))
	for i := range r.F {
		rows[i] = []string{f2(r.F[i]), e3(r.MinMin[i]), e3(r.Sufferage[i])}
	}
	t := table([]string{"f", "Min-Min f-Risky makespan (s)", "Sufferage f-Risky makespan (s)"}, rows)
	return fmt.Sprintf("Fig. 7(a): makespan vs risk threshold f (PSA, N=1000)\n%s\nargmin: Min-Min f=%.1f, Sufferage f=%.1f\n",
		t, r.BestFMinMin, r.BestFSufferage)
}

// CSV formats the Fig. 7(a) sweep as CSV.
func (r *Fig7aResult) CSV() string {
	rows := make([][]string, len(r.F))
	for i := range r.F {
		rows[i] = []string{f2(r.F[i]), e3(r.MinMin[i]), e3(r.Sufferage[i])}
	}
	return csvJoin([]string{"f", "minmin_makespan_s", "sufferage_makespan_s"}, rows)
}

// Render formats the Fig. 7(b) sweep.
func (r *Fig7bResult) Render() string {
	rows := make([][]string, len(r.Iterations))
	for i := range r.Iterations {
		rows[i] = []string{fmt.Sprint(r.Iterations[i]), e3(r.Makespan[i])}
	}
	return "Fig. 7(b): STGA makespan vs iteration budget (PSA, N=1000)\n" +
		table([]string{"iterations", "makespan (s)"}, rows)
}

// CSV formats the Fig. 7(b) sweep as CSV.
func (r *Fig7bResult) CSV() string {
	rows := make([][]string, len(r.Iterations))
	for i := range r.Iterations {
		rows[i] = []string{fmt.Sprint(r.Iterations[i]), e3(r.Makespan[i])}
	}
	return csvJoin([]string{"iterations", "makespan_s"}, rows)
}

// Render formats the Fig. 5 convergence comparison (sampled rows).
func (r *Fig5Result) Render() string {
	var rows [][]string
	for i, g := range r.Generations {
		if g%10 == 0 || i == len(r.Generations)-1 {
			rows = append(rows, []string{fmt.Sprint(g), f3(r.STGA[i]), f3(r.ColdGA[i])})
		}
	}
	t := table([]string{"generation", "STGA rel. fitness", "cold GA rel. fitness"}, rows)
	out := fmt.Sprintf("Fig. 5: warm vs cold GA convergence (1.0 = converged)\n%s\n"+
		"generation-0 gap (cold/warm): %.3f; STGA history hit rate: %.2f\n",
		t, r.Gen0Gap, r.HistoryHitRate)
	if r.Stall > 0 {
		out += fmt.Sprintf("mean generations to stop at stall %d: STGA %.1f, cold GA %.1f\n", r.Stall, r.STGAStop, r.ColdGAStop)
	}
	return out
}

// Render formats the Fig. 8 bar groups.
func (r *NASResult) Render() string {
	rows := make([][]string, 0, len(r.Algorithms))
	for _, a := range r.Algorithms {
		rows = append(rows, []string{
			a.Algorithm.String(),
			e3(a.Makespan.Mean()),
			i0(a.NFail.Mean()),
			i0(a.NRisk.Mean()),
			f2(a.Slowdown.Mean()),
			e3(a.Response.Mean()),
			f3(a.MeanUtil.Mean()),
		})
	}
	return "Fig. 8: NAS trace results (a: makespan, b: Nfail/Nrisk, c: slowdown, d: response)\n" +
		table([]string{"algorithm", "makespan (s)", "Nfail", "Nrisk", "slowdown", "avg response (s)", "mean util"}, rows)
}

// CSV formats the NAS comparison as CSV.
func (r *NASResult) CSV() string {
	rows := make([][]string, 0, len(r.Algorithms))
	for _, a := range r.Algorithms {
		rows = append(rows, []string{
			a.Algorithm.String(), e3(a.Makespan.Mean()), i0(a.NFail.Mean()),
			i0(a.NRisk.Mean()), f3(a.Slowdown.Mean()), e3(a.Response.Mean()),
			f3(a.MeanUtil.Mean()),
		})
	}
	return csvJoin([]string{"algorithm", "makespan_s", "nfail", "nrisk",
		"slowdown", "avg_response_s", "mean_utilization"}, rows)
}

// RenderFig9 formats per-site utilizations (Fig. 9 a/b/c) as one table
// with a column per algorithm.
func (r *NASResult) RenderFig9() string {
	if len(r.Algorithms) == 0 || len(r.Algorithms[0].SiteUtil) == 0 {
		return "Fig. 9: no site data\n"
	}
	nSites := len(r.Algorithms[0].SiteUtil)
	header := []string{"site"}
	for _, a := range r.Algorithms {
		header = append(header, a.Algorithm.String())
	}
	rows := make([][]string, nSites)
	for site := 0; site < nSites; site++ {
		row := []string{fmt.Sprint(site + 1)}
		for _, a := range r.Algorithms {
			row = append(row, fmt.Sprintf("%.1f%%", 100*a.SiteUtil[site]))
		}
		rows[site] = row
	}
	return "Fig. 9: per-site utilization on the NAS trace\n" + table(header, rows)
}

// RenderTable2 formats the paper's Table 2. With more than one rep it
// adds the paired per-rep ratios with their 95 % t-intervals, and it
// closes with the STGA's generations per round and its last-improvement
// histogram (DESIGN.md §2.4).
func (r *NASResult) RenderTable2() string {
	rows2 := r.Table2()
	header := []string{"heuristic", "alpha (makespan)", "beta (response)", "rank"}
	ref := r.ByAlgorithm(AlgSTGA)
	paired := ref != nil && len(ref.Makespan.Values) > 1
	if paired {
		header = append(header, "paired alpha [95% CI]", "paired beta [95% CI]")
	}
	rows := make([][]string, 0, len(rows2))
	for _, row := range rows2 {
		cells := []string{row.Algorithm.String(), f3(row.Alpha), f3(row.Beta), ordinal(row.Rank)}
		if paired {
			cells = append(cells, row.PairedAlpha.String(), row.PairedBeta.String())
		}
		rows = append(rows, cells)
	}
	out := "Table 2: performance ratios vs STGA on NAS trace\n" + table(header, rows)
	if ref != nil {
		out += renderGAWork(ref.Work)
	}
	return out
}

// String renders the interval as "mean [lo, hi]".
func (iv Interval) String() string {
	return fmt.Sprintf("%.3f [%.3f, %.3f]", iv.Mean, iv.Lo, iv.Hi)
}

// renderGAWork summarises a GA scheduler's rounds: generations run per
// round, the shares of rounds that stopped on their span floor and on a
// proof that their seeds' or initial population's best was optimal,
// and the share of rounds whose last improving generation falls in
// each of the histogram's power-of-two buckets up to the first that
// holds them all. Empty when no round ran.
func renderGAWork(w sched.GAWork) string {
	var rounds uint64
	for _, n := range w.LastImproved.Buckets {
		rounds += n
	}
	if rounds == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "STGA rounds: %d, generations per round %.1f, stopped at the span floor %.1f%%, on a proof %.1f%%; last improving generation <= 1: ",
		rounds, float64(w.Generations)/float64(rounds), 100*float64(w.FloorStops)/float64(rounds), 100*float64(w.ProvedStops)/float64(rounds))
	var cum uint64
	for k, n := range w.LastImproved.Buckets {
		cum += n
		if k > 0 {
			fmt.Fprintf(&b, ", <= %d: ", 1<<k)
		}
		fmt.Fprintf(&b, "%.1f%%", 100*float64(cum)/float64(rounds))
		if cum == rounds {
			break
		}
	}
	b.WriteString("\n")
	return b.String()
}

func ordinal(n int) string {
	switch n {
	case 1:
		return "1st"
	case 2:
		return "2nd"
	case 3:
		return "3rd"
	default:
		return fmt.Sprintf("%dth", n)
	}
}

// Render formats the Fig. 10 scaling study.
func (r *Fig10Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 10: PSA scaling with number of jobs N\n")
	sections := []struct {
		name string
		data [][]float64
		fmt  func(float64) string
	}{
		{"(a) makespan (s)", r.Makespan, e3},
		{"(b) Nfail", r.NFail, i0},
		{"(b) Nrisk", r.NRisk, i0},
		{"(c) slowdown ratio", r.Slowdown, f2},
		{"(d) avg response (s)", r.Response, e3},
	}
	for _, sec := range sections {
		header := []string{"N"}
		for _, a := range r.Algorithms {
			header = append(header, a.String())
		}
		rows := make([][]string, len(r.Sizes))
		for si, n := range r.Sizes {
			row := []string{fmt.Sprint(n)}
			for ai := range r.Algorithms {
				row = append(row, sec.fmt(sec.data[ai][si]))
			}
			rows[si] = row
		}
		b.WriteString(sec.name + "\n")
		b.WriteString(table(header, rows))
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV formats the Fig. 10 scaling study as CSV.
func (r *Fig10Result) CSV() string {
	header := []string{"n", "algorithm", "makespan_s", "nfail", "nrisk", "slowdown", "avg_response_s"}
	var rows [][]string
	for si, n := range r.Sizes {
		for ai, a := range r.Algorithms {
			rows = append(rows, []string{
				fmt.Sprint(n), a.String(), e3(r.Makespan[ai][si]), i0(r.NFail[ai][si]),
				i0(r.NRisk[ai][si]), f3(r.Slowdown[ai][si]), e3(r.Response[ai][si]),
			})
		}
	}
	return csvJoin(header, rows)
}
