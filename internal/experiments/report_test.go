package experiments

import (
	"math"
	"strings"
	"testing"

	"trustgrid/internal/sched"
	"trustgrid/internal/stats"
)

func TestTableAlignment(t *testing.T) {
	out := table([]string{"a", "long-header"}, [][]string{
		{"xxxxxx", "1"},
		{"y", "2"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected header+separator+2 rows, got %d lines", len(lines))
	}
	// All lines equal width (trailing spaces aside, columns align).
	if !strings.HasPrefix(lines[1], "------") {
		t.Fatalf("separator missing: %q", lines[1])
	}
	if !strings.Contains(lines[2], "xxxxxx") || !strings.Contains(lines[3], "y") {
		t.Fatal("rows missing")
	}
}

func TestCSVJoin(t *testing.T) {
	out := csvJoin([]string{"a", "b"}, [][]string{{"1", "2"}, {"3", "4"}})
	want := "a,b\n1,2\n3,4\n"
	if out != want {
		t.Fatalf("csv = %q, want %q", out, want)
	}
}

func TestOrdinal(t *testing.T) {
	cases := map[int]string{1: "1st", 2: "2nd", 3: "3rd", 4: "4th", 11: "11th"}
	for n, want := range cases {
		if got := ordinal(n); got != want {
			t.Errorf("ordinal(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestFormatters(t *testing.T) {
	if f2(1.234) != "1.23" || f3(1.2345) != "1.234" {
		t.Fatal("fixed formatters wrong")
	}
	if e3(123456) != "1.235e+05" {
		t.Fatalf("e3 = %q", e3(123456))
	}
	if i0(3.7) != "4" {
		t.Fatalf("i0 = %q", i0(3.7))
	}
}

func TestFig7aRender(t *testing.T) {
	r := &Fig7aResult{
		F:           []float64{0, 0.5, 1},
		MinMin:      []float64{3e5, 2e5, 2.2e5},
		Sufferage:   []float64{3.1e5, 1.9e5, 2.3e5},
		BestFMinMin: 0.5, BestFSufferage: 0.5,
	}
	out := r.Render()
	if !strings.Contains(out, "argmin: Min-Min f=0.5") {
		t.Fatalf("render missing argmin: %s", out)
	}
	if !strings.Contains(r.CSV(), "minmin_makespan_s") {
		t.Fatal("CSV header missing")
	}
}

func TestTable2RankTieHandling(t *testing.T) {
	// Construct a NASResult with two identical algorithms: they must
	// share a rank.
	mk := func(a Algorithm, makespan, resp float64) *Agg {
		agg := &Agg{Algorithm: a}
		agg.Makespan.Add(makespan)
		agg.Response.Add(resp)
		return agg
	}
	res := &NASResult{Algorithms: []*Agg{
		mk(MinMinSecure, 200, 200),
		mk(MinMinRisky, 100, 100),
		mk(AlgSTGA, 100, 100),
	}}
	rows := res.Table2()
	var stgaRank, riskyRank, secureRank int
	for _, row := range rows {
		switch row.Algorithm {
		case AlgSTGA:
			stgaRank = row.Rank
		case MinMinRisky:
			riskyRank = row.Rank
		case MinMinSecure:
			secureRank = row.Rank
		}
	}
	if stgaRank != 1 || riskyRank != 1 {
		t.Fatalf("tied algorithms should share rank 1: stga=%d risky=%d", stgaRank, riskyRank)
	}
	if secureRank <= 1 {
		t.Fatalf("dominated algorithm must rank below: %d", secureRank)
	}
}

// TestTable2PairedIntervals: the paired ratios divide rep by rep, so
// the STGA's own row reads exactly 1 [1, 1] whatever its spread, a
// heuristic's mean is the mean of its per-rep ratios (not the ratio of
// means), its interval is their 95 % t-interval, and one rep prints no
// interval at all.
func TestTable2PairedIntervals(t *testing.T) {
	mk := func(a Algorithm, makespans, resps []float64) *Agg {
		agg := &Agg{Algorithm: a}
		for r := range makespans {
			agg.Makespan.Add(makespans[r])
			agg.Response.Add(resps[r])
		}
		return agg
	}
	res := &NASResult{Algorithms: []*Agg{
		mk(MinMinSecure, []float64{300, 330, 240}, []float64{150, 120, 200}),
		mk(AlgSTGA, []float64{200, 300, 200}, []float64{100, 100, 100}),
	}}
	rows := res.Table2()
	one := Interval{Mean: 1, Lo: 1, Hi: 1}
	if rows[1].PairedAlpha != one || rows[1].PairedBeta != one {
		t.Fatalf("STGA row reads α %v, β %v; want exactly 1 [1, 1]", rows[1].PairedAlpha, rows[1].PairedBeta)
	}
	// Per-rep α: 1.5, 1.1, 1.2 — mean 4.3/3, where the ratio of means is
	// 870/700.
	alphas := []float64{1.5, 1.1, 1.2}
	wantMean, half := stats.Mean(alphas), stats.TCI95(alphas)
	if a := rows[0].PairedAlpha; math.Abs(a.Mean-wantMean) > 1e-12 || math.Abs(a.Hi-a.Mean-half) > 1e-12 || math.Abs(a.Mean-a.Lo-half) > 1e-12 {
		t.Fatalf("Min-Min Secure paired α %+v, want %v ± %v", a, wantMean, half)
	}
	if math.Abs(rows[0].Alpha-870.0/700) > 1e-12 {
		t.Fatalf("α of the means %v, want %v", rows[0].Alpha, 870.0/700)
	}
	out := res.RenderTable2()
	if !strings.Contains(out, "paired alpha [95% CI]") || !strings.Contains(out, "1.000 [1.000, 1.000]") {
		t.Fatalf("three reps render without intervals:\n%s", out)
	}

	single := &NASResult{Algorithms: []*Agg{
		mk(MinMinSecure, []float64{300}, []float64{150}),
		mk(AlgSTGA, []float64{200}, []float64{100}),
	}}
	if out := single.RenderTable2(); strings.Contains(out, "[") || strings.Contains(out, "paired") {
		t.Fatalf("one rep renders an interval:\n%s", out)
	}
}

// TestRenderGAWorkFloorShare: the Table 2 summary names the shares of
// STGA rounds that stopped at their span floor and on a proof.
func TestRenderGAWorkFloorShare(t *testing.T) {
	w := sched.GAWork{Generations: 50, FloorStops: 1, ProvedStops: 2}
	w.LastImproved.Buckets[0] = 4
	want := "STGA rounds: 4, generations per round 12.5, stopped at the span floor 25.0%, on a proof 50.0%; last improving generation <= 1: 100.0%\n"
	if got := renderGAWork(w); got != want {
		t.Fatalf("renderGAWork = %q, want %q", got, want)
	}
}

func TestTable2WithoutSTGA(t *testing.T) {
	res := &NASResult{Algorithms: []*Agg{{Algorithm: MinMinSecure}}}
	if rows := res.Table2(); rows != nil {
		t.Fatal("Table2 without an STGA reference must return nil")
	}
}

func TestFig9RenderEmpty(t *testing.T) {
	res := &NASResult{}
	if !strings.Contains(res.RenderFig9(), "no site data") {
		t.Fatal("empty Fig. 9 should say so")
	}
}
