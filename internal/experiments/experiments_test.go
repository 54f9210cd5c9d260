package experiments

import (
	"strings"
	"testing"

	"trustgrid/internal/grid"
	"trustgrid/internal/rng"
)

// microSetup is even smaller than TestSetup: integration tests must stay
// inside a second or two.
func microSetup() Setup {
	s := TestSetup()
	s.NASJobs = 200
	s.NASSpan = 1 * 24 * 3600
	s.Population = 24
	s.Generations = 12
	s.TrainingJobs = 60
	s.TrainBatchSize = 15
	return s
}

func TestNASWorkloadShape(t *testing.T) {
	s := microSetup()
	w, err := s.NASWorkload(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != s.NASJobs || len(w.Sites) != 12 {
		t.Fatalf("NAS workload: %d jobs, %d sites", len(w.Jobs), len(w.Sites))
	}
	if len(w.Training) != s.TrainingJobs {
		t.Fatalf("training jobs %d, want %d", len(w.Training), s.TrainingJobs)
	}
}

func TestPSAWorkloadShape(t *testing.T) {
	s := microSetup()
	w, err := s.PSAWorkload(7, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 300 || len(w.Sites) != 20 {
		t.Fatalf("PSA workload: %d jobs, %d sites", len(w.Jobs), len(w.Sites))
	}
}

func TestRunOnceAllAlgorithms(t *testing.T) {
	s := microSetup()
	w, err := s.NASWorkload(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range append(append([]Algorithm{}, PaperAlgorithms...), AlgColdGA) {
		res, _, err := s.runOnce(w, a, 99, nil)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if res.Summary.Jobs != len(w.Jobs) {
			t.Fatalf("%s completed %d/%d jobs", a, res.Summary.Jobs, len(w.Jobs))
		}
		if res.Summary.Slowdown < 1 {
			t.Fatalf("%s slowdown %v < 1", a, res.Summary.Slowdown)
		}
	}
}

func TestSecureModesNeverFail(t *testing.T) {
	s := microSetup()
	w, err := s.NASWorkload(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Algorithm{MinMinSecure, SufferageSecure} {
		res, _, err := s.runOnce(w, a, 11, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.NFail != 0 || res.Summary.NRisk != 0 {
			t.Fatalf("%s: NFail=%d NRisk=%d, want 0/0", a, res.Summary.NFail, res.Summary.NRisk)
		}
	}
}

func TestRiskOrderingAcrossModes(t *testing.T) {
	// NRisk(secure) = 0 <= NRisk(f-risky) <= NRisk(risky) must hold for
	// the same workload.
	s := microSetup()
	w, err := s.NASWorkload(13)
	if err != nil {
		t.Fatal(err)
	}
	var nRisk [3]int
	for i, a := range []Algorithm{MinMinSecure, MinMinFRisky, MinMinRisky} {
		res, _, err := s.runOnce(w, a, 17, nil)
		if err != nil {
			t.Fatal(err)
		}
		nRisk[i] = res.Summary.NRisk
	}
	if !(nRisk[0] == 0 && nRisk[0] <= nRisk[1] && nRisk[1] <= nRisk[2]) {
		t.Fatalf("risk ordering violated: secure=%d f-risky=%d risky=%d",
			nRisk[0], nRisk[1], nRisk[2])
	}
}

func TestFig7aSmall(t *testing.T) {
	s := microSetup()
	// Only three f points to keep the test quick; the CLI runs the full
	// sweep. Reuse RunFig7a by monkey-scaling: direct call but with the
	// micro PSA size is not exposed, so call the pieces.
	for _, f := range []float64{0, 0.5, 1} {
		sweep := s
		sweep.F = f
		agg, err := sweep.runAgg(func(seed uint64) (*Workload, error) {
			return sweep.PSAWorkload(seed, 150)
		}, MinMinFRisky)
		if err != nil {
			t.Fatal(err)
		}
		if agg.Makespan.Mean() <= 0 {
			t.Fatalf("f=%v produced non-positive makespan", f)
		}
		if f == 0 && agg.NFail.Mean() != 0 {
			t.Fatalf("f=0 must be secure, NFail=%v", agg.NFail.Mean())
		}
	}
}

func TestFig7bSmall(t *testing.T) {
	s := microSetup()
	res, err := RunFig7b(s, []int{2, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Makespan) != 2 {
		t.Fatalf("expected 2 points, got %d", len(res.Makespan))
	}
	if !strings.Contains(res.Render(), "Fig. 7(b)") {
		t.Fatal("render missing title")
	}
	if res.CSV() == "" {
		t.Fatal("CSV empty")
	}
}

func TestFig5Small(t *testing.T) {
	s := microSetup()
	s.Stall = 4 // below the cap, so some rounds would stop early
	res, err := RunFig5(s)
	if err != nil {
		t.Fatal(err)
	}
	// The curves run to the cap whatever the stall count; generations to
	// stop are read off them, no later than the cap (a round whose best
	// starts on its span floor stops at 0).
	if len(res.STGA) != s.Generations+1 || len(res.ColdGA) != s.Generations+1 {
		t.Fatalf("curve lengths %d/%d, want %d", len(res.STGA), len(res.ColdGA), s.Generations+1)
	}
	for _, stop := range []float64{res.STGAStop, res.ColdGAStop} {
		if res.Stall != s.Stall || stop < 0 || stop > float64(s.Generations) {
			t.Fatalf("generations to stop at stall %d: STGA %v, cold %v; want within [0, %d]",
				res.Stall, res.STGAStop, res.ColdGAStop, s.Generations)
		}
	}
	// Both normalized curves end at 1.0 by construction.
	last := len(res.STGA) - 1
	if res.STGA[last] < 0.99 || res.STGA[last] > 1.01 {
		t.Fatalf("warm curve should end at ~1, got %v", res.STGA[last])
	}
	// The defining Fig. 5 property: warm start begins no worse than cold.
	if res.STGA[0] > res.ColdGA[0]*1.05 {
		t.Fatalf("STGA gen-0 (%v) should not start worse than cold GA (%v)",
			res.STGA[0], res.ColdGA[0])
	}
	if !strings.Contains(res.Render(), "Fig. 5") {
		t.Fatal("render missing title")
	}
}

func TestNASResultViews(t *testing.T) {
	s := microSetup()
	s.NASJobs = 150
	res, err := RunNAS(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Algorithms) != 7 {
		t.Fatalf("expected 7 algorithms, got %d", len(res.Algorithms))
	}
	if res.ByAlgorithm(AlgSTGA) == nil {
		t.Fatal("STGA aggregate missing")
	}
	rows := res.Table2()
	if len(rows) != 7 {
		t.Fatalf("Table 2 rows %d", len(rows))
	}
	var stgaRow *Table2Row
	for i := range rows {
		if rows[i].Algorithm == AlgSTGA {
			stgaRow = &rows[i]
		}
		if rows[i].Alpha <= 0 || rows[i].Beta <= 0 {
			t.Fatalf("non-positive ratio in %+v", rows[i])
		}
	}
	if stgaRow == nil {
		t.Fatal("STGA missing from Table 2")
	}
	if stgaRow.Alpha != 1 || stgaRow.Beta != 1 {
		t.Fatalf("STGA must be the reference: α=%v β=%v", stgaRow.Alpha, stgaRow.Beta)
	}
	for _, render := range []string{res.Render(), res.RenderFig9(), res.RenderTable2()} {
		if render == "" {
			t.Fatal("empty render")
		}
	}
	if !strings.Contains(res.CSV(), "algorithm") {
		t.Fatal("CSV missing header")
	}
}

func TestFig10Small(t *testing.T) {
	s := microSetup()
	res, err := RunFig10(s, []int{100, 200})
	if err != nil {
		t.Fatal(err)
	}
	// Monotone growth in N for every algorithm's makespan.
	for ai := range res.Algorithms {
		if res.Makespan[ai][1] <= res.Makespan[ai][0] {
			t.Fatalf("%s makespan not increasing with N: %v",
				res.Algorithms[ai], res.Makespan[ai])
		}
	}
	if !strings.Contains(res.Render(), "Fig. 10") || res.CSV() == "" {
		t.Fatal("bad render/CSV")
	}
}

func TestAblationsSmall(t *testing.T) {
	s := microSetup()
	s.Generations = 6
	s.Population = 16
	// Shrink further: ablations iterate many configurations.
	for _, ab := range AllAblations {
		ab := ab
		t.Run(ab.Name, func(t *testing.T) {
			// Substitute tiny PSA sizes by reducing Setup knobs only;
			// the ablation functions use N=1000 internally, which stays
			// tractable with the micro GA settings.
			if testing.Short() {
				t.Skip("ablation sweep skipped in -short")
			}
			res, err := ab.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) == 0 {
				t.Fatal("ablation produced no rows")
			}
			if !strings.Contains(res.Render(), "Ablation") {
				t.Fatal("render missing title")
			}
		})
	}
}

func TestAlgorithmStrings(t *testing.T) {
	want := map[Algorithm]string{
		MinMinSecure:    "Min-Min Secure",
		MinMinFRisky:    "Min-Min f-Risky",
		MinMinRisky:     "Min-Min Risky",
		SufferageSecure: "Sufferage Secure",
		SufferageFRisky: "Sufferage f-Risky",
		SufferageRisky:  "Sufferage Risky",
		AlgSTGA:         "STGA",
		AlgColdGA:       "GA (cold start)",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), s)
		}
	}
}

func TestSetupPolicyUsesLambda(t *testing.T) {
	s := DefaultSetup()
	s.Lambda = 10
	p := s.Policy(grid.FRisky, 0.5)
	if p.Model.Lambda != 10 {
		t.Fatal("policy must inherit the setup's λ")
	}
}

// TestSchedulerLabelMatchesName: the name the service reports without
// building a scheduler is the built scheduler's Name(), for every
// scheduler and risk mode, in any case; unknown names and modes are
// refused.
func TestSchedulerLabelMatchesName(t *testing.T) {
	s := TestSetup()
	s.F = 0.3
	for _, mode := range []string{"secure", "risky", "frisky"} {
		policy, err := s.PolicyByMode(mode)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range append([]string{"COLDGA", "Stga", "MinMin"}, SchedulerNames...) {
			sc, err := s.SchedulerByName(name, policy, rng.New(1), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			label, err := SchedulerLabel(name, policy)
			if err != nil || label != sc.Name() {
				t.Errorf("%s %s: SchedulerLabel = %q (%v), Name() = %q", name, mode, label, err, sc.Name())
			}
		}
	}
	if _, err := SchedulerLabel("bogus", grid.Policy{}); err == nil {
		t.Error("SchedulerLabel accepted an unknown scheduler")
	}
	if _, err := s.PolicyByMode("paranoid"); err == nil {
		t.Error("PolicyByMode accepted an unknown mode")
	}
}

func TestOverheadSmall(t *testing.T) {
	s := microSetup()
	res, err := RunOverhead(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("overhead rows %d, want 7", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Batches <= 0 || row.LargestBatch <= 0 {
			t.Fatalf("%s: missing batch statistics: %+v", row.Algorithm, row)
		}
		if row.Total < 0 || row.PerBatch < 0 {
			t.Fatalf("%s: negative durations", row.Algorithm)
		}
	}
	if !strings.Contains(res.Render(), "Scheduling overhead") {
		t.Fatal("render missing title")
	}
}

// TestStallStop pins the read-off rule: generation 0 for a proved
// round, else the first generation on a non-zero floor or that ends
// stall flat ones, else the cap; stall 0 ignores the floor and the
// proof.
func TestStallStop(t *testing.T) {
	tr := []float64{5, 5, 5, 4, 4, 4, 4, 3}
	for _, c := range []struct {
		stall  int
		floor  float64
		proved bool
		want   int
	}{
		{0, 0, false, 7}, {1, 0, false, 1}, {2, 0, false, 2}, {3, 0, false, 6}, {4, 0, false, 7}, {10, 0, false, 7},
		{0, 5, false, 7}, {10, 5, false, 0}, {10, 4, false, 3}, {2, 4, false, 2}, {10, 3, false, 7}, {10, 2, false, 7}, {3, 4, false, 3},
		{0, 0, true, 7}, {10, 0, true, 0}, {3, 4, true, 0}, {0, 5, true, 7},
	} {
		if got := stallStop(tr, c.stall, c.floor, c.proved); got != c.want {
			t.Errorf("stallStop(stall %d, floor %v, proved %v) = %d, want %d", c.stall, c.floor, c.proved, got, c.want)
		}
	}
}
