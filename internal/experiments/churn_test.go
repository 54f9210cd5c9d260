package experiments

import (
	"math"
	"testing"

	"trustgrid/internal/stats"
)

// TestChurnStudyFeedbackBeatsStatic is the acceptance gate of the
// dynamic-grid experiment. Over the fixed seeds 1–30, paired per seed,
// reputation feedback must cut Eq. 1 failures for each Secure heuristic:
// the 95 % t-interval of feedback − static Nfail lies below zero. The
// STGA is not gated: its f-risky admission does not respond to
// feedback, and its interval straddles zero (DESIGN.md §7.4). Every seed
// must still exercise the dynamics: churn events, deceptive sites, and
// static-trust failures and interruptions for every algorithm.
func TestChurnStudyFeedbackBeatsStatic(t *testing.T) {
	const seeds = 30
	const t975 = 2.045 // Student's t, 0.975 quantile, 29 degrees of freedom
	var algs []Algorithm
	var dNFail [][]float64 // per algorithm, per seed
	for seed := uint64(1); seed <= seeds; seed++ {
		s := TestSetup()
		s.Seed = seed
		res, err := RunChurnStudy(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.ChurnEvents == 0 {
			t.Fatalf("seed %d: churn trace is empty; the study is not exercising dynamics", seed)
		}
		if res.DeceptiveSites == 0 {
			t.Fatalf("seed %d: no deceptive sites; the trust gap cannot open", seed)
		}
		if algs == nil {
			algs, dNFail = res.Algorithms, make([][]float64, len(res.Algorithms))
		}
		for i, a := range res.Algorithms {
			st, fb := res.Static[i], res.Feedback[i]
			if st.NFail.Mean() == 0 {
				t.Errorf("seed %d, %s: static trust saw no failures; deception is not biting", seed, a)
			}
			if st.NInterrupted.Mean() == 0 {
				t.Errorf("seed %d, %s: churn interrupted no jobs; crashes are not landing", seed, a)
			}
			dNFail[i] = append(dNFail[i], fb.NFail.Mean()-st.NFail.Mean())
		}
	}
	for i, a := range algs {
		mean := stats.Mean(dNFail[i])
		half := t975 * stats.StdDev(dNFail[i]) / math.Sqrt(seeds)
		t.Logf("%s: feedback − static Nfail %.1f [%.1f, %.1f]", a, mean, mean-half, mean+half)
		if a != AlgSTGA && mean+half >= 0 {
			t.Errorf("%s: feedback − static Nfail %.1f [%.1f, %.1f]; the interval must lie below 0",
				a, mean, mean-half, mean+half)
		}
	}
}

// TestChurnStudyDeterministic pins the study's reproducibility: two runs
// from the same seed agree exactly, a different seed does not.
func TestChurnStudyDeterministic(t *testing.T) {
	s := TestSetup()
	s.Seed = 3
	s.ChurnJobs = 150
	a, err := RunChurnStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChurnStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.CSV() != b.CSV() {
		t.Fatalf("same seed, different results:\n%s\nvs\n%s", a.CSV(), b.CSV())
	}
	s.Seed = 4
	c, err := RunChurnStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.CSV() == c.CSV() {
		t.Fatal("different seeds produced identical study results")
	}
}

// TestChurnStudyWorkerInvariance: the fan-out must not change results.
func TestChurnStudyWorkerInvariance(t *testing.T) {
	s := TestSetup()
	s.Seed = 5
	s.ChurnJobs = 120
	s.Workers = 1
	serial, err := RunChurnStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Workers = 4
	parallel, err := RunChurnStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	if serial.CSV() != parallel.CSV() {
		t.Fatal("worker count changed churn study results")
	}
}
