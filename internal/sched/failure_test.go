package sched

import (
	"strings"
	"testing"

	"trustgrid/internal/grid"
	"trustgrid/internal/rng"
)

// TestRetryExhaustionFailsRun injects a platform where the only site is
// catastrophically unsafe (P(fail) ≈ 1) so even the must-be-safe
// fallback keeps failing: the engine must abort with a retry error
// rather than loop forever. At P(fail) ≈ 1 the 50 retries maxRetries
// allows take microseconds.
func TestRetryExhaustionFailsRun(t *testing.T) {
	sites := []*grid.Site{{ID: 0, Speed: 1, Nodes: 1, SecurityLevel: 0.4}}
	jobs := []*grid.Job{{ID: 0, Workload: 10, Nodes: 1, SecurityDemand: 0.9}}
	_, err := Run(RunConfig{
		Jobs: jobs, Sites: sites,
		Scheduler:     &eligibleScheduler{policy: grid.RiskyPolicy()},
		BatchInterval: 5,
		Security:      grid.SecurityModel{Lambda: 50}, // P(fail) ≈ 1
		Rand:          rng.New(1),
	})
	if err == nil {
		t.Fatal("expected retry-exhaustion error")
	}
	if !strings.Contains(err.Error(), "retries") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestFallbackRecorded verifies the no-eligible-site fallback is counted
// in the summary when a job demands more security than any site offers
// under the secure policy.
func TestFallbackRecorded(t *testing.T) {
	sites := []*grid.Site{
		{ID: 0, Speed: 1, Nodes: 1, SecurityLevel: 0.5},
		{ID: 1, Speed: 1, Nodes: 1, SecurityLevel: 0.7},
	}
	jobs := []*grid.Job{{ID: 0, Workload: 5, Nodes: 1, SecurityDemand: 0.9}}
	res, err := Run(RunConfig{
		Jobs: jobs, Sites: sites,
		Scheduler:     &eligibleScheduler{policy: grid.SecurePolicy()},
		BatchInterval: 5,
		Security:      grid.SecurityModel{Lambda: 0.0001}, // nearly safe
		Rand:          rng.New(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", res.Summary.Fallbacks)
	}
	// The fallback went to the max-SL site.
	if res.Records[0].Site != 1 {
		t.Fatalf("fallback site %d, want max-SL site 1", res.Records[0].Site)
	}
}

// TestBatchesFireOnGrid verifies scheduling rounds land on multiples of
// the batch interval, per the periodic model of Fig. 1.
func TestBatchesFireOnGrid(t *testing.T) {
	sites := safeSites(1)
	jobs := []*grid.Job{
		{ID: 0, Arrival: 3, Workload: 1, Nodes: 1, SecurityDemand: 0.6},
		{ID: 1, Arrival: 17, Workload: 1, Nodes: 1, SecurityDemand: 0.6},
	}
	res, err := Run(RunConfig{
		Jobs: jobs, Sites: sites, Scheduler: &fifoScheduler{},
		BatchInterval: 10, Rand: rng.New(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Job 0 arrives at 3 → batch at 10 → completes 11.
	// Job 1 arrives at 17 → batch at 20 → completes 21.
	for _, r := range res.Records {
		switch r.ID {
		case 0:
			if r.Start != 10 {
				t.Fatalf("job 0 started at %v, want batch time 10", r.Start)
			}
		case 1:
			if r.Start != 20 {
				t.Fatalf("job 1 started at %v, want batch time 20", r.Start)
			}
		}
	}
}

// TestMaxEventsGuard verifies the runaway protection surfaces as an
// error instead of hanging. The only site drains at t=0 and rejoins at
// t=1e9, so with Δ=1 the round re-arms every second with nothing it can
// dispatch; the guard derived from one job and two churn events stops
// the run after about ten thousand of those rounds.
func TestMaxEventsGuard(t *testing.T) {
	_, err := Run(RunConfig{
		Jobs:  simpleJobs(1, 1, 1),
		Sites: safeSites(1), Scheduler: &fifoScheduler{},
		BatchInterval: 1, Rand: rng.New(4),
		Dynamics: &DynamicsConfig{Churn: []grid.ChurnEvent{
			{Time: 0, Site: 0, Kind: grid.ChurnDrain},
			{Time: 1e9, Site: 0, Kind: grid.ChurnJoin},
		}},
	})
	if err == nil || !strings.Contains(err.Error(), "exceeded 10204 events") {
		t.Fatalf("Run = %v, want the runaway guard's error", err)
	}
}

// TestFailedJobWaitsForNextBatch verifies fail-stop semantics: the
// rescheduled attempt starts at a later scheduling round, not
// immediately.
func TestFailedJobWaitsForNextBatch(t *testing.T) {
	sites := []*grid.Site{
		{ID: 0, Speed: 10, Nodes: 1, SecurityLevel: 0.4},
		{ID: 1, Speed: 1, Nodes: 1, SecurityLevel: 0.95},
	}
	jobs := []*grid.Job{{ID: 0, Workload: 100, Nodes: 1, SecurityDemand: 0.9}}
	// Find a failing seed.
	for seed := uint64(0); seed < 50; seed++ {
		res, err := Run(RunConfig{
			Jobs: jobs, Sites: sites,
			Scheduler:     &eligibleScheduler{policy: grid.RiskyPolicy()},
			BatchInterval: 7, Security: grid.NewSecurityModel(),
			Rand: rng.New(seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.NFail == 1 {
			rec := res.Records[0]
			if rec.Site != 1 {
				t.Fatalf("retried job must run on the safe site, got %d", rec.Site)
			}
			// The successful start must be on the Δ grid (a batch time).
			if rem := rec.Start / 7; rem != float64(int(rem)) {
				t.Fatalf("retry started off the batch grid: %v", rec.Start)
			}
			return
		}
	}
	t.Fatal("no failing seed found")
}
