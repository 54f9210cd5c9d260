package sched

import (
	"math"
	"testing"

	"trustgrid/internal/grid"
	"trustgrid/internal/metrics"
	"trustgrid/internal/rng"
)

// fifoScheduler assigns every job to site 0 in batch order — a minimal
// deterministic Scheduler for engine-level tests.
type fifoScheduler struct{ site int }

func (f *fifoScheduler) Name() string { return "FIFO" }
func (f *fifoScheduler) Schedule(batch []*grid.Job, st *State) []Assignment {
	out := make([]Assignment, len(batch))
	for i, j := range batch {
		out[i] = Assignment{Job: j, Site: f.site}
	}
	return out
}

// eligibleScheduler dispatches each job to its first eligible site under
// a policy — used to drive the failure path deterministically.
type eligibleScheduler struct{ policy grid.Policy }

func (s *eligibleScheduler) Name() string { return "Eligible" }
func (s *eligibleScheduler) Schedule(batch []*grid.Job, st *State) []Assignment {
	out := make([]Assignment, len(batch))
	for i, j := range batch {
		idx, fb := s.policy.EligibleSites(j, st.Sites)
		out[i] = Assignment{Job: j, Site: idx[0], FellBack: fb}
	}
	return out
}

// Checked wraps s so that every batch's assignments are checked
// against the Scheduler contract (ValidateAssignments); a violation
// fails the test. The engine runs on the test's goroutine, so the
// check may stop it.
func Checked(t testing.TB, s Scheduler) Scheduler { return checked{s, t} }

type checked struct {
	Scheduler
	t testing.TB
}

func (c checked) Schedule(batch []*grid.Job, st *State) []Assignment {
	as := c.Scheduler.Schedule(batch, st)
	if err := ValidateAssignments(batch, as, len(st.Sites)); err != nil {
		c.t.Fatal(err)
	}
	return as
}

func safeSites(speeds ...float64) []*grid.Site {
	sites := make([]*grid.Site, len(speeds))
	for i, sp := range speeds {
		sites[i] = &grid.Site{ID: i, Speed: sp, Nodes: 1, SecurityLevel: 1.0}
	}
	return sites
}

func simpleJobs(n int, work, gap float64) []*grid.Job {
	jobs := make([]*grid.Job, n)
	for i := range jobs {
		jobs[i] = &grid.Job{
			ID: i, Arrival: float64(i) * gap, Workload: work, Nodes: 1,
			SecurityDemand: 0.6,
		}
	}
	return jobs
}

func TestRunSerialQueueTiming(t *testing.T) {
	// Two unit-work jobs on one unit-speed site, batch interval 10:
	// both arrive before the first batch at t=10; they run back-to-back:
	// completions at 11 and 12.
	cfg := RunConfig{
		Jobs:          simpleJobs(2, 1, 1), // arrivals 0 and 1
		Sites:         safeSites(1),
		Scheduler:     Checked(t, &fifoScheduler{}),
		BatchInterval: 10,
		Security:      grid.NewSecurityModel(),
		Rand:          rng.New(1),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Makespan != 12 {
		t.Fatalf("makespan %v, want 12", res.Summary.Makespan)
	}
	if res.Summary.Jobs != 2 {
		t.Fatalf("completed %d jobs", res.Summary.Jobs)
	}
	if res.Batches != 1 {
		t.Fatalf("batches %d, want 1", res.Batches)
	}
	// Response: (11-0) + (12-1) = 22 → avg 11. Service: 1 and 1 → avg 1.
	if math.Abs(res.Summary.AvgResponse-11) > 1e-9 {
		t.Fatalf("avg response %v, want 11", res.Summary.AvgResponse)
	}
	if math.Abs(res.Summary.AvgService-1) > 1e-9 {
		t.Fatalf("avg service %v, want 1", res.Summary.AvgService)
	}
	if math.Abs(res.Summary.Slowdown-11) > 1e-9 {
		t.Fatalf("slowdown %v, want 11", res.Summary.Slowdown)
	}
}

func TestRunLateArrivalGetsLaterBatch(t *testing.T) {
	jobs := []*grid.Job{
		{ID: 0, Arrival: 0, Workload: 1, Nodes: 1, SecurityDemand: 0.6},
		{ID: 1, Arrival: 25, Workload: 1, Nodes: 1, SecurityDemand: 0.6},
	}
	cfg := RunConfig{
		Jobs: jobs, Sites: safeSites(1), Scheduler: &fifoScheduler{},
		BatchInterval: 10, Security: grid.NewSecurityModel(), Rand: rng.New(1),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 2 {
		t.Fatalf("batches %d, want 2", res.Batches)
	}
	// Job 1 arrives at 25 → scheduled at t=30 → completes at 31.
	if res.Summary.Makespan != 31 {
		t.Fatalf("makespan %v, want 31", res.Summary.Makespan)
	}
}

func TestSecureRunNeverFails(t *testing.T) {
	sites := []*grid.Site{
		{ID: 0, Speed: 1, Nodes: 1, SecurityLevel: 0.95},
		{ID: 1, Speed: 2, Nodes: 1, SecurityLevel: 0.45},
	}
	jobs := simpleJobs(50, 10, 5)
	for i, j := range jobs {
		j.SecurityDemand = 0.6 + 0.3*float64(i)/50
	}
	cfg := RunConfig{
		Jobs: jobs, Sites: sites,
		Scheduler:     Checked(t, &eligibleScheduler{policy: grid.SecurePolicy()}),
		BatchInterval: 20, Security: grid.NewSecurityModel(), Rand: rng.New(2),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.NFail != 0 {
		t.Fatalf("secure mode produced %d failures", res.Summary.NFail)
	}
	if res.Summary.NRisk != 0 {
		t.Fatalf("secure mode produced %d risk-taking jobs", res.Summary.NRisk)
	}
}

func TestRiskyRunFailsAndRecovers(t *testing.T) {
	// Site 0 is very unsafe (deficit 0.5, P(fail) ≈ 0.78) and fast;
	// site 1 is strictly safe and slow. Eligible-first always dispatches
	// to site 0, so many jobs fail and must be rescued on site 1.
	sites := []*grid.Site{
		{ID: 0, Speed: 10, Nodes: 1, SecurityLevel: 0.4},
		{ID: 1, Speed: 1, Nodes: 1, SecurityLevel: 0.95},
	}
	jobs := simpleJobs(100, 10, 1)
	for _, j := range jobs {
		j.SecurityDemand = 0.9
	}
	cfg := RunConfig{
		Jobs: jobs, Sites: sites,
		Scheduler:     Checked(t, &eligibleScheduler{policy: grid.RiskyPolicy()}),
		BatchInterval: 10, Security: grid.NewSecurityModel(), Rand: rng.New(3),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.NRisk != 100 {
		t.Fatalf("all 100 jobs took risk, counted %d", res.Summary.NRisk)
	}
	if res.Summary.NFail < 50 || res.Summary.NFail > 95 {
		t.Fatalf("NFail = %d, expected ≈78%% of 100", res.Summary.NFail)
	}
	if res.Summary.NFail > res.Summary.NRisk {
		t.Fatal("NFail must be bounded by NRisk")
	}
	if res.Summary.Jobs != 100 {
		t.Fatalf("only %d jobs completed", res.Summary.Jobs)
	}
	// Every failed job's record must show completion on the safe site.
	for _, r := range res.Records {
		if r.Failed && r.Site != 1 {
			t.Fatalf("failed job %d completed on unsafe site %d", r.ID, r.Site)
		}
	}
}

func TestFailAtEndWastesFullExec(t *testing.T) {
	sites := []*grid.Site{
		{ID: 0, Speed: 1, Nodes: 1, SecurityLevel: 0.4},
		{ID: 1, Speed: 1, Nodes: 1, SecurityLevel: 0.95},
	}
	jobs := simpleJobs(1, 10, 0)
	jobs[0].SecurityDemand = 0.9
	// Find a seed where the single job fails on site 0.
	for seed := uint64(0); seed < 100; seed++ {
		cfg := RunConfig{
			Jobs: jobs, Sites: sites,
			Scheduler:     &eligibleScheduler{policy: grid.RiskyPolicy()},
			BatchInterval: 5, Security: grid.NewSecurityModel(),
			FailureTiming: FailAtEnd, Rand: rng.New(seed),
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.NFail == 1 {
			// Batch at t=5, fails at 15 (full 10s wasted), rescheduled at
			// t=20 on site 1, completes at 30.
			if res.Summary.Makespan != 30 {
				t.Fatalf("makespan %v, want 30 with FailAtEnd", res.Summary.Makespan)
			}
			return
		}
	}
	t.Fatal("no failing seed found — failure sampling broken")
}

func TestUtilizationAccounting(t *testing.T) {
	// One job of 10s work on a 1-speed site, batch at t=5: busy 10s,
	// makespan 15 → utilization 2/3; second site idle.
	cfg := RunConfig{
		Jobs:          simpleJobs(1, 10, 0),
		Sites:         safeSites(1, 1),
		Scheduler:     &fifoScheduler{},
		BatchInterval: 5,
		Security:      grid.NewSecurityModel(),
		Rand:          rng.New(4),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Summary.SiteUtilization[0]-10.0/15.0) > 1e-9 {
		t.Fatalf("site 0 utilization %v, want 2/3", res.Summary.SiteUtilization[0])
	}
	if res.Summary.SiteUtilization[1] != 0 || res.Summary.IdleSites != 1 {
		t.Fatalf("site 1 should be idle: %+v", res.Summary.SiteUtilization)
	}
}

func TestRunDeterministic(t *testing.T) {
	sites := []*grid.Site{
		{ID: 0, Speed: 5, Nodes: 1, SecurityLevel: 0.5},
		{ID: 1, Speed: 1, Nodes: 1, SecurityLevel: 0.95},
	}
	jobs := simpleJobs(60, 25, 3)
	for i, j := range jobs {
		j.SecurityDemand = 0.6 + float64(i%4)*0.1
	}
	mk := func() *Result {
		res, err := Run(RunConfig{
			Jobs: jobs, Sites: sites,
			Scheduler:     &eligibleScheduler{policy: grid.RiskyPolicy()},
			BatchInterval: 15, Security: grid.NewSecurityModel(), Rand: rng.New(77),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.Summary.Makespan != b.Summary.Makespan || a.Summary.NFail != b.Summary.NFail ||
		a.Summary.AvgResponse != b.Summary.AvgResponse {
		t.Fatal("engine runs with equal seeds diverged")
	}
}

func TestRunConfigValidation(t *testing.T) {
	good := RunConfig{
		Jobs: simpleJobs(1, 1, 0), Sites: safeSites(1),
		Scheduler: &fifoScheduler{}, BatchInterval: 1,
		Security: grid.NewSecurityModel(), Rand: rng.New(1),
	}
	bad := good
	bad.Jobs = nil
	if _, err := Run(bad); err == nil {
		t.Fatal("no jobs should fail")
	}
	bad = good
	bad.Scheduler = nil
	if _, err := Run(bad); err == nil {
		t.Fatal("nil scheduler should fail")
	}
	bad = good
	bad.BatchInterval = 0
	if _, err := Run(bad); err == nil {
		t.Fatal("zero interval should fail")
	}
	bad = good
	bad.Rand = nil
	if _, err := Run(bad); err == nil {
		t.Fatal("nil rand should fail")
	}
	bad = good
	bad.Sites = nil
	if _, err := Run(bad); err == nil {
		t.Fatal("no sites should fail")
	}
}

func TestEngineDoesNotMutateCallerJobs(t *testing.T) {
	sites := []*grid.Site{
		{ID: 0, Speed: 10, Nodes: 1, SecurityLevel: 0.4},
		{ID: 1, Speed: 1, Nodes: 1, SecurityLevel: 0.95},
	}
	jobs := simpleJobs(20, 10, 1)
	for _, j := range jobs {
		j.SecurityDemand = 0.9
	}
	_, err := Run(RunConfig{
		Jobs: jobs, Sites: sites,
		Scheduler:     &eligibleScheduler{policy: grid.RiskyPolicy()},
		BatchInterval: 10, Security: grid.NewSecurityModel(), Rand: rng.New(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.MustBeSafe || j.Failures != 0 {
			t.Fatal("engine mutated the caller's job objects")
		}
	}
}

func TestMetricsComputeIdentities(t *testing.T) {
	recs := []metrics.JobRecord{
		{ID: 0, Arrival: 0, Start: 5, Completion: 10, Site: 0, TookRisk: true, Failed: true},
		{ID: 1, Arrival: 2, Start: 10, Completion: 14, Site: 0, TookRisk: true},
	}
	busy := []float64{9, 0}
	s, err := metrics.Compute(recs, busy)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 14 || s.NRisk != 2 || s.NFail != 1 || s.IdleSites != 1 {
		t.Fatalf("summary wrong: %+v", s)
	}
	// Response (10+12)/2 = 11; service (5+4)/2 = 4.5; slowdown 22/9.
	if math.Abs(s.Slowdown-22.0/9.0) > 1e-9 {
		t.Fatalf("slowdown %v", s.Slowdown)
	}
	if s.Slowdown < 1 {
		t.Fatal("slowdown must be >= 1")
	}
}

func TestMetricsComputeRejectsBadRecords(t *testing.T) {
	bad := []metrics.JobRecord{{ID: 0, Arrival: 10, Start: 5, Completion: 20, Site: 0}}
	if _, err := metrics.Compute(bad, []float64{1}); err == nil {
		t.Fatal("start-before-arrival must be rejected")
	}
	bad = []metrics.JobRecord{{ID: 0, Arrival: 0, Start: 5, Completion: 4, Site: 0}}
	if _, err := metrics.Compute(bad, []float64{1}); err == nil {
		t.Fatal("completion-before-start must be rejected")
	}
	// NFail > NRisk is impossible by the model.
	bad = []metrics.JobRecord{{ID: 0, Arrival: 0, Start: 1, Completion: 2, Site: 0, Failed: true}}
	if _, err := metrics.Compute(bad, []float64{1}); err == nil {
		t.Fatal("NFail > NRisk must be rejected")
	}
}

func TestMetricsEmpty(t *testing.T) {
	s, err := metrics.Compute(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Jobs != 0 || s.Makespan != 0 {
		t.Fatal("empty summary should be zero")
	}
}
