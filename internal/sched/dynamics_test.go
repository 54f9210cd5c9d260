package sched_test

import (
	"fmt"
	"strings"
	"testing"

	"trustgrid/internal/fuzzy"
	"trustgrid/internal/grid"
	"trustgrid/internal/heuristics"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
)

// dynSites builds a positional site list from (speed, SL) pairs.
func dynSites(specs ...[2]float64) []*grid.Site {
	sites := make([]*grid.Site, len(specs))
	for i, s := range specs {
		sites[i] = &grid.Site{ID: i, Speed: s[0], Nodes: 1, SecurityLevel: s[1]}
	}
	return sites
}

func dynJob(id int, arrival, workload, sd float64) *grid.Job {
	return &grid.Job{ID: id, Arrival: arrival, Workload: workload, Nodes: 1, SecurityDemand: sd}
}

func TestCrashInterruptsAndRedispatches(t *testing.T) {
	// Site 0 is fast, site 1 slow. The job lands on site 0, which
	// crashes mid-execution; the job must re-queue and finish on site 1.
	sites := dynSites([2]float64{10, 0.9}, [2]float64{1, 0.9})
	var events []sched.EngineEvent
	res, err := sched.Run(sched.RunConfig{
		Jobs:          []*grid.Job{dynJob(0, 0, 1000, 0.5)},
		Sites:         sites,
		Scheduler:     heuristics.NewMinMin(grid.SecurePolicy()),
		BatchInterval: 10,
		Rand:          rng.New(1),
		Dynamics: &sched.DynamicsConfig{Churn: []grid.ChurnEvent{
			{Time: 50, Site: 0, Kind: grid.ChurnCrash},
			{Time: 5000, Site: 0, Kind: grid.ChurnJoin},
		}},
		OnEvent: func(ev sched.EngineEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.NInterrupted != 1 {
		t.Fatalf("NInterrupted = %d, want 1", res.Summary.NInterrupted)
	}
	if len(res.Records) != 1 || !res.Records[0].Interrupted || res.Records[0].Site != 1 {
		t.Fatalf("record = %+v, want interrupted completion on site 1", res.Records[0])
	}
	var sawInterrupt, sawDown bool
	for _, ev := range events {
		switch ev.Kind {
		case sched.EventInterrupted:
			sawInterrupt = true
			if ev.Site != 0 || ev.Job.ID != 0 {
				t.Fatalf("interrupt event %+v targets wrong site/job", ev)
			}
		case sched.EventSiteDown:
			sawDown = true
		}
	}
	if !sawInterrupt || !sawDown {
		t.Fatalf("missing lifecycle events: interrupt=%v down=%v", sawInterrupt, sawDown)
	}
	// The caller's platform must be untouched by the engine's dynamics.
	if sites[0].Speed != 10 || sites[0].SecurityLevel != 0.9 {
		t.Fatalf("caller's site mutated: %+v", sites[0])
	}
}

func TestNoPlacementsOnDepartedSites(t *testing.T) {
	sites := dynSites([2]float64{4, 0.95}, [2]float64{4, 0.9}, [2]float64{4, 0.85})
	churn, err := grid.DefaultChurnConfig(4000).Generate(rng.New(9), len(sites))
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]*grid.Job, 60)
	for i := range jobs {
		jobs[i] = dynJob(i, float64(i*50), 200, 0.5)
	}
	down := make(map[int]bool)
	_, err = sched.Run(sched.RunConfig{
		Jobs: jobs, Sites: sites,
		Scheduler:     heuristics.NewMinMin(grid.SecurePolicy()),
		BatchInterval: 25,
		Rand:          rng.New(2),
		Dynamics:      &sched.DynamicsConfig{Churn: churn},
		OnEvent: func(ev sched.EngineEvent) {
			switch ev.Kind {
			case sched.EventSiteDown:
				down[ev.Site] = true
			case sched.EventSiteUp:
				down[ev.Site] = false
			case sched.EventPlaced:
				if down[ev.Site] {
					t.Fatalf("job %d placed on departed site %d at t=%v", ev.Job.ID, ev.Site, ev.Time)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDrainFinishesRunningWork(t *testing.T) {
	// The job starts on site 0 before the drain; a drain must let it
	// finish there rather than interrupt it.
	res, err := sched.Run(sched.RunConfig{
		Jobs:          []*grid.Job{dynJob(0, 0, 1000, 0.5)},
		Sites:         dynSites([2]float64{10, 0.9}, [2]float64{1, 0.9}),
		Scheduler:     heuristics.NewMinMin(grid.SecurePolicy()),
		BatchInterval: 10,
		Rand:          rng.New(1),
		Dynamics: &sched.DynamicsConfig{Churn: []grid.ChurnEvent{
			{Time: 50, Site: 0, Kind: grid.ChurnDrain},
			{Time: 5000, Site: 0, Kind: grid.ChurnJoin},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.NInterrupted != 0 {
		t.Fatalf("drain interrupted %d jobs", res.Summary.NInterrupted)
	}
	if res.Records[0].Site != 0 {
		t.Fatalf("job moved to site %d, want to finish on draining site 0", res.Records[0].Site)
	}
	// Placed at the t=10 round, 100s of work: completion at t=110.
	if got := res.Records[0].Completion; got != 110 {
		t.Fatalf("completion %v, want 110", got)
	}
}

func TestDegradeSlowsLaterDispatches(t *testing.T) {
	// One site at speed 10; capacity halves at t=5, before the first
	// scheduling round. The 1000-unit job dispatched at t=10 must run at
	// the degraded speed: 200s instead of 100s.
	res, err := sched.Run(sched.RunConfig{
		Jobs:          []*grid.Job{dynJob(0, 0, 1000, 0.5)},
		Sites:         dynSites([2]float64{10, 0.9}),
		Scheduler:     heuristics.NewMinMin(grid.SecurePolicy()),
		BatchInterval: 10,
		Rand:          rng.New(1),
		Dynamics: &sched.DynamicsConfig{Churn: []grid.ChurnEvent{
			{Time: 5, Site: 0, Kind: grid.ChurnDegrade, Factor: 0.5},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Records[0].Completion; got != 210 {
		t.Fatalf("completion %v, want 10 + 1000/5 = 210", got)
	}
}

func TestTotalOutageWaitsForRejoin(t *testing.T) {
	// The only site is down across the job's arrival; the batch loop
	// must hold the queue until the rejoin instead of failing.
	res, err := sched.Run(sched.RunConfig{
		Jobs:          []*grid.Job{dynJob(0, 5, 100, 0.5)},
		Sites:         dynSites([2]float64{10, 0.9}),
		Scheduler:     heuristics.NewMinMin(grid.SecurePolicy()),
		BatchInterval: 10,
		Rand:          rng.New(1),
		Dynamics: &sched.DynamicsConfig{Churn: []grid.ChurnEvent{
			{Time: 1, Site: 0, Kind: grid.ChurnCrash},
			{Time: 95, Site: 0, Kind: grid.ChurnJoin},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if start := res.Records[0].Start; start < 95 {
		t.Fatalf("job started at %v while the only site was down", start)
	}
}

func TestTotalOutageWithoutRejoinFails(t *testing.T) {
	_, err := sched.Run(sched.RunConfig{
		Jobs:          []*grid.Job{dynJob(0, 5, 100, 0.5)},
		Sites:         dynSites([2]float64{10, 0.9}),
		Scheduler:     heuristics.NewMinMin(grid.SecurePolicy()),
		BatchInterval: 10,
		Rand:          rng.New(1),
		Dynamics: &sched.DynamicsConfig{Churn: []grid.ChurnEvent{
			{Time: 1, Site: 0, Kind: grid.ChurnCrash},
		}},
	})
	if err == nil || !strings.Contains(err.Error(), "departed") {
		t.Fatalf("err = %v, want permanent-outage failure", err)
	}
}

// dynPlacements renders the placement stream of one dynamic run.
func dynPlacements(t *testing.T, seed uint64, rep *fuzzy.ReputationConfig) string {
	t.Helper()
	r := rng.New(seed)
	sites, err := grid.PSAPlatform().Generate(r.Derive("sites"))
	if err != nil {
		t.Fatal(err)
	}
	churn, err := grid.DefaultChurnConfig(60000).Generate(r.Derive("churn"), len(sites))
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]*grid.Job, 150)
	sd := r.Derive("sd")
	for i := range jobs {
		jobs[i] = dynJob(i, float64(i)*300, 5000+float64(i%7)*1000, sd.Uniform(0.6, 0.9))
	}
	var b strings.Builder
	_, err = sched.Run(sched.RunConfig{
		Jobs: jobs, Sites: sites,
		Scheduler:     heuristics.NewMinMin(grid.FRiskyPolicy(0.5)),
		BatchInterval: 1000,
		Rand:          r.Derive("engine"),
		Dynamics: &sched.DynamicsConfig{
			Churn:      churn,
			Reputation: rep,
			TrueLevels: grid.DeceptiveLevels(sites, 0.4, 0.3, r.Derive("deceptive")),
		},
		OnEvent: func(ev sched.EngineEvent) {
			if ev.Kind == sched.EventPlaced {
				fmt.Fprintf(&b, "%d>%d@%.17g;", ev.Job.ID, ev.Site, ev.Start)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestDynamicRunDeterministic(t *testing.T) {
	repCfg := fuzzy.DefaultReputationConfig()
	for _, rep := range []*fuzzy.ReputationConfig{nil, &repCfg} {
		a := dynPlacements(t, 11, rep)
		b := dynPlacements(t, 11, rep)
		if a == "" {
			t.Fatal("no placements")
		}
		if a != b {
			t.Fatalf("same seed produced different placement streams (reputation=%v)", rep != nil)
		}
	}
	if dynPlacements(t, 11, nil) == dynPlacements(t, 12, nil) {
		t.Fatal("different seeds produced identical placement streams")
	}
}

func TestReputationFeedbackReducesFailures(t *testing.T) {
	// Site 0 declares SL 0.95 but truly runs at 0.2; site 1 honestly
	// declares 0.9 and is slower. Under static trust the Secure policy
	// keeps believing site 0 and every SD-0.85 job dispatched there
	// risks an Eq. 1 failure; with reputation feedback the estimate
	// drops below the demand after the first failures and the scheduler
	// walks away.
	run := func(rep *fuzzy.ReputationConfig) *sched.Result {
		sites := dynSites([2]float64{10, 0.95}, [2]float64{8, 0.9})
		jobs := make([]*grid.Job, 80)
		for i := range jobs {
			jobs[i] = dynJob(i, float64(i*20), 400, 0.85)
		}
		res, err := sched.Run(sched.RunConfig{
			Jobs: jobs, Sites: sites,
			Scheduler:     heuristics.NewMinMin(grid.SecurePolicy()),
			BatchInterval: 10,
			Rand:          rng.New(5),
			Dynamics: &sched.DynamicsConfig{
				Reputation: rep,
				TrueLevels: []float64{0.2, 0.9},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	repCfg := fuzzy.DefaultReputationConfig()
	static := run(nil)
	feedback := run(&repCfg)
	if static.Summary.NFail == 0 {
		t.Fatal("static run saw no failures; the deception is not biting")
	}
	if feedback.Summary.NFail >= static.Summary.NFail {
		t.Fatalf("feedback NFail %d >= static NFail %d: reputation did not help",
			feedback.Summary.NFail, static.Summary.NFail)
	}
}

func TestSiteStatusesReflectDynamics(t *testing.T) {
	repCfg := fuzzy.DefaultReputationConfig()
	o, err := sched.NewOnline(sched.RunConfig{
		Sites:         dynSites([2]float64{10, 0.95}, [2]float64{8, 0.9}),
		Scheduler:     heuristics.NewMinMin(grid.SecurePolicy()),
		BatchInterval: 10,
		Rand:          rng.New(3),
		Dynamics: &sched.DynamicsConfig{
			Churn: []grid.ChurnEvent{
				{Time: 100, Site: 1, Kind: grid.ChurnDrain},
				{Time: 200, Site: 0, Kind: grid.ChurnDegrade, Factor: 0.5},
			},
			Reputation: &repCfg,
			TrueLevels: []float64{0.55, 0.9},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := o.Submit(dynJob(i, float64(i*10), 300, 0.8)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := o.Drain(); err != nil {
		t.Fatal(err)
	}
	st := o.SiteStatuses()
	if len(st) != 2 {
		t.Fatalf("%d statuses", len(st))
	}
	if st[1].Alive {
		t.Fatal("site 1 should be drained")
	}
	if st[0].Speed != 5 || st[0].BaseSpeed != 10 {
		t.Fatalf("site 0 speed %v/%v, want degraded 5 of 10", st[0].Speed, st[0].BaseSpeed)
	}
	if st[0].DeclaredLevel != 0.95 {
		t.Fatalf("site 0 declared %v", st[0].DeclaredLevel)
	}
	if st[0].Observations == 0 {
		t.Fatal("site 0 has no reputation observations despite serving jobs")
	}
	if st[0].Level >= st[0].DeclaredLevel {
		t.Fatalf("deceptive site 0 estimate %v did not drop below declaration %v",
			st[0].Level, st[0].DeclaredLevel)
	}
}

func TestStaticRunsBitIdenticalWithNilDynamics(t *testing.T) {
	// A nil Dynamics must leave the original closed-world path untouched:
	// the same run with and without the field present in the config
	// literal yields identical results.
	mk := func(dyn *sched.DynamicsConfig) string {
		var b strings.Builder
		jobs := make([]*grid.Job, 40)
		for i := range jobs {
			jobs[i] = dynJob(i, float64(i*5), 500, 0.7)
		}
		_, err := sched.Run(sched.RunConfig{
			Jobs:          jobs,
			Sites:         dynSites([2]float64{10, 0.95}, [2]float64{5, 0.7}),
			Scheduler:     heuristics.NewMinMin(grid.FRiskyPolicy(0.5)),
			BatchInterval: 10,
			Rand:          rng.New(4),
			Dynamics:      dyn,
			OnEvent: func(ev sched.EngineEvent) {
				if ev.Kind == sched.EventPlaced {
					fmt.Fprintf(&b, "%d>%d@%.17g;", ev.Job.ID, ev.Site, ev.Start)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if mk(nil) != mk(&sched.DynamicsConfig{}) {
		t.Fatal("an empty DynamicsConfig changed the schedule of a churn-free run")
	}
}
