package sched_test

import (
	"reflect"
	"testing"

	"trustgrid/internal/grid"
	"trustgrid/internal/heuristics"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
)

// TestOwnedJobsParity pins Submit's ownership rule and the engine's
// reuse of what it owns. A 3-shard coordinator — rationed rounds, a
// crash that cancels in-flight attempts, risky placements that fail —
// runs the same workload twice: once with every job its own heap
// object, once with each window's jobs in one slab, as the server
// hands them in. The merged streams, delivered by pointer out of the
// shard buffers, are identical; the engine's mutations land on the
// jobs it was handed, and the workload it was copied from is
// untouched.
func TestOwnedJobsParity(t *testing.T) {
	const (
		delta  = 500
		shards = 3
	)
	sites := coordTestSites()
	jobs := coordTestJobs(96, delta)
	parts := sched.PartitionSites(len(sites), shards)
	dyn := &sched.DynamicsConfig{Churn: []grid.ChurnEvent{
		{Time: 1010, Site: 1, Kind: grid.ChurnCrash},
		{Time: 1505, Site: 4, Kind: grid.ChurnCrash},
		{Time: 2600, Site: 1, Kind: grid.ChurnJoin},
		{Time: 3100, Site: 4, Kind: grid.ChurnJoin},
	}}
	run := func(slabs bool) ([]sched.EngineEvent, []*grid.Job) {
		t.Helper()
		cfgs := make([]sched.RunConfig, shards)
		for i := range cfgs {
			cfgs[i] = sched.RunConfig{
				Sites:         sched.ShardSites(sites, parts[i]),
				Scheduler:     heuristics.NewMinMin(grid.RiskyPolicy()),
				BatchInterval: delta,
				Rand:          rng.New(5).Derive(sched.ShardRNGLabel("engine", shards, i)),
				Dynamics:      sched.PartitionDynamics(dyn, parts[i]),
				Admission:     &sched.AdmissionConfig{RoundBudget: 2},
			}
		}
		var events []sched.EngineEvent
		var handed []*grid.Job
		shardsOf := make([]sched.Shard, shards)
		for i := range cfgs {
			o, err := sched.NewOnline(cfgs[i])
			if err != nil {
				t.Fatal(err)
			}
			shardsOf[i] = o
		}
		c, err := sched.AttachCoordinator(parts, shardsOf, func(ev *sched.EngineEvent) { events = append(events, *ev) })
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		for tick := float64(delta); next < len(jobs); tick += delta {
			var window []*grid.Job
			for next < len(jobs) && jobs[next].Arrival < tick {
				window = append(window, jobs[next])
				next++
			}
			var slab []grid.Job
			if slabs {
				slab = make([]grid.Job, len(window))
			}
			for k, j := range window {
				h := cloneJob(j)
				if slabs {
					slab[k] = *j
					h = &slab[k]
				}
				handed = append(handed, h)
				if err := c.Submit(h); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.AdvanceTo(tick); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Drain(); err != nil {
			t.Fatal(err)
		}
		return events, handed
	}
	own, ownJobs := run(false)
	slab, slabJobs := run(true)
	if !reflect.DeepEqual(slab, own) {
		t.Fatalf("slab-submitted run differs from the one-object-per-job run (%d vs %d events)", len(slab), len(own))
	}
	failed, interrupted := 0, 0
	for _, ev := range own {
		switch ev.Kind {
		case sched.EventFailed:
			failed++
		case sched.EventInterrupted:
			interrupted++
		}
	}
	if failed == 0 || interrupted == 0 {
		t.Fatalf("workload exercised %d failures and %d interruptions, want both", failed, interrupted)
	}
	mutated := 0
	for i, j := range slabJobs {
		if !reflect.DeepEqual(*j, *ownJobs[i]) {
			t.Fatalf("job %d ends as %+v from a slab, %+v on its own", j.ID, *j, *ownJobs[i])
		}
		if j.Failures > 0 {
			mutated++
		}
	}
	if mutated == 0 {
		t.Fatal("no handed job carries the engine's failure count: Submit did not take the job it was handed")
	}
	for _, j := range jobs {
		if j.Failures != 0 || j.MustBeSafe {
			t.Fatalf("workload job %d was mutated: %+v", j.ID, *j)
		}
	}
}
