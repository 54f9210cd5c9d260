package sched_test

import (
	"reflect"
	"testing"

	"trustgrid/internal/grid"
	"trustgrid/internal/heuristics"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
)

func onlineTestSites() []*grid.Site {
	return []*grid.Site{
		{ID: 0, Speed: 10, Nodes: 8, SecurityLevel: 0.95},
		{ID: 1, Speed: 20, Nodes: 16, SecurityLevel: 0.5},
		{ID: 2, Speed: 5, Nodes: 4, SecurityLevel: 0.8},
	}
}

func onlineTestJobs(n int) []*grid.Job {
	r := rng.New(42)
	jobs := make([]*grid.Job, n)
	at := 0.0
	for i := range jobs {
		at += r.Exp(0.01)
		jobs[i] = &grid.Job{
			ID: i, Arrival: at, Workload: 100 * float64(r.Level(20)),
			Nodes: 1, SecurityDemand: r.Uniform(0.6, 0.9),
		}
	}
	return jobs
}

// TestOnlineMatchesRun submits the workload incrementally — interleaving
// Submit with clock advances — and requires the result to be identical
// to the closed-world Run, record for record.
func TestOnlineMatchesRun(t *testing.T) {
	sites := onlineTestSites()
	jobs := onlineTestJobs(60)
	mkCfg := func() sched.RunConfig {
		return sched.RunConfig{
			Sites:         sites,
			Scheduler:     heuristics.NewMinMin(grid.FRiskyPolicy(0.5)),
			BatchInterval: 500,
			Rand:          rng.New(9),
		}
	}

	cfg := mkCfg()
	cfg.Jobs = jobs
	want, err := sched.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	o, err := sched.NewOnline(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Feed jobs in arrival order, advancing the clock between chunks so
	// submissions genuinely interleave with execution.
	next := 0
	for tick := 500.0; next < len(jobs); tick += 500 {
		for next < len(jobs) && jobs[next].Arrival <= tick {
			if err := o.Submit(jobs[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := o.AdvanceTo(tick); err != nil {
			t.Fatal(err)
		}
	}
	got, err := o.Drain()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Fatalf("incremental records differ from batch run (%d vs %d records)",
			len(got.Records), len(want.Records))
	}
	if !reflect.DeepEqual(got.Summary, want.Summary) {
		t.Fatalf("summary differs:\n got %+v\nwant %+v", got.Summary, want.Summary)
	}
	if got.Batches != want.Batches || got.LargestBatch != want.LargestBatch {
		t.Fatalf("batching differs: got (%d, %d) want (%d, %d)",
			got.Batches, got.LargestBatch, want.Batches, want.LargestBatch)
	}
}

// TestOnlineClampsStaleArrivals checks that a job submitted with an
// arrival stamp the clock has already passed is ingested "now", with
// the effective arrival visible on its Arrived event and record.
func TestOnlineClampsStaleArrivals(t *testing.T) {
	var arrivedAt []float64
	cfg := sched.RunConfig{
		Sites:         onlineTestSites(),
		Scheduler:     heuristics.NewMinMin(grid.FRiskyPolicy(0.5)),
		BatchInterval: 100,
		Rand:          rng.New(3),
		OnEvent: func(ev sched.EngineEvent) {
			if ev.Kind == sched.EventArrived {
				arrivedAt = append(arrivedAt, ev.Job.Arrival)
			}
		},
	}
	o, err := sched.NewOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.AdvanceTo(1000); err != nil {
		t.Fatal(err)
	}
	stale := &grid.Job{ID: 1, Arrival: 50, Workload: 100, Nodes: 1, SecurityDemand: 0.7}
	if err := o.Submit(stale); err != nil {
		t.Fatal(err)
	}
	res, err := o.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivedAt) != 1 || arrivedAt[0] != 1000 {
		t.Fatalf("effective arrival %v, want [1000]", arrivedAt)
	}
	if res.Records[0].Arrival != 1000 {
		t.Fatalf("record arrival %v, want 1000", res.Records[0].Arrival)
	}
	// Submit took ownership: the job the engine clamped is the one handed
	// in, not a copy of it.
	if stale.Arrival != 1000 {
		t.Fatalf("submitted job's arrival %v, want the engine's clamp 1000", stale.Arrival)
	}
}

// TestOnlineDiscardRecords checks the bounded-memory service mode: with
// record retention off, the incremental summary must match the batch
// run's record-derived summary float for float.
func TestOnlineDiscardRecords(t *testing.T) {
	sites := onlineTestSites()
	jobs := onlineTestJobs(60)
	mkCfg := func() sched.RunConfig {
		return sched.RunConfig{
			Sites:         sites,
			Scheduler:     heuristics.NewMinMin(grid.FRiskyPolicy(0.5)),
			BatchInterval: 500,
			Rand:          rng.New(9),
		}
	}
	cfg := mkCfg()
	cfg.Jobs = jobs
	want, err := sched.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	dcfg := mkCfg()
	dcfg.Jobs = jobs
	dcfg.DiscardRecords = true
	o, err := sched.NewOnline(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := o.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 0 {
		t.Fatalf("DiscardRecords retained %d records", len(got.Records))
	}
	if !reflect.DeepEqual(got.Summary, want.Summary) {
		t.Fatalf("incremental summary differs:\n got %+v\nwant %+v", got.Summary, want.Summary)
	}
}

// TestRoundInstantsOnFloatGrid: a rationed backlog drains one job per
// Δ-round, and each round is armed at the first float64(k)·Δ strictly
// after the clock, so no two rounds share an instant even when Δ is not
// exact in binary and kΔ/Δ rounds to just below k.
func TestRoundInstantsOnFloatGrid(t *testing.T) {
	for _, delta := range []float64{0.1, 0.3, 0.7} {
		var placed []float64
		o, err := sched.NewOnline(sched.RunConfig{
			Sites:         []*grid.Site{{ID: 0, Speed: 1e6, Nodes: 8, SecurityLevel: 0.95}},
			Scheduler:     heuristics.NewMinMin(grid.SecurePolicy()),
			BatchInterval: delta,
			Rand:          rng.New(1),
			Admission:     &sched.AdmissionConfig{RoundBudget: 1},
			OnEvent: func(ev sched.EngineEvent) {
				if ev.Kind == sched.EventPlaced {
					placed = append(placed, ev.Time)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		const n = 400
		for i := 0; i < n; i++ {
			if err := o.Submit(&grid.Job{ID: i, Workload: 1, Nodes: 1, SecurityDemand: 0.6}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := o.Drain(); err != nil {
			t.Fatal(err)
		}
		if len(placed) != n || o.Batches() != n {
			t.Fatalf("Δ=%v: %d placements in %d rounds, want %d of each", delta, len(placed), o.Batches(), n)
		}
		for i, at := range placed {
			if want := float64(i+1) * delta; at != want {
				t.Fatalf("Δ=%v: round %d ran at t=%v, want the grid instant %v (previous round at %v)",
					delta, i, at, want, placed[max(i-1, 0)])
			}
		}
	}
}
