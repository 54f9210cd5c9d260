package sched_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"trustgrid/internal/dag"
	"trustgrid/internal/grid"
	"trustgrid/internal/heuristics"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
)

func dagRun(t *testing.T, jobs []*grid.Job, events *[]sched.EngineEvent) *sched.Result {
	t.Helper()
	res, err := sched.Run(sched.RunConfig{
		Jobs:          jobs,
		Sites:         []*grid.Site{{ID: 0, Speed: 10, Nodes: 4, SecurityLevel: 1.0}},
		Scheduler:     sched.Checked(t, heuristics.NewRankMinMin(grid.SecurePolicy())),
		BatchInterval: 10,
		Security:      grid.NewSecurityModel(),
		Rand:          rng.New(1),
		OnEvent: func(ev sched.EngineEvent) {
			if events != nil {
				*events = append(*events, ev)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDAGReleaseFlow is the precedence contract end to end: on a
// diamond (0 → {1,2} → 3) every successor is placed only after all its
// parents' completion events, each blocked job emits exactly one
// job_ready, and ready jobs released mid-run land in a later batch.
func TestDAGReleaseFlow(t *testing.T) {
	jobs := []*grid.Job{
		{ID: 0, Arrival: 0, Workload: 50, Nodes: 1, SecurityDemand: 0.6},
		{ID: 1, Arrival: 1, Workload: 30, Nodes: 1, SecurityDemand: 0.6, DependsOn: []int{0}},
		{ID: 2, Arrival: 1, Workload: 40, Nodes: 1, SecurityDemand: 0.6, DependsOn: []int{0}},
		{ID: 3, Arrival: 2, Workload: 20, Nodes: 1, SecurityDemand: 0.6, DependsOn: []int{1, 2}},
	}
	deps := map[int][]int{1: {0}, 2: {0}, 3: {1, 2}}

	var events []sched.EngineEvent
	res := dagRun(t, jobs, &events)
	if res.Summary.Jobs != 4 {
		t.Fatalf("completed %d jobs, want 4", res.Summary.Jobs)
	}

	completedAt := map[int]float64{}
	readyCount := map[int]int{}
	for _, ev := range events {
		switch ev.Kind {
		case sched.EventReady:
			readyCount[ev.Job.ID]++
			if ev.Site != -1 {
				t.Fatalf("job_ready for job %d carries site %d, want -1", ev.Job.ID, ev.Site)
			}
		case sched.EventPlaced:
			for _, p := range deps[ev.Job.ID] {
				done, ok := completedAt[p]
				if !ok {
					t.Fatalf("job %d placed at t=%v before parent %d completed", ev.Job.ID, ev.Time, p)
				}
				if ev.Time < done {
					t.Fatalf("job %d placed at t=%v, parent %d completed at t=%v", ev.Job.ID, ev.Time, p, done)
				}
			}
		case sched.EventCompleted:
			completedAt[ev.Job.ID] = ev.Time
		}
	}
	for id := range deps {
		if readyCount[id] != 1 {
			t.Fatalf("job %d emitted %d job_ready events, want 1", id, readyCount[id])
		}
	}
	if readyCount[0] != 0 {
		t.Fatal("dependency-free job emitted job_ready")
	}
	// The diamond serializes across batch rounds: 0 in the t=10 round,
	// 1 and 2 after it, 3 last — at least three dispatch rounds.
	if res.Batches < 3 {
		t.Fatalf("diamond ran in %d batches, want >= 3", res.Batches)
	}
}

// TestDAGRunRejectsMalformedEdges: config validation refuses cycles and
// dangling references before the simulation starts.
func TestDAGRunRejectsMalformedEdges(t *testing.T) {
	base := func() []*grid.Job {
		return []*grid.Job{
			{ID: 0, Arrival: 0, Workload: 10, Nodes: 1, SecurityDemand: 0.6},
			{ID: 1, Arrival: 0, Workload: 10, Nodes: 1, SecurityDemand: 0.6},
		}
	}
	cases := []struct {
		name string
		warp func([]*grid.Job)
	}{
		{"cycle", func(js []*grid.Job) {
			js[0].DependsOn = []int{1}
			js[1].DependsOn = []int{0}
		}},
		{"dangling", func(js []*grid.Job) { js[1].DependsOn = []int{99} }},
		{"self", func(js []*grid.Job) { js[1].DependsOn = []int{1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jobs := base()
			tc.warp(jobs)
			_, err := sched.Run(sched.RunConfig{
				Jobs:          jobs,
				Sites:         []*grid.Site{{ID: 0, Speed: 1, Nodes: 1, SecurityLevel: 1.0}},
				Scheduler:     heuristics.NewMinMin(grid.SecurePolicy()),
				BatchInterval: 10,
				Security:      grid.NewSecurityModel(),
				Rand:          rng.New(1),
			})
			if err == nil {
				t.Fatalf("Run accepted %s workload", tc.name)
			}
		})
	}
}

// TestDrainReportsBlockedJobs: an online submission depending on a job
// that never arrives leaves the child in the blocked pen, and Drain
// names the stall instead of hanging or silently dropping the job.
func TestDrainReportsBlockedJobs(t *testing.T) {
	o, err := sched.NewOnline(sched.RunConfig{
		Sites:         []*grid.Site{{ID: 0, Speed: 1, Nodes: 1, SecurityLevel: 1.0}},
		Scheduler:     heuristics.NewMinMin(grid.SecurePolicy()),
		BatchInterval: 10,
		Security:      grid.NewSecurityModel(),
		Rand:          rng.New(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Submit(&grid.Job{ID: 5, Workload: 10, Nodes: 1, SecurityDemand: 0.6, DependsOn: []int{4}}); err != nil {
		t.Fatal(err)
	}
	_, err = o.Drain()
	if err == nil || !strings.Contains(err.Error(), "blocked on dependencies") {
		t.Fatalf("Drain error = %v, want blocked-dependency diagnosis", err)
	}
}

// TestDeadlineMissAccounting: completion past a job's deadline marks
// the record and increments the summary counter; met and unset
// deadlines do not.
func TestDeadlineMissAccounting(t *testing.T) {
	// One unit-speed site, batch at t=10: job 0 runs [10,60], job 1
	// [60,70]. Deadlines straddle those completions.
	jobs := []*grid.Job{
		{ID: 0, Arrival: 0, Workload: 50, Nodes: 1, SecurityDemand: 0.6, Deadline: 100},
		{ID: 1, Arrival: 0, Workload: 10, Nodes: 1, SecurityDemand: 0.6, Deadline: 65},
		{ID: 2, Arrival: 0, Workload: 10, Nodes: 1, SecurityDemand: 0.6},
	}
	res, err := sched.Run(sched.RunConfig{
		Jobs:          jobs,
		Sites:         []*grid.Site{{ID: 0, Speed: 1, Nodes: 1, SecurityLevel: 1.0}},
		Scheduler:     &fifoOrderScheduler{},
		BatchInterval: 10,
		Security:      grid.NewSecurityModel(),
		Rand:          rng.New(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.NDeadlineMiss != 1 {
		t.Fatalf("NDeadlineMiss = %d, want 1", res.Summary.NDeadlineMiss)
	}
	miss := map[int]bool{}
	for _, r := range res.Records {
		miss[r.ID] = r.MissedDeadline
	}
	if miss[0] || !miss[1] || miss[2] {
		t.Fatalf("per-record miss flags = %v, want only job 1", miss)
	}
}

// fifoOrderScheduler places jobs on site 0 in batch order (the sched_test
// twin of the internal fifoScheduler).
type fifoOrderScheduler struct{}

func (f *fifoOrderScheduler) Name() string { return "FIFO" }
func (f *fifoOrderScheduler) Schedule(batch []*grid.Job, st *sched.State) []sched.Assignment {
	out := make([]sched.Assignment, len(batch))
	for i, j := range batch {
		out[i] = sched.Assignment{Job: j, Site: 0}
	}
	return out
}

// dagParityConfig is the durable engine configuration the DAG crash
// parity test restores into — RankMinMin so the rank-install path runs
// on every round after edges appear.
func dagParityConfig(events *[]string) sched.RunConfig {
	return sched.RunConfig{
		Sites: []*grid.Site{
			{ID: 0, Speed: 10, Nodes: 4, SecurityLevel: 0.95},
			{ID: 1, Speed: 20, Nodes: 8, SecurityLevel: 0.55},
		},
		Scheduler:      heuristics.NewRankMinMin(grid.FRiskyPolicy(0.5)),
		BatchInterval:  100,
		Rand:           rng.New(21),
		Security:       grid.NewSecurityModel(),
		DiscardRecords: true,
		OnEvent:        func(ev sched.EngineEvent) { *events = append(*events, snapLine(ev)) },
	}
}

// TestDAGSnapshotRestoreParity extends the recovery contract to
// dependent workloads: cutting a run while jobs sit in the blocked pen
// and restoring from the JSON round-tripped snapshot reproduces the
// uninterrupted event stream exactly — including release order and the
// rank-driven placements that follow.
func TestDAGSnapshotRestoreParity(t *testing.T) {
	gen, err := dag.Generate(rng.New(4242), dag.GenConfig{
		Jobs: 60, Width: 4, EdgeProb: 0.6, Rate: 1.0 / 20,
		WorkloadStep: 40, Levels: 12, Slack: 2, MeanSpeed: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 2600.0

	var want []string
	{
		o, err := sched.NewOnline(dagParityConfig(&want))
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		dagDrive(t, o, gen, &next, 0, horizon)
		if _, err := o.Drain(); err != nil {
			t.Fatal(err)
		}
	}

	for cut := 200.0; cut < horizon; cut += 400 {
		cut := cut
		t.Run(fmt.Sprintf("cut=%v", cut), func(t *testing.T) {
			var got []string
			o, err := sched.NewOnline(dagParityConfig(&got))
			if err != nil {
				t.Fatal(err)
			}
			next := 0
			dagDrive(t, o, gen, &next, 0, cut)
			snap, err := o.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			var back sched.EngineSnapshot
			if err := json.Unmarshal(blob, &back); err != nil {
				t.Fatal(err)
			}

			r, err := sched.RestoreOnline(dagParityConfig(&got), &back)
			if err != nil {
				t.Fatal(err)
			}
			dagDrive(t, r, gen, &next, cut, horizon)
			if _, err := r.Drain(); err != nil {
				t.Fatal(err)
			}

			if len(got) != len(want) {
				t.Fatalf("recovered run emitted %d events, uninterrupted run %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("event %d diverged after cut at t=%v:\n  got  %s\n  want %s", i, cut, got[i], want[i])
				}
			}
		})
	}
}

// dagDrive mirrors snapDrive on the 100-tick grid of dagParityConfig.
func dagDrive(t *testing.T, o *sched.Online, jobs []*grid.Job, next *int, from, to float64) {
	t.Helper()
	for tick := from + 100; tick <= to+1e-9; tick += 100 {
		for *next < len(jobs) && jobs[*next].Arrival <= tick {
			// Every cut's run submits the same workload again, and Submit
			// takes ownership of what it is handed: each engine gets its own
			// copy.
			if err := o.Submit(jobs[*next].Clone()); err != nil {
				t.Fatal(err)
			}
			*next++
		}
		if err := o.AdvanceTo(tick); err != nil {
			t.Fatal(err)
		}
	}
}
