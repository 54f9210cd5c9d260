package sched_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"trustgrid/internal/grid"
	"trustgrid/internal/heuristics"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
)

func coordTestSites() []*grid.Site {
	return []*grid.Site{
		{ID: 0, Speed: 10, Nodes: 8, SecurityLevel: 0.95},
		{ID: 1, Speed: 20, Nodes: 16, SecurityLevel: 0.5},
		{ID: 2, Speed: 5, Nodes: 4, SecurityLevel: 0.8},
		{ID: 3, Speed: 15, Nodes: 8, SecurityLevel: 0.7},
		{ID: 4, Speed: 8, Nodes: 4, SecurityLevel: 0.9},
		{ID: 5, Speed: 12, Nodes: 8, SecurityLevel: 0.6},
	}
}

// coordTestJobs spreads jobs across tenants and strictly inside Δ-round
// windows: an arrival exactly on a window boundary belongs to the NEXT
// window, so keeping arrivals strictly between barrier targets makes
// per-window event merging equal the global time order — the property
// the sharded-vs-independent comparison leans on.
func coordTestJobs(n int, delta float64) []*grid.Job {
	r := rng.New(77)
	jobs := make([]*grid.Job, n)
	for i := range jobs {
		window := float64(i / 8) // 8 jobs per Δ window
		frac := 0.05 + 0.9*r.Float64()
		jobs[i] = &grid.Job{
			ID: i + 1, Arrival: delta * (window + frac),
			Workload: 100 * float64(r.Level(20)), Nodes: 1,
			SecurityDemand: r.Uniform(0.3, 0.9),
			Tenant:         fmt.Sprintf("tenant-%d", i%5),
		}
	}
	return jobs
}

func cloneJob(j *grid.Job) *grid.Job { c := *j; return &c }

// TestCoordinatorSingleShardIdentity drives the same workload through a
// bare Online engine and a 1-shard Coordinator built from the same
// config, and requires identical event streams and results — the
// coordinator with one shard must be a transparent wrapper, which is
// what keeps -shards 1 bit-identical to the pre-sharding daemon.
func TestCoordinatorSingleShardIdentity(t *testing.T) {
	const delta = 500
	sites := coordTestSites()
	jobs := coordTestJobs(48, delta)

	run := func(build func(onEvent func(sched.EngineEvent)) (interface {
		Submit(*grid.Job) error
		AdvanceTo(float64) error
		Drain() (*sched.Result, error)
	}, error)) ([]sched.EngineEvent, *sched.Result) {
		t.Helper()
		var events []sched.EngineEvent
		eng, err := build(func(ev sched.EngineEvent) { events = append(events, ev) })
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		for tick := float64(delta); next < len(jobs); tick += delta {
			for next < len(jobs) && jobs[next].Arrival < tick {
				if err := eng.Submit(cloneJob(jobs[next])); err != nil {
					t.Fatal(err)
				}
				next++
			}
			if err := eng.AdvanceTo(tick); err != nil {
				t.Fatal(err)
			}
		}
		res, err := eng.Drain()
		if err != nil {
			t.Fatal(err)
		}
		return events, res
	}

	mkCfg := func(onEvent func(sched.EngineEvent)) sched.RunConfig {
		return sched.RunConfig{
			Sites:         sites,
			Scheduler:     heuristics.NewMinMin(grid.FRiskyPolicy(0.5)),
			BatchInterval: delta,
			Rand:          rng.New(9).Derive(sched.ShardRNGLabel("engine", 1, 0)),
			OnEvent:       onEvent,
		}
	}
	wantEvents, wantRes := run(func(onEvent func(sched.EngineEvent)) (interface {
		Submit(*grid.Job) error
		AdvanceTo(float64) error
		Drain() (*sched.Result, error)
	}, error) {
		return sched.NewOnline(mkCfg(onEvent))
	})
	gotEvents, gotRes := run(func(onEvent func(sched.EngineEvent)) (interface {
		Submit(*grid.Job) error
		AdvanceTo(float64) error
		Drain() (*sched.Result, error)
	}, error) {
		cfg := mkCfg(nil)
		return sched.NewCoordinator(sched.CoordinatorConfig{
			Shards:  []sched.RunConfig{cfg},
			Parts:   sched.PartitionSites(len(sites), 1),
			OnEvent: onEvent,
		})
	})

	if !reflect.DeepEqual(gotEvents, wantEvents) {
		t.Fatalf("1-shard coordinator event stream differs from bare engine (%d vs %d events)",
			len(gotEvents), len(wantEvents))
	}
	if !reflect.DeepEqual(gotRes.Records, wantRes.Records) || !reflect.DeepEqual(gotRes.Summary, wantRes.Summary) {
		t.Fatal("1-shard coordinator result differs from bare engine")
	}
}

// TestCoordinatorAccessorsAndRestore drives two 3-shard coordinators —
// one continuously, one rebuilt mid-run via Snapshots(), RestoreOnline
// per shard and AttachCoordinator — through the same workload and
// requires the
// restored half to continue byte-identically. Along the way it pins the
// aggregate accessors (Seen/InFlight/Batches/... are sums or maxima of
// the per-shard engines, Summary/SiteStatuses reassemble global site
// order) against the shards the coordinator itself exposes.
func TestCoordinatorAccessorsAndRestore(t *testing.T) {
	const (
		delta  = 500
		shards = 3
	)
	sites := coordTestSites()
	jobs := coordTestJobs(60, delta)
	parts := sched.PartitionSites(len(sites), shards)

	mkShardCfg := func(i int) sched.RunConfig {
		return sched.RunConfig{
			Sites:          sched.ShardSites(sites, parts[i]),
			Scheduler:      heuristics.NewMinMin(grid.FRiskyPolicy(0.5)),
			BatchInterval:  delta,
			Rand:           rng.New(9).Derive(sched.ShardRNGLabel("engine", shards, i)),
			DiscardRecords: true,
		}
	}
	mkCoordCfg := func(onEvent func(sched.EngineEvent)) sched.CoordinatorConfig {
		cfgs := make([]sched.RunConfig, shards)
		for i := range cfgs {
			cfgs[i] = mkShardCfg(i)
		}
		return sched.CoordinatorConfig{Shards: cfgs, Parts: parts, OnEvent: onEvent}
	}

	var eventsA []sched.EngineEvent
	coordA, err := sched.NewCoordinator(mkCoordCfg(func(ev sched.EngineEvent) { eventsA = append(eventsA, ev) }))
	if err != nil {
		t.Fatal(err)
	}

	if coordA.Shards() != shards {
		t.Fatalf("Shards() = %d, want %d", coordA.Shards(), shards)
	}
	for i := 0; i < shards; i++ {
		if coordA.Shard(i) == nil {
			t.Fatalf("Shard(%d) is nil", i)
		}
		if !reflect.DeepEqual(coordA.Part(i), parts[i]) {
			t.Fatalf("Part(%d) = %v, want %v", i, coordA.Part(i), parts[i])
		}
	}

	// drive submits jobs[from:to) and advances through their windows.
	drive := func(c *sched.Coordinator, from, to int, start float64) float64 {
		t.Helper()
		tick := start
		for next := from; next < to; tick += delta {
			for next < to && jobs[next].Arrival < tick {
				if err := c.Submit(cloneJob(jobs[next])); err != nil {
					t.Fatal(err)
				}
				next++
			}
			if err := c.AdvanceTo(tick); err != nil {
				t.Fatal(err)
			}
		}
		return tick
	}

	const half = 32 // jobs[half-1] is the last arrival inside window 4
	mid := drive(coordA, 0, half, delta)

	// Aggregates must equal folds over the exposed per-shard engines.
	sumOver := func(f func(sched.Shard) int) int {
		n := 0
		for i := 0; i < shards; i++ {
			n += f(coordA.Shard(i))
		}
		return n
	}
	if got, want := coordA.Seen(), sumOver(sched.Shard.Seen); got != want {
		t.Errorf("Seen() = %d, want %d", got, want)
	}
	if got, want := coordA.InFlight(), sumOver(sched.Shard.InFlight); got != want {
		t.Errorf("InFlight() = %d, want %d", got, want)
	}
	if got, want := coordA.Batches(), sumOver(sched.Shard.Batches); got != want {
		t.Errorf("Batches() = %d, want %d", got, want)
	}
	if coordA.Seen() != half {
		t.Errorf("Seen() = %d after ingesting %d jobs", coordA.Seen(), half)
	}
	maxLargest, maxNow := 0, 0.0
	for i := 0; i < shards; i++ {
		if b := coordA.Shard(i).LargestBatch(); b > maxLargest {
			maxLargest = b
		}
		if n := coordA.Shard(i).Now(); n > maxNow {
			maxNow = n
		}
	}
	if coordA.LargestBatch() != maxLargest {
		t.Errorf("LargestBatch() = %d, want %d", coordA.LargestBatch(), maxLargest)
	}
	if coordA.Now() != maxNow {
		t.Errorf("Now() = %v, want max shard clock %v", coordA.Now(), maxNow)
	}
	sum := coordA.Summary()
	if sum.Jobs == 0 {
		t.Error("mid-run Summary() reports zero completed jobs")
	}
	if len(sum.SiteUtilization) != len(sites) {
		t.Errorf("Summary().SiteUtilization has %d entries, want %d", len(sum.SiteUtilization), len(sites))
	}
	sts := coordA.SiteStatuses()
	if len(sts) != len(sites) {
		t.Fatalf("SiteStatuses() returned %d entries, want %d", len(sts), len(sites))
	}
	for i, st := range sts {
		if st.ID != i {
			t.Fatalf("SiteStatuses()[%d].ID = %d; global order broken", i, st.ID)
		}
	}
	np := coordA.NeverPlaced()
	for i := 1; i < len(np); i++ {
		if np[i-1].ID >= np[i].ID {
			t.Fatalf("NeverPlaced() not sorted by ID at %d", i)
		}
	}

	// Quiescent at a barrier: snapshot every shard and rebuild a second
	// coordinator from the snapshots.
	snaps, err := coordA.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != shards {
		t.Fatalf("Snapshots() returned %d snapshots, want %d", len(snaps), shards)
	}
	restored := make([]sched.Shard, shards)
	for i, snap := range snaps {
		if restored[i], err = sched.RestoreOnline(mkShardCfg(i), snap); err != nil {
			t.Fatal(err)
		}
	}
	var eventsB []sched.EngineEvent
	coordB, err := sched.AttachCoordinator(parts, restored, func(ev *sched.EngineEvent) { eventsB = append(eventsB, *ev) })
	if err != nil {
		t.Fatal(err)
	}
	mark := len(eventsA)

	// From here both coordinators see identical traffic — including a
	// tenant-weight change and an arrival at the current clock.
	for _, c := range []*sched.Coordinator{coordA, coordB} {
		c.SetTenantWeight("tenant-1", 2.5)
		if err := c.Submit(&grid.Job{
			ID: 9001, Arrival: mid, Workload: 400, Nodes: 1,
			SecurityDemand: 0.4, Tenant: "tenant-2",
		}); err != nil {
			t.Fatal(err)
		}
	}
	drive(coordA, half, len(jobs), mid)
	drive(coordB, half, len(jobs), mid)
	resA, err := coordA.Drain()
	if err != nil {
		t.Fatal(err)
	}
	resB, err := coordB.Drain()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(eventsA[mark:], eventsB) {
		t.Fatalf("restored coordinator diverged: %d post-snapshot events vs %d", len(eventsA)-mark, len(eventsB))
	}
	if !reflect.DeepEqual(resA.Summary, resB.Summary) {
		t.Fatalf("restored coordinator summary differs:\n got %+v\nwant %+v", resB.Summary, resA.Summary)
	}
	if resA.Summary.Jobs != len(jobs)+1 {
		t.Errorf("completed %d jobs, want %d", resA.Summary.Jobs, len(jobs)+1)
	}
}

// TestCoordinatorSingleShardAggregates pins the aggregate views at one
// shard, where the partition is the identity: Summary, SiteStatuses and
// NeverPlaced must equal the engine's own.
func TestCoordinatorSingleShardAggregates(t *testing.T) {
	const delta = 500
	sites := coordTestSites()
	coord, err := sched.NewCoordinator(sched.CoordinatorConfig{
		Shards: []sched.RunConfig{{
			Sites:         sites,
			Scheduler:     heuristics.NewMinMin(grid.FRiskyPolicy(0.5)),
			BatchInterval: delta,
			Rand:          rng.New(9).Derive(sched.ShardRNGLabel("engine", 1, 0)),
		}},
		Parts: sched.PartitionSites(len(sites), 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range coordTestJobs(8, delta) {
		if err := coord.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.AdvanceTo(delta); err != nil {
		t.Fatal(err)
	}
	eng := coord.Shard(0).(*sched.Online)
	if !reflect.DeepEqual(coord.Summary(), eng.Summary()) {
		t.Error("1-shard Summary() differs from the engine's")
	}
	if !reflect.DeepEqual(coord.SiteStatuses(), eng.SiteStatuses()) {
		t.Error("1-shard SiteStatuses() differs from the engine's")
	}
	if !reflect.DeepEqual(coord.NeverPlaced(), eng.NeverPlaced()) {
		t.Error("1-shard NeverPlaced() differs from the engine's")
	}
}

// TestCoordinatorConfigValidation covers every refusal in
// AttachCoordinator, and NewCoordinator's engine-construction error: a
// bad partition table never yields a coordinator.
func TestCoordinatorConfigValidation(t *testing.T) {
	sites := coordTestSites()
	shard := func(part []int) sched.Shard {
		o, err := sched.NewOnline(sched.RunConfig{
			Sites:         sched.ShardSites(sites, part),
			Scheduler:     heuristics.NewMinMin(grid.FRiskyPolicy(0.5)),
			BatchInterval: 500,
			Rand:          rng.New(9),
		})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	parts := sched.PartitionSites(len(sites), 2)

	cases := []struct {
		name   string
		parts  [][]int
		shards []sched.Shard
	}{
		{"no shards", nil, nil},
		{"partition count mismatch", parts, []sched.Shard{shard(parts[0])}},
		{"empty partition", [][]int{parts[0], {}}, []sched.Shard{shard(parts[0]), shard(parts[1])}},
		{"partition length vs shard sites", [][]int{parts[0], parts[1][:1]}, []sched.Shard{shard(parts[0]), shard(parts[1])}},
		{"duplicate global site", [][]int{parts[0], parts[0]}, []sched.Shard{shard(parts[0]), shard(parts[0])}},
		{"negative global site", [][]int{parts[0], append([]int{-1}, parts[1][1:]...)}, []sched.Shard{shard(parts[0]), shard(parts[1])}},
		{"global site past the table", [][]int{{0}, {len(sites)}}, []sched.Shard{shard([]int{0}), shard([]int{1})}},
	}
	for _, tc := range cases {
		if _, err := sched.AttachCoordinator(tc.parts, tc.shards, nil); err == nil {
			t.Errorf("%s: AttachCoordinator accepted a bad config", tc.name)
		}
	}

	// The two site-index refusals must be distinct: a negative index is a
	// malformed table, not a duplicate, and the message has to say so
	// (before the split, -1 was reported as "appears twice").
	for _, tc := range cases {
		var want, wrong string
		switch tc.name {
		case "negative global site":
			want, wrong = "negative global site", "appears twice"
		case "duplicate global site":
			want, wrong = "appears twice", "negative"
		default:
			continue
		}
		_, err := sched.AttachCoordinator(tc.parts, tc.shards, nil)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error = %v, want substring %q", tc.name, err, want)
		}
		if err != nil && strings.Contains(err.Error(), wrong) {
			t.Errorf("%s: error %v misreports as %q", tc.name, err, wrong)
		}
	}

	if _, err := sched.NewCoordinator(sched.CoordinatorConfig{
		Shards: []sched.RunConfig{{Sites: sites}}, // no scheduler
		Parts:  sched.PartitionSites(len(sites), 1),
	}); err == nil {
		t.Error("NewCoordinator accepted a shard engine config NewOnline rejects")
	}
}

// TestCoordinatorMatchesIndependentShards is the sched-level half of
// the tentpole proof: a 3-shard coordinator must behave exactly like 3
// independent single-shard engines — same per-shard configs, same
// tenant routing, same barrier targets — whose event windows are merged
// by (time, shard index). The coordinator adds routing, the fan-out
// barrier and the merge; it must add nothing else.
func TestCoordinatorMatchesIndependentShards(t *testing.T) {
	const (
		delta  = 500
		shards = 3
	)
	sites := coordTestSites()
	jobs := coordTestJobs(60, delta)
	parts := sched.PartitionSites(len(sites), shards)

	mkShardCfg := func(i int, onEvent func(sched.EngineEvent)) sched.RunConfig {
		return sched.RunConfig{
			Sites:         sched.ShardSites(sites, parts[i]),
			Scheduler:     heuristics.NewMinMin(grid.FRiskyPolicy(0.5)),
			BatchInterval: delta,
			Rand:          rng.New(9).Derive(sched.ShardRNGLabel("engine", shards, i)),
			OnEvent:       onEvent,
		}
	}

	// Reference: independent engines, one per shard, with the merge done
	// by hand window by window.
	refBufs := make([][]sched.EngineEvent, shards)
	engines := make([]*sched.Online, shards)
	for i := range engines {
		i := i
		o, err := sched.NewOnline(mkShardCfg(i, func(ev sched.EngineEvent) {
			if ev.Site >= 0 {
				ev.Site = parts[i][ev.Site]
			}
			refBufs[i] = append(refBufs[i], ev)
		}))
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = o
	}
	var refEvents []sched.EngineEvent
	refWindow := func() {
		refEvents = append(refEvents, sched.MergeShardEvents(refBufs)...)
		for i := range refBufs {
			refBufs[i] = refBufs[i][:0]
		}
	}

	// Coordinator under test.
	var gotEvents []sched.EngineEvent
	shardCfgs := make([]sched.RunConfig, shards)
	for i := range shardCfgs {
		shardCfgs[i] = mkShardCfg(i, nil)
	}
	coord, err := sched.NewCoordinator(sched.CoordinatorConfig{
		Shards:  shardCfgs,
		Parts:   parts,
		OnEvent: func(ev sched.EngineEvent) { gotEvents = append(gotEvents, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}

	next := 0
	for tick := float64(delta); next < len(jobs); tick += delta {
		for next < len(jobs) && jobs[next].Arrival < tick {
			j := jobs[next]
			if err := coord.Submit(cloneJob(j)); err != nil {
				t.Fatal(err)
			}
			owner := sched.RouteTenant(j.Tenant, shards)
			if owner != coord.Owner(j.Tenant) {
				t.Fatalf("router disagreement for %q: %d vs %d", j.Tenant, owner, coord.Owner(j.Tenant))
			}
			if err := engines[owner].Submit(cloneJob(j)); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := coord.AdvanceTo(tick); err != nil {
			t.Fatal(err)
		}
		for _, o := range engines {
			if err := o.AdvanceTo(tick); err != nil {
				t.Fatal(err)
			}
		}
		refWindow()
	}
	res, err := coord.Drain()
	if err != nil {
		t.Fatal(err)
	}
	var wantJobs, wantBatches int
	wantMakespan := 0.0
	for _, o := range engines {
		r, err := o.Drain()
		if err != nil {
			t.Fatal(err)
		}
		wantJobs += r.Summary.Jobs
		wantBatches += r.Batches
		if r.Summary.Makespan > wantMakespan {
			wantMakespan = r.Summary.Makespan
		}
	}
	refWindow()

	if !reflect.DeepEqual(gotEvents, refEvents) {
		n := len(gotEvents)
		if len(refEvents) < n {
			n = len(refEvents)
		}
		for i := 0; i < n; i++ {
			if !reflect.DeepEqual(gotEvents[i], refEvents[i]) {
				t.Fatalf("event %d differs:\n got %+v\nwant %+v", i, gotEvents[i], refEvents[i])
			}
		}
		t.Fatalf("event streams differ in length: %d vs %d", len(gotEvents), len(refEvents))
	}
	if res.Summary.Jobs != wantJobs {
		t.Errorf("merged summary jobs = %d, want %d", res.Summary.Jobs, wantJobs)
	}
	if res.Summary.Makespan != wantMakespan {
		t.Errorf("merged makespan = %v, want %v", res.Summary.Makespan, wantMakespan)
	}
	if res.Batches != wantBatches {
		t.Errorf("merged batches = %d, want %d", res.Batches, wantBatches)
	}

	// The total order the coordinator promises: ascending time, shard
	// index breaking ties (site indices are global; the owning shard of a
	// job event is its tenant's route).
	for i := 1; i < len(gotEvents); i++ {
		if gotEvents[i].Time < gotEvents[i-1].Time {
			t.Fatalf("event %d breaks time order: %v after %v", i, gotEvents[i].Time, gotEvents[i-1].Time)
		}
	}
}

// TestCoordinatorBarrierErrorPath pins the degradation contract of a
// failing barrier: when shards abort mid-advance (here: a total outage
// with no rejoin pending on two of three partitions), the surviving
// shard's buffered window must still be flushed exactly once, the
// error that comes back must be the lowest-indexed shard's, and the
// next barrier must keep delivering the survivor's events.
func TestCoordinatorBarrierErrorPath(t *testing.T) {
	const (
		delta  = 500
		shards = 3
	)
	sites := coordTestSites()
	parts := sched.PartitionSites(len(sites), shards)

	// One tenant per shard, found by routing (stable FNV hash).
	tenantFor := func(shard int) string {
		for i := 0; ; i++ {
			name := fmt.Sprintf("t%d", i)
			if sched.RouteTenant(name, shards) == shard {
				return name
			}
		}
	}

	// Shards 1 and 2 lose every local site at t=150 with no rejoin, so
	// their Δ-round at t=500 aborts; shard 0 stays healthy.
	crashAll := &sched.DynamicsConfig{Churn: []grid.ChurnEvent{
		{Time: 150, Site: 0, Kind: grid.ChurnCrash},
		{Time: 150, Site: 1, Kind: grid.ChurnCrash},
	}}
	shardCfgs := make([]sched.RunConfig, shards)
	for i := range shardCfgs {
		shardCfgs[i] = sched.RunConfig{
			Sites:         sched.ShardSites(sites, parts[i]),
			Scheduler:     heuristics.NewMinMin(grid.FRiskyPolicy(0.5)),
			BatchInterval: delta,
			Rand:          rng.New(9).Derive(sched.ShardRNGLabel("engine", shards, i)),
		}
		if i > 0 {
			shardCfgs[i].Dynamics = crashAll
		}
	}
	var events []sched.EngineEvent
	coord, err := sched.NewCoordinator(sched.CoordinatorConfig{
		Shards:  shardCfgs,
		Parts:   parts,
		OnEvent: func(ev sched.EngineEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}

	// 2 jobs on shard 0, 1 on shard 1, 2 on shard 2 — the distinct queue
	// depths make the two failing shards' errors distinguishable.
	mkJob := func(id, shard int) *grid.Job {
		return &grid.Job{
			ID: id, Arrival: 100, Workload: 400, Nodes: 1,
			SecurityDemand: 0.4, Tenant: tenantFor(shard),
		}
	}
	for id, shard := range map[int]int{1: 0, 2: 0, 3: 1, 4: 2, 5: 2} {
		if err := coord.Submit(mkJob(id, shard)); err != nil {
			t.Fatal(err)
		}
	}

	err = coord.AdvanceTo(delta)
	if err == nil {
		t.Fatal("AdvanceTo succeeded with two shards in total outage")
	}
	// Lowest-indexed error: shard 1 had exactly 1 job queued, shard 2
	// had 2 — the message must be shard 1's.
	if !strings.Contains(err.Error(), "1 jobs queued") {
		t.Fatalf("AdvanceTo error = %v, want shard 1's (1 job queued)", err)
	}
	if errors.Is(err, sched.ErrShardDown) {
		t.Fatalf("in-process engine failure reported as ErrShardDown: %v", err)
	}

	// The survivor's window (and the failing shards' pre-abort events)
	// flushed exactly once: 5 arrivals, 4 site-downs, 2 placements.
	count := func(evs []sched.EngineEvent, k sched.EventKind) int {
		n := 0
		for _, ev := range evs {
			if ev.Kind == k {
				n++
			}
		}
		return n
	}
	window1 := len(events)
	if got := count(events, sched.EventArrived); got != 5 {
		t.Errorf("window 1: %d arrival events, want 5", got)
	}
	if got := count(events, sched.EventSiteDown); got != 4 {
		t.Errorf("window 1: %d site-down events, want 4", got)
	}
	if got := count(events, sched.EventPlaced); got != 2 {
		t.Errorf("window 1: %d placements, want 2 (shard 0 only)", got)
	}
	if window1 != 11 {
		t.Errorf("window 1 flushed %d events, want 11", window1)
	}
	for _, ev := range events {
		if ev.Kind == sched.EventPlaced && sched.RouteTenant(ev.Job.Tenant, shards) != 0 {
			t.Errorf("placement on failed shard: %+v", ev)
		}
	}

	// A subsequent barrier still works for the survivor: shard 0's two
	// completions are delivered (exactly once — the earlier window's
	// buffer was cleared), and the sticky engine failures surface again.
	if err := coord.AdvanceTo(2 * delta); err == nil {
		t.Error("second AdvanceTo lost the failed shards' sticky error")
	}
	tail := events[window1:]
	if got := count(tail, sched.EventCompleted); got != 2 || len(tail) != 2 {
		t.Fatalf("window 2 flushed %d events (%d completions), want exactly the survivor's 2 completions",
			len(tail), got)
	}
	if _, err := coord.Drain(); err == nil {
		t.Error("Drain succeeded with failed shards")
	}
}
