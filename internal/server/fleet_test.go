package server_test

import (
	"context"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"trustgrid/internal/api"
	"trustgrid/internal/client"
	"trustgrid/internal/experiments"
	"trustgrid/internal/fleet"
	"trustgrid/internal/fuzzy"
	"trustgrid/internal/grid"
	"trustgrid/internal/sched"
	"trustgrid/internal/server"
)

// testWorker is one in-test trustgrid-worker: the worker object, the
// address it serves on, and its durable directory (empty = volatile).
type testWorker struct {
	w    *fleet.Worker
	addr string
	wal  string
}

// launchWorker starts a worker. addr "" picks a fresh loopback port;
// a concrete addr re-listens there (the restart path — worker i must
// come back at the address the daemon knows).
func launchWorker(t *testing.T, wal, addr string) *testWorker {
	t.Helper()
	w, err := fleet.NewWorker(fleet.WorkerConfig{WALDir: wal, Heartbeat: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve(ln)
	t.Cleanup(func() { w.Close() })
	return &testWorker{w: w, addr: ln.Addr().String(), wal: wal}
}

func launchFleet(t *testing.T, n int, durable bool) []*testWorker {
	t.Helper()
	ws := make([]*testWorker, n)
	for i := range ws {
		wal := ""
		if durable {
			wal = t.TempDir()
		}
		ws[i] = launchWorker(t, wal, "")
	}
	return ws
}

func workerAddrs(ws []*testWorker) []string {
	addrs := make([]string, len(ws))
	for i, w := range ws {
		addrs[i] = w.addr
	}
	return addrs
}

// fleetParityConfig is the shared daemon configuration of the fleet
// parity tests — identical between the -shards reference and the
// -workers fleet except for where the shards live.
func fleetParityConfig(algo string, dyn *sched.DynamicsConfig, tenants []api.TenantSpec) server.Config {
	setup := experiments.TestSetup()
	setup.Population = 12
	setup.Generations = 6
	return server.Config{
		Sites: shardedSites(), Algo: algo, Mode: "frisky", BatchInterval: 300,
		Seed: 21, Setup: setup, Manual: true, Tenants: tenants,
		RoundBudget: 3, Dynamics: dyn,
	}
}

// driveFleetTraffic pushes the scripted window protocol through a
// daemon: submit each window's jobs, advance to the window boundary,
// call the hook (the crash test's injection point), and finally drain.
func driveFleetTraffic(t *testing.T, c *client.Client, jobs []shardedJob, delta float64,
	hook func(window int, target float64)) {
	t.Helper()
	ctx := context.Background()
	windows := jobs[len(jobs)-1].window + 1
	next := 0
	for w := 0; w < windows; w++ {
		target := delta * float64(w+1)
		for next < len(jobs) && jobs[next].window == w {
			j := jobs[next]
			id, arr := j.id, j.arrival
			if _, err := c.Submit(ctx, j.tenant, []api.JobSpec{
				{ID: &id, Arrival: &arr, Workload: j.workload, SD: j.sd},
			}); err != nil {
				t.Fatalf("submit job %d: %v", j.id, err)
			}
			next++
		}
		if _, err := c.Advance(ctx, api.AdvanceRequest{To: target}); err != nil {
			t.Fatalf("advance to %v: %v", target, err)
		}
		if hook != nil {
			hook(w, target)
		}
	}
	if _, err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// runFleetDaemon builds a daemon from cfg, drives the scripted
// traffic, and returns the complete event stream, the tenant facts and
// the final metrics report.
func runFleetDaemon(t *testing.T, cfg server.Config, jobs []shardedJob,
	hook func(window int, target float64)) (string, string, *api.MetricsReport) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop(false)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	driveFleetTraffic(t, c, jobs, cfg.BatchInterval, hook)
	events := fetchEvents(t, ts.URL)
	rep, err := c.Metrics(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	return events, tenantFacts(rep), rep
}

// TestFleetParity is the tentpole's acceptance gate: a daemon driving
// 3 trustgrid-worker processes over the wire produces the byte-exact
// /v2/events stream and tenant counters of the same daemon running
// -shards 3 in process. Both sides build their engines from the same
// fleet.Spec derivation, so this holds by construction — the test pins
// the whole path (framed protocol, event sequencing, remote barriers,
// admission state shipped in the spec) against it. Min-Min and STGA,
// static and churning grid.
func TestFleetParity(t *testing.T) {
	repCfg := fuzzy.DefaultReputationConfig()
	dyn := &sched.DynamicsConfig{
		Churn: []grid.ChurnEvent{
			{Time: 700, Site: 1, Kind: grid.ChurnCrash},
			{Time: 900, Site: 4, Kind: grid.ChurnDegrade, Factor: 0.5},
			{Time: 1300, Site: 1, Kind: grid.ChurnJoin},
			{Time: 1500, Site: 2, Kind: grid.ChurnDrain},
		},
		Reputation: &repCfg,
		TrueLevels: []float64{0.7, 0.5, 0.8, 0.6, 0.9, 0.55},
	}
	for _, algo := range []string{"minmin", "stga"} {
		t.Run(algo, func(t *testing.T) { runFleetParity(t, algo, nil) })
		t.Run(algo+"-churn", func(t *testing.T) { runFleetParity(t, algo, dyn) })
	}
}

func runFleetParity(t *testing.T, algo string, dyn *sched.DynamicsConfig) {
	const nShards = 3
	tenantNames := shardedTenantNames(t, nShards)
	tenantWeights := []float64{2, 1, 3}
	specs := make([]api.TenantSpec, nShards)
	for i, id := range tenantNames {
		specs[i] = api.TenantSpec{ID: id, Weight: tenantWeights[i]}
	}
	jobs := shardedJobList(36, 300, tenantNames)

	refCfg := fleetParityConfig(algo, dyn, specs)
	refCfg.Shards = nShards
	wantEvents, wantFacts, wantRep := runFleetDaemon(t, refCfg, jobs, nil)
	if wantEvents == "" {
		t.Fatal("reference daemon produced no events")
	}

	workers := launchFleet(t, nShards, false)
	fleetCfg := fleetParityConfig(algo, dyn, specs)
	fleetCfg.Workers = workerAddrs(workers)
	gotEvents, gotFacts, rep := runFleetDaemon(t, fleetCfg, jobs, nil)

	if gotEvents != wantEvents {
		d := firstDiff(wantEvents, gotEvents)
		t.Fatalf("fleet event stream diverges from -shards %d at byte %d\nwant: %s\ngot:  %s",
			nShards, d, excerpt(wantEvents, d), excerpt(gotEvents, d))
	}
	if gotFacts != wantFacts {
		t.Fatalf("fleet tenant facts diverge:\nwant:\n%s\ngot:\n%s", wantFacts, gotFacts)
	}
	if len(rep.Shards) != nShards {
		t.Fatalf("fleet metrics report %d shards, want %d", len(rep.Shards), nShards)
	}
	if rep.Algo != wantRep.Algo {
		t.Errorf("fleet reports algo %q, -shards %d reports %q", rep.Algo, nShards, wantRep.Algo)
	}
	for i, sm := range rep.Shards {
		if sm.Sites != wantRep.Shards[i].Sites {
			t.Errorf("shard %d reports %d sites, -shards %d reports %d", i, sm.Sites, nShards, wantRep.Shards[i].Sites)
		}
		if sm.Addr != workers[i].addr {
			t.Errorf("shard %d reports addr %q, want %q", i, sm.Addr, workers[i].addr)
		}
		if sm.Down {
			t.Errorf("shard %d reported down at end of a healthy run", i)
		}
	}
}

// TestFleetWorkerCrashParity is the durability gate across the process
// boundary, in TestCrashPointParity style: kill one worker mid-run,
// verify its tenants are refused with 503 while the rest of the fleet
// keeps working, restart it from its WAL on the same address, reattach
// via the next barrier — and require the complete event stream and
// tenant counters to be byte-identical to an uninterrupted in-process
// -shards 3 run. The victim shard owns churning sites, so the replay
// also reproduces the churn prefix and reputation feedback.
func TestFleetWorkerCrashParity(t *testing.T) {
	repCfg := fuzzy.DefaultReputationConfig()
	dyn := &sched.DynamicsConfig{
		Churn: []grid.ChurnEvent{
			{Time: 700, Site: 1, Kind: grid.ChurnCrash},
			{Time: 900, Site: 4, Kind: grid.ChurnDegrade, Factor: 0.5},
			{Time: 1300, Site: 1, Kind: grid.ChurnJoin},
			{Time: 1500, Site: 2, Kind: grid.ChurnDrain},
		},
		Reputation: &repCfg,
		TrueLevels: []float64{0.7, 0.5, 0.8, 0.6, 0.9, 0.55},
	}
	for _, algo := range []string{"minmin", "stga"} {
		t.Run(algo, func(t *testing.T) { runFleetCrashParity(t, algo, dyn) })
	}
}

func runFleetCrashParity(t *testing.T, algo string, dyn *sched.DynamicsConfig) {
	const (
		nShards    = 3
		victim     = 1 // shard whose worker dies; owns churning sites 1 and 4
		crashAfter = 2 // window index after whose barrier the worker dies
		delta      = 300.0
	)
	ctx := context.Background()
	tenantNames := shardedTenantNames(t, nShards)
	tenantWeights := []float64{2, 1, 3}
	specs := make([]api.TenantSpec, nShards)
	for i, id := range tenantNames {
		specs[i] = api.TenantSpec{ID: id, Weight: tenantWeights[i]}
	}
	jobs := shardedJobList(36, delta, tenantNames)

	refCfg := fleetParityConfig(algo, dyn, specs)
	refCfg.Shards = nShards
	wantEvents, wantFacts, _ := runFleetDaemon(t, refCfg, jobs, nil)

	workers := launchFleet(t, nShards, true)
	fleetCfg := fleetParityConfig(algo, dyn, specs)
	fleetCfg.Workers = workerAddrs(workers)

	srv, err := server.New(fleetCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop(false)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)

	shardDown := func(want bool) bool {
		rep, err := c.Metrics(ctx, "")
		if err != nil {
			t.Fatal(err)
		}
		return rep.Shards[victim].Down == want
	}
	driveFleetTraffic(t, c, jobs, delta, func(w int, target float64) {
		if w != crashAfter {
			return
		}
		// Kill the victim's worker process. Everything acknowledged is
		// already committed in its WAL.
		if err := workers[victim].w.Close(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for !shardDown(true) {
			if time.Now().After(deadline) {
				t.Fatal("daemon never marked the dead worker down")
			}
			time.Sleep(10 * time.Millisecond)
		}
		// Its tenants are refused while it is down (a throwaway ID the
		// scripted trace never uses, so the refusal leaves no trace in
		// either run's stream).
		probeID, probeArr := 9001, target+10
		if _, err := c.Submit(ctx, tenantNames[victim], []api.JobSpec{
			{ID: &probeID, Arrival: &probeArr, Workload: 500, SD: 0.6},
		}); err == nil {
			t.Fatal("submission for a down shard's tenant was accepted")
		}
		// Restart from the WAL on the same address; re-advancing to the
		// current boundary is the barrier that reattaches it (a no-op for
		// every engine — the clock is already there).
		workers[victim] = launchWorker(t, workers[victim].wal, workers[victim].addr)
		if _, err := c.Advance(ctx, api.AdvanceRequest{To: target}); err != nil {
			t.Fatalf("reattach advance to %v: %v", target, err)
		}
		if !shardDown(false) {
			t.Fatal("worker did not reattach on the barrier after restart")
		}
	})

	gotEvents := fetchEvents(t, ts.URL)
	rep, err := c.Metrics(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	gotFacts := tenantFacts(rep)
	if gotEvents != wantEvents {
		d := firstDiff(wantEvents, gotEvents)
		t.Fatalf("event stream diverges across the worker crash at byte %d\nwant: %s\ngot:  %s",
			d, excerpt(wantEvents, d), excerpt(gotEvents, d))
	}
	if gotFacts != wantFacts {
		t.Fatalf("tenant facts diverge across the worker crash:\nwant:\n%s\ngot:\n%s", wantFacts, gotFacts)
	}
}
