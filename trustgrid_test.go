package trustgrid_test

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"testing"

	"trustgrid"
)

// TestFacadeQuickstart exercises the documented public-API path
// end-to-end: generate a workload, build schedulers, simulate, compare.
func TestFacadeQuickstart(t *testing.T) {
	w, err := trustgrid.PSAWorkload(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 200 || len(w.Sites) != 20 {
		t.Fatalf("workload shape: %d jobs, %d sites", len(w.Jobs), len(w.Sites))
	}

	run := func(s trustgrid.Scheduler) trustgrid.Summary {
		res, err := trustgrid.Simulate(trustgrid.SimConfig{
			Jobs: w.Jobs, Sites: w.Sites, Scheduler: s,
			BatchInterval: 5000, Rand: trustgrid.NewRand(2),
		})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		return res.Summary
	}

	secure := run(trustgrid.NewMinMin(trustgrid.SecurePolicy()))
	risky := run(trustgrid.NewMinMin(trustgrid.RiskyPolicy()))
	fr := run(trustgrid.NewSufferage(trustgrid.FRiskyPolicy(0.5)))

	cfg := trustgrid.STGAConfig()
	cfg.GA.PopulationSize = 40
	cfg.GA.Generations = 20
	stgaSched := trustgrid.NewSTGA(cfg, trustgrid.NewRand(3))
	stgaSched.Train(w.Training, w.Sites, 25)
	stgaRes := run(stgaSched)

	// The paper's qualitative orderings on any workload:
	if secure.NFail != 0 {
		t.Fatalf("secure mode failed %d jobs", secure.NFail)
	}
	if risky.NRisk == 0 {
		t.Fatal("risky mode took no risks on a mixed-SL platform")
	}
	if fr.NFail > fr.NRisk {
		t.Fatal("NFail must be bounded by NRisk")
	}
	if secure.Makespan <= risky.Makespan {
		t.Fatalf("secure (%v) should trail risky (%v) under load", secure.Makespan, risky.Makespan)
	}
	if stgaRes.Jobs != 200 {
		t.Fatalf("STGA completed %d/200 jobs", stgaRes.Jobs)
	}
}

func TestFacadeNASWorkload(t *testing.T) {
	w, err := trustgrid.NASWorkload(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Sites) != 12 {
		t.Fatalf("NAS platform has %d sites, want 12", len(w.Sites))
	}
	if len(w.Jobs) != 16000 {
		t.Fatalf("NAS workload has %d jobs, want Table 1's 16000", len(w.Jobs))
	}
}

func TestFacadeMCT(t *testing.T) {
	w, err := trustgrid.PSAWorkload(2, 50)
	if err != nil {
		t.Fatal(err)
	}
	res, err := trustgrid.Simulate(trustgrid.SimConfig{
		Jobs: w.Jobs, Sites: w.Sites,
		Scheduler:     trustgrid.NewMCT(trustgrid.FRiskyPolicy(0.5)),
		BatchInterval: 5000, Rand: trustgrid.NewRand(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Jobs != 50 {
		t.Fatalf("MCT completed %d/50", res.Summary.Jobs)
	}
}

// TestFacadeSimulateRejectsNaNWorkload: the Go API validates jobs as
// the HTTP and trace paths do, so a NaN workload is an error, not a
// schedule computed from NaN ETCs.
func TestFacadeSimulateRejectsNaNWorkload(t *testing.T) {
	w, err := trustgrid.PSAWorkload(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	w.Jobs[3].Workload = math.NaN()
	_, err = trustgrid.Simulate(trustgrid.SimConfig{
		Jobs: w.Jobs, Sites: w.Sites,
		Scheduler:     trustgrid.NewMinMin(trustgrid.FRiskyPolicy(0.5)),
		BatchInterval: 5000, Rand: trustgrid.NewRand(4),
	})
	if err == nil {
		t.Fatal("Simulate accepted a job with a NaN workload")
	}
}

// TestFacadeOnline exercises the streaming-arrival API: an Online
// engine fed job by job must reproduce the batch Simulate result.
func TestFacadeOnline(t *testing.T) {
	w, err := trustgrid.PSAWorkload(3, 80)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := trustgrid.Simulate(trustgrid.SimConfig{
		Jobs: w.Jobs, Sites: w.Sites,
		Scheduler:     trustgrid.NewMinMin(trustgrid.FRiskyPolicy(0.5)),
		BatchInterval: 5000, Rand: trustgrid.NewRand(5),
	})
	if err != nil {
		t.Fatal(err)
	}

	var placed int
	o, err := trustgrid.NewOnline(trustgrid.SimConfig{
		Sites:         w.Sites,
		Scheduler:     trustgrid.NewMinMin(trustgrid.FRiskyPolicy(0.5)),
		BatchInterval: 5000, Rand: trustgrid.NewRand(5),
		OnEvent: func(ev trustgrid.EngineEvent) {
			if ev.Kind == trustgrid.EventPlaced {
				placed++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range w.Jobs {
		if err := o.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	res, err := o.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Makespan != batch.Summary.Makespan ||
		res.Summary.AvgResponse != batch.Summary.AvgResponse ||
		res.Summary.NRisk != batch.Summary.NRisk {
		t.Fatalf("online summary %+v != batch %+v", res.Summary, batch.Summary)
	}
	if placed < 80 {
		t.Fatalf("saw %d placements for 80 jobs", placed)
	}
}

// TestFacadeMultiTenantService runs the README's multi-tenant quick
// start through the facade only: an embedded service, the typed
// client, tenant registration, fair-share config, quota errors and the
// event iterator.
func TestFacadeMultiTenantService(t *testing.T) {
	w, err := trustgrid.PSAWorkload(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	setup := trustgrid.DefaultSetup()
	setup.Population, setup.Generations = 8, 4
	svc, err := trustgrid.NewService(trustgrid.ServiceConfig{
		Sites: w.Sites, Algo: "minmin", Seed: 1, Setup: setup,
		BatchInterval: 1000, Manual: true, RoundBudget: 4,
		Tenants: []trustgrid.TenantSpec{{ID: "gold", Weight: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Stop(false)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	c := trustgrid.NewClient(ts.URL)
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, trustgrid.TenantSpec{ID: "bronze", Weight: 1, MaxQueue: 1}); err != nil {
		t.Fatal(err)
	}
	arr := 0.0
	if _, err := c.Submit(ctx, "gold", []trustgrid.JobSpec{{Arrival: &arr, Workload: 1000, SD: 0.7}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, "bronze", []trustgrid.JobSpec{{Arrival: &arr, Workload: 1000, SD: 0.7}}); err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(ctx, "bronze", []trustgrid.JobSpec{{Arrival: &arr, Workload: 1000, SD: 0.7}})
	if !errors.Is(err, trustgrid.ErrOverQuota) {
		t.Fatalf("want ErrOverQuota, got %v", err)
	}
	if trustgrid.ClientRetryAfter(err) <= 0 {
		t.Fatal("Retry-After hint missing")
	}
	if _, err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	es := c.Events(ctx, trustgrid.ClientEventsOptions{Kinds: []string{"placed"}})
	defer es.Close()
	placed := 0
	for {
		if _, err := es.Next(); err != nil {
			break
		}
		placed++
	}
	if placed < 2 {
		t.Fatalf("placed %d events, want >= 2 (one per job, retries extra)", placed)
	}
	rep, err := c.Metrics(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.RoundBudget != 4 || rep.Tenants["gold"].Weight != 4 {
		t.Fatalf("report: budget %d tenants %+v", rep.RoundBudget, rep.Tenants)
	}
}
