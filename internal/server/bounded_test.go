package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"trustgrid/internal/api"
	"trustgrid/internal/experiments"
	"trustgrid/internal/grid"
	"trustgrid/internal/wal"
)

// TestSnapshotBoundedByLiveJobs drives a manual, 3-shard, durable,
// 4-tenant daemon through 100 000 jobs, a hundred a round, each round
// finishing what the one before it placed. What a snapshot costs must
// follow the jobs in flight, not the jobs ever accepted: at 100 000 jobs
// the payload and the registry phase are within 1.5× of their values at
// 10 000 (the smallest phase time of a run of snapshots, so a preempted
// one does not count, and of a few runs when the first is over). Before the retention horizon both grew tenfold.
func TestSnapshotBoundedByLiveJobs(t *testing.T) {
	sites := make([]*grid.Site, 6)
	for i := range sites {
		sites[i] = &grid.Site{ID: i, Speed: 10, Nodes: 1, SecurityLevel: 0.9}
	}
	tenants := []string{"gold", "silver", "iron", "lead"}
	cfg := Config{
		Sites: sites, Algo: "minmin", Mode: "secure", Seed: 5, Setup: experiments.TestSetup(),
		BatchInterval: 10, Manual: true, Shards: 3, WALDir: t.TempDir(),
	}
	for _, id := range tenants {
		cfg.Tenants = append(cfg.Tenants, api.TenantSpec{ID: id})
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop(false)
	h := srv.Handler()
	post := func(path string, body any) {
		t.Helper()
		b, _ := json.Marshal(body)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
		if rw.Code != http.StatusOK {
			t.Fatalf("POST %s: %d %s", path, rw.Code, rw.Body)
		}
	}
	// probe writes a run of snapshots back to back and returns the
	// payload size and the smallest registry phase among them.
	probe := func() (payload int, registry time.Duration) {
		t.Helper()
		registry = time.Hour
		for k := 0; k < 20; k++ {
			var werr error
			var took time.Duration
			if err := srv.do(context.Background(), func() {
				before := srv.snapPhases[snapRegistry].Load().Sum
				werr = srv.writeSnapshot()
				took = srv.snapPhases[snapRegistry].Load().Sum - before
			}); err != nil || werr != nil {
				t.Fatalf("snapshot: %v, %v", err, werr)
			}
			registry = min(registry, took)
		}
		var refs []wal.SnapshotRef
		if err := srv.do(context.Background(), func() { refs, err = srv.wal.Control().Snapshots() }); err != nil || len(refs) == 0 {
			t.Fatalf("no snapshot on disk: %v", err)
		}
		b, err := wal.ReadSnapshot(refs[0])
		if err != nil {
			t.Fatal(err)
		}
		return len(b), registry
	}
	const perRound, total = 100, 100_000
	var payload10k int
	var registry10k time.Duration
	work := api.JobSpec{Workload: 4, SD: 0.5}
	for round, jobs := 0, 0; jobs < total; round++ {
		for _, tenant := range tenants {
			specs := make([]api.JobSpec, perRound/len(tenants))
			for i := range specs {
				specs[i] = work
			}
			post("/v2/tenants/"+tenant+"/jobs", api.SubmitRequest{Jobs: specs})
			jobs += len(specs)
		}
		post("/v2/advance", api.AdvanceRequest{To: float64(round+1) * cfg.BatchInterval})
		if jobs == total/10 {
			payload10k, registry10k = probe()
		}
	}
	// Time on a shared host only ever adds: a probe over the bound is
	// taken again, a few times, before it counts.
	payload, registry := probe()
	for try := 0; try < 4 && 2*registry > 3*registry10k; try++ {
		_, again := probe()
		registry = min(registry, again)
	}
	t.Logf("at 10k jobs: %d B, registry %v; at 100k: %d B, registry %v", payload10k, registry10k, payload, registry)
	if 2*payload > 3*payload10k {
		t.Errorf("snapshot payload %d B at 100k jobs, %d B at 10k: more than 1.5×", payload, payload10k)
	}
	if 2*registry > 3*registry10k {
		t.Errorf("registry phase %v at 100k jobs, %v at 10k: more than 1.5×", registry, registry10k)
	}
	// What the registry holds, as an operator sees it.
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/metrics.prom", nil))
	var horizon, reg float64
	for _, line := range strings.Split(rw.Body.String(), "\n") {
		fmt.Sscanf(line, "trustgrid_retention_horizon %g", &horizon)
		fmt.Sscanf(line, "trustgrid_registry_ids %g", &reg)
	}
	if reg == 0 || reg > 4*perRound || horizon < total-4*perRound {
		t.Errorf("/metrics.prom: registry %v IDs, horizon %v, after %d jobs with about %d in flight", reg, horizon, total, perRound)
	}
}
