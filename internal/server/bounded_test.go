package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
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
// 10 000. Before the retention horizon both grew tenfold. One registry
// phase takes a few microseconds, and a shared host's speed drifts by
// more than 1.5× over tens of milliseconds, so the phase is timed over
// hundreds of repetitions, on both registries at the same moment: the
// one at 100 000 jobs and a copy of the one at 10 000, restored from
// its columns. Of the phase's work only the owners columns can grow
// with jobs; the WAL marks and the tenant table are sized by shards and
// tenants.
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
	// payloadSize writes a snapshot and returns its size on disk.
	payloadSize := func() int {
		t.Helper()
		var werr error
		var refs []wal.SnapshotRef
		if err := srv.do(context.Background(), func() {
			if werr = srv.writeSnapshot(); werr == nil {
				refs, werr = srv.wal.Control().Snapshots()
			}
		}); err != nil || werr != nil || len(refs) == 0 {
			t.Fatalf("snapshot: %v, %v, %d on disk", err, werr, len(refs))
		}
		b, err := wal.ReadSnapshot(refs[0])
		if err != nil {
			t.Fatal(err)
		}
		return len(b)
	}
	// registryPhase times writeSnapshot's registry phase — the WAL
	// marks, the tenant table and the owners columns, here o's — run
	// reps times on the loop goroutine.
	const reps = 500
	registryPhase := func(o *jobOwners) (took time.Duration) {
		t.Helper()
		if err := srv.do(context.Background(), func() {
			start := time.Now()
			for range reps {
				srv.wal.Marks()
				srv.tenants.snapshot()
				o.snapshot()
			}
			took = time.Since(start)
		}); err != nil {
			t.Fatal(err)
		}
		return took
	}
	const perRound, total = 100, 100_000
	var payload10k int
	var at10k jobOwners // the registry as it stood at 10 000 jobs
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
			payload10k = payloadSize()
			if err := srv.do(context.Background(), func() {
				cols := srv.owners.snapshot()
				ids, owners, err := cols.decode()
				if err != nil {
					t.Error(err)
				}
				at10k.restore(cols.Names, ids, owners, nil)
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	payload := payloadSize()
	// The two registries are timed in adjacent pairs that alternate which
	// runs first, so a drift in the host's speed falls on both, and the
	// fastest run of each is its reading, so a preempted run does not
	// count.
	registry, registry10k := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := range 40 {
		if i%2 == 0 {
			registry10k = min(registry10k, registryPhase(&at10k))
		}
		registry = min(registry, registryPhase(&srv.owners))
		if i%2 == 1 {
			registry10k = min(registry10k, registryPhase(&at10k))
		}
	}
	t.Logf("at 10k jobs: %d B, registry phase %v per %d; at 100k: %d B, %v", payload10k, registry10k, reps, payload, registry)
	if 2*payload > 3*payload10k {
		t.Errorf("snapshot payload %d B at 100k jobs, %d B at 10k: more than 1.5×", payload, payload10k)
	}
	if 2*registry > 3*registry10k {
		t.Errorf("registry phase %v per %d at 100k jobs, %v at 10k: more than 1.5×", registry, reps, registry10k)
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
