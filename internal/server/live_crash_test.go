package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"trustgrid/internal/api"
	"trustgrid/internal/client"
	"trustgrid/internal/server"
)

// placement is one placed event's outcome: where and when the job runs.
type placement struct {
	site          int
	start, finish float64
}

// placementsByJob reads a raw NDJSON event stream into each job's
// placements, in stream order (a job that fails is placed again).
func placementsByJob(t *testing.T, stream string) map[int][]placement {
	t.Helper()
	out := make(map[int][]placement)
	sc := bufio.NewScanner(strings.NewReader(stream))
	for sc.Scan() {
		var ev api.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event line %q: %v", sc.Text(), err)
		}
		if ev.Kind == "placed" {
			out[ev.Job] = append(out[ev.Job], placement{ev.Site, ev.Start, ev.Finish})
		}
	}
	return out
}

// TestLiveCrashKeepsPlacements kills a live, durable daemon — its
// directory is copied while it runs — and recovers the copy. Every job
// placed before the copy must keep its site, start and finish: each
// arrival record carries the clock its job was ingested at, so replay
// re-ingests the job exactly where the live loop did, and not at the
// clock recovery happens to stand at. Requests are paced one per tick,
// so the jobs arrive at many different clocks, and the snapshot cadence
// leaves a tail of arrivals past the newest snapshot.
func TestLiveCrashKeepsPlacements(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { liveCrashKeepsPlacements(t, shards) })
	}
}

func liveCrashKeepsPlacements(t *testing.T, shards int) {
	const requests, perRequest = 26, 2
	tenants := []string{"gold", "silver", "iron"} // one per shard at -shards 3
	mk := func(dir string, tick time.Duration) server.Config {
		cfg := walShardedConfig(dir, "minmin")
		cfg.Manual = false
		cfg.Tick = tick
		cfg.Shards = shards
		return cfg
	}
	dir := t.TempDir()
	srv, err := server.New(mk(dir, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Stop(false)
	ctx := context.Background()
	c := client.New(ts.URL)
	for i, id := range tenants {
		if _, err := c.CreateTenant(ctx, api.TenantSpec{ID: id, Weight: float64(1 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	// waitArrived returns once the engine has run the arrivals of the
	// first n submitted jobs, which takes a tick: the next request then
	// reaches the loop at a later clock.
	waitArrived := func(n int64) {
		for {
			rep, err := c.Metrics(ctx, "")
			if err != nil {
				t.Fatal(err)
			}
			if rep.Arrived >= n {
				return
			}
		}
	}
	for k := 0; k < requests; k++ {
		specs := make([]api.JobSpec, perRequest)
		for i := range specs {
			// Light jobs: a site is idle again by the next round, so a
			// job's start is its round's time, which follows from the
			// clock it was ingested at.
			specs[i] = api.JobSpec{Workload: 100 + float64((k*perRequest+i)%4)*100, SD: 0.6 + 0.05*float64(k%7)}
		}
		if _, err := c.Submit(ctx, tenants[k%len(tenants)], specs); err != nil {
			t.Fatal(err)
		}
		waitArrived(int64((k + 1) * perRequest))
	}
	// Every record is committed and the housekeeping after it has run
	// (a metrics read is itself a loop command), so the directory holds
	// no half-written file: copying it now is the disk image of a kill -9.
	before := placementsByJob(t, fetchEvents(t, ts.URL))
	if len(before) == 0 {
		t.Fatal("nothing was placed before the copy; the test proves nothing")
	}
	crash := t.TempDir()
	for path, data := range readTree(t, dir) {
		if err := os.MkdirAll(filepath.Join(crash, filepath.Dir(path)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, path), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// An hour-long tick: the recovered daemon schedules nothing until
	// Stop drains it in virtual time.
	rec, err := server.New(mk(crash, time.Hour))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	rts := httptest.NewServer(rec.Handler())
	defer rts.Close()
	if _, err := rec.Stop(true); err != nil {
		t.Fatalf("recovered drain: %v", err)
	}
	after := placementsByJob(t, fetchEvents(t, rts.URL))
	for job, want := range before {
		got := after[job]
		if len(got) < len(want) {
			t.Errorf("job %d: placed %d times before the crash, %d times after recovery", job, len(want), len(got))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("job %d, placement %d: %+v before the crash, %+v after recovery", job, i, want[i], got[i])
			}
		}
	}
}
