package server_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"trustgrid/internal/api"
	"trustgrid/internal/client"
	"trustgrid/internal/server"
)

// TestLiveSnapshotHoldsLoggedJobs is the live-mode half of the snapshot
// invariant (DESIGN.md §10.2): a live handler logs and commits on the
// loop goroutine and injects into the arrival channel afterwards, and a
// snapshot written in between would cover records whose jobs no engine
// holds — recovery skips covered records, so a crash there loses
// acknowledged jobs. Concurrent submitters run against a daemon that
// wants a snapshot after every record; the daemon is then crashed at
// each snapshot it wrote and the recovered drain must complete exactly
// the jobs logged at or below the crash point.
func TestLiveSnapshotHoldsLoggedJobs(t *testing.T) {
	// Submitters run until the daemon has written wantSnaps snapshots;
	// maxRequests only bounds a daemon that never writes one.
	const clients, perRequest, wantSnaps, maxRequests = 4, 2, 8, 2000
	mk := func(dir string, tick time.Duration) server.Config {
		cfg := walTestConfig(dir, "minmin")
		cfg.Manual = false
		cfg.Tick = tick
		cfg.SnapshotEvery = 1
		cfg.Dynamics = nil // every job completes on its first attempt: the drain is the ground truth
		return cfg
	}
	dir := t.TempDir()
	srv, err := server.New(mk(dir, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	snapshots := func() int {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Error(err)
			return wantSnaps
		}
		n := 0
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "snap-") {
				n++
			}
		}
		return n
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := client.New(ts.URL)
			for k := 0; k < maxRequests && snapshots() < wantSnaps; k++ {
				specs := make([]api.JobSpec, perRequest)
				for i := range specs {
					specs[i] = api.JobSpec{Workload: 500, SD: 0.6}
				}
				ids, err := cl.Submit(context.Background(), "", specs)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				// Pace on the ticker, not the wall clock: the next request
				// goes out once a tick has ingested this one, so the run
				// spans at least one snapshot opportunity per request.
				for {
					rep, err := cl.Metrics(context.Background(), "")
					if err != nil {
						t.Errorf("metrics: %v", err)
						return
					}
					if rep.Arrived >= int64(ids[len(ids)-1]) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	ts.Close()
	if _, err := srv.Stop(false); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	lines, snaps := harvestWAL(t, dir)
	logged := make([]int, len(lines)) // job ID of record k+1, 0 for other kinds
	for k, line := range lines {
		var rec struct {
			Arrival *api.TraceRecord `json:"arrival"`
		}
		if err := json.Unmarshal(line[9:], &rec); err != nil {
			t.Fatalf("unparseable record %q: %v", line, err)
		}
		if rec.Arrival != nil {
			logged[k] = rec.Arrival.ID
		}
	}
	if len(snaps) < wantSnaps {
		t.Fatalf("only %d snapshots in %d records; the cadence is too lazy to test the window", len(snaps), len(lines))
	}
	seqs := make([]int, 0, len(snaps))
	for seq := range snaps {
		seqs = append(seqs, int(seq))
	}
	sort.Ints(seqs)
	for _, seq := range seqs {
		// An hour-long tick: the recovered daemon schedules nothing until
		// Stop drains it in virtual time.
		rec, err := server.New(mk(crashDir(t, lines, snaps, seq, nil), time.Hour))
		if err != nil {
			t.Fatalf("crash at snapshot %d: recovery failed: %v", seq, err)
		}
		res, err := rec.Stop(true)
		if err != nil {
			t.Fatalf("crash at snapshot %d: drain: %v", seq, err)
		}
		want := 0
		for _, id := range logged[:seq] {
			if id != 0 {
				want++
			}
		}
		if res.Summary.Jobs != want {
			t.Errorf("crash at snapshot %d: the log holds %d acknowledged jobs, the recovered drain completed %d",
				seq, want, res.Summary.Jobs)
		}
		if t.Failed() {
			return // one bad crash point is proof enough
		}
	}
}
