package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trustgrid/internal/api"
	"trustgrid/internal/client"
	"trustgrid/internal/experiments"
	"trustgrid/internal/fuzzy"
	"trustgrid/internal/grid"
	"trustgrid/internal/sched"
	"trustgrid/internal/server"
)

const crashShards = 4

// walShardedConfig is walTestConfig scaled to a 4-shard daemon: six
// sites, churn touching sites of three different shards, the same
// aggressive snapshot cadence and full WAL retention.
func walShardedConfig(walDir, algo string) server.Config {
	setup := experiments.TestSetup()
	setup.Population = 12
	setup.Generations = 6
	rep := fuzzy.DefaultReputationConfig()
	return server.Config{
		Sites:         shardedSites(),
		Algo:          algo,
		Seed:          11,
		BatchInterval: 300,
		Manual:        true,
		Setup:         setup,
		RoundBudget:   3,
		Shards:        crashShards,
		Dynamics: &sched.DynamicsConfig{
			Churn: []grid.ChurnEvent{
				{Time: 700, Site: 1, Kind: grid.ChurnCrash},
				{Time: 1000, Site: 2, Kind: grid.ChurnDegrade, Factor: 0.5},
				{Time: 1300, Site: 5, Kind: grid.ChurnDrain},
				{Time: 1600, Site: 1, Kind: grid.ChurnJoin},
			},
			Reputation: &rep,
			TrueLevels: []float64{0.7, 0.5, 0.8, 0.6, 0.9, 0.55},
		},
		WALDir:        walDir,
		SnapshotEvery: 8,
		WALKeep:       -1,
	}
}

// driveShardedWAL replays the scripted protocol with tenants covering
// every shard, idempotently — same contract as driveWAL.
func driveShardedWAL(t *testing.T, c *client.Client, jobs []walJob, tenants []string) {
	t.Helper()
	ctx := context.Background()
	for i, id := range tenants {
		spec := api.TenantSpec{ID: id, Weight: float64(1 + i%3)}
		if _, err := c.CreateTenant(ctx, spec); err != nil && !errors.Is(err, client.ErrConflict) {
			t.Fatalf("create tenant %s: %v", id, err)
		}
	}
	m, err := c.Metrics(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	now := m.VirtualNow
	next := 0
	for tick := 300.0; tick <= 2400; tick += 300 {
		for next < len(jobs) && jobs[next].submitAt < tick {
			j := jobs[next]
			id, arr := j.id, j.arrival
			_, err := c.Submit(ctx, j.tenant, []api.JobSpec{
				{ID: &id, Arrival: &arr, Workload: j.workload, SD: j.sd},
			})
			if err != nil && !(errors.Is(err, client.ErrBadRequest) &&
				(strings.Contains(err.Error(), "duplicate job id") || strings.Contains(err.Error(), "at or below the retention horizon"))) {
				t.Fatalf("submit job %d: %v", j.id, err)
			}
			next++
		}
		if tick > now {
			if _, err := c.Advance(ctx, api.AdvanceRequest{To: tick}); err != nil {
				t.Fatalf("advance to %v: %v", tick, err)
			}
		}
	}
	if _, err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// shardedHarvest is the closed WAL state of one sharded daemon: per-log
// record lines and snapshots, plus every record's global sequence.
type shardedHarvest struct {
	dirs  []string            // relative dir names: coord, shard-0000, ...
	lines map[string][][]byte // dir -> framed record lines, local seq order
	gseq  map[string][]uint64 // dir -> G of each line
	snaps map[string]map[uint64]diskSnapshot
	maxG  uint64
}

func harvestShardedWAL(t *testing.T, root string) *shardedHarvest {
	t.Helper()
	h := &shardedHarvest{
		lines: make(map[string][][]byte),
		gseq:  make(map[string][]uint64),
		snaps: make(map[string]map[uint64]diskSnapshot),
	}
	h.dirs = append(h.dirs, "coord")
	for i := 0; i < crashShards; i++ {
		h.dirs = append(h.dirs, fmt.Sprintf("shard-%04d", i))
	}
	seenG := make(map[uint64]string)
	for _, d := range h.dirs {
		lines, snaps := harvestWAL(t, filepath.Join(root, d))
		h.lines[d], h.snaps[d] = lines, snaps
		prev := uint64(0)
		for _, line := range lines {
			var rec struct {
				G uint64 `json:"g"`
			}
			if err := json.Unmarshal(line[9:], &rec); err != nil {
				t.Fatalf("%s: unparseable record %q: %v", d, line, err)
			}
			if rec.G == 0 {
				t.Fatalf("%s: record without global sequence: %s", d, line)
			}
			if rec.G <= prev {
				t.Fatalf("%s: G not monotone: %d after %d", d, rec.G, prev)
			}
			if other, dup := seenG[rec.G]; dup {
				t.Fatalf("G=%d appears in both %s and %s", rec.G, other, d)
			}
			seenG[rec.G] = d
			prev = rec.G
			h.gseq[d] = append(h.gseq[d], rec.G)
			if rec.G > h.maxG {
				h.maxG = rec.G
			}
		}
	}
	for g := uint64(1); g <= h.maxG; g++ {
		if _, ok := seenG[g]; !ok {
			t.Fatalf("global sequence has a gap at %d (max %d)", g, h.maxG)
		}
	}
	return h
}

// crashShardedDir materializes the disk state of a kill -9 right after
// global record k became durable: every log keeps its records with
// G <= k; coordinator snapshots written by then (their NextG horizon is
// <= k) come along with their journal files. extra maps a dir to one
// additional record index to include — the skewed group-commit case,
// where a later log's fsync won but an earlier record of the same
// commit was lost. torn appends garbage to one log.
func crashShardedDir(t *testing.T, h *shardedHarvest, k uint64, extra map[string]int, torn map[string][]byte) string {
	t.Helper()
	root := t.TempDir()
	for _, d := range h.dirs {
		dir := filepath.Join(root, d)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for i, g := range h.gseq[d] {
			if g <= k || (extra != nil && extra[d] == i+1) {
				buf = append(buf, h.lines[d][i]...)
			}
		}
		buf = append(buf, torn[d]...)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%016d.log", 1)), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, onDisk := range h.snaps["coord"] {
		var snap struct {
			NextG uint64 `json:"next_g"`
		}
		if err := json.Unmarshal(onDisk.payload, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.NextG <= k {
			onDisk.writeTo(t, filepath.Join(root, "coord"), name)
		}
	}
	return root
}

// TestShardedCrashPointParity extends the recovery contract to the
// 4-shard daemon: record a full run across the coordinator log and four
// shard logs, then simulate a kill -9 after EVERY globally durable
// record — including torn tails and skewed group commits where one
// log's fsync survived a commit its sibling lost — recover, re-drive
// the identical protocol, and require the merged /v2/events stream and
// the per-tenant counters to be byte-identical to the uninterrupted
// sharded run's. Like TestCrashPointParity it runs once more from the
// disk states of a run with a small event ring, where the stream must
// be identical from the recovered window's first event on.
func TestShardedCrashPointParity(t *testing.T) {
	for _, algo := range []string{"minmin", "stga"} {
		t.Run(algo, func(t *testing.T) { shardedCrashPointParity(t, algo, 0) })
	}
	t.Run("minmin-small-window", func(t *testing.T) { shardedCrashPointParity(t, "minmin", smallWindow) })
}

func shardedCrashPointParity(t *testing.T, algo string, eventBuffer int) {
	tenants := shardedTenantNames(t, crashShards)
	jobs := walJobList(20)
	for i := range jobs {
		jobs[i].tenant = tenants[i%len(tenants)]
	}
	drive := func(c *client.Client) { driveShardedWAL(t, c, jobs, tenants) }

	// Uninterrupted baseline (and, for a small ring, a second run that
	// retains the whole stream to compare against).
	baseDir := t.TempDir()
	cfg := walShardedConfig(baseDir, algo)
	cfg.EventBuffer = eventBuffer
	wantEvents, wantTenants, wantCompleted := walBaseline(t, cfg, drive)
	if eventBuffer != 0 {
		wantEvents, _, _ = walBaseline(t, walShardedConfig(t.TempDir(), algo), drive)
	}
	if wantCompleted != int64(len(jobs)) {
		t.Fatalf("baseline completed %d of %d jobs", wantCompleted, len(jobs))
	}

	h := harvestShardedWAL(t, baseDir)
	// 20 arrivals + 4 tenants + 4 churn + 8 advances + 1 drain.
	if want := uint64(20 + 4 + 4 + 8 + 1); h.maxG != want {
		t.Fatalf("recorded %d global records, want %d", h.maxG, want)
	}
	if len(h.snaps["coord"]) < 2 {
		t.Fatalf("baseline wrote %d coordinator snapshots, want >= 2", len(h.snaps["coord"]))
	}

	// Torn garbage on selected cut points, rotating across logs.
	torn := map[uint64]map[string][]byte{
		3:  {"coord": []byte("deadbeef {\"seq\":9,\"kind\":\"barr")},
		11: {h.dirs[2]: []byte("\x00\xff garbage")},
		23: {h.dirs[4]: []byte("0")},
	}
	shortened := 0
	recoverAndCompare := func(k uint64, dir, label string) {
		t.Helper()
		srv, err := server.New(walShardedConfig(dir, algo))
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", label, err)
		}
		ts := httptest.NewServer(srv.Handler())
		driveShardedWAL(t, client.New(ts.URL), jobs, tenants)
		got := fetchEvents(t, ts.URL)
		rep, err := client.New(ts.URL).Metrics(context.Background(), "")
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		ts.Close()
		if _, err := srv.Stop(false); err != nil {
			t.Fatalf("%s: stop: %v", label, err)
		}
		// crashShardedDir includes the coordinator snapshots taken at or
		// before global record k.
		wantBase := newestEventBase(t, h.snaps["coord"], func(_ uint64, payload []byte) bool {
			var snap struct {
				NextG uint64 `json:"next_g"`
			}
			if err := json.Unmarshal(payload, &snap); err != nil {
				t.Fatal(err)
			}
			return snap.NextG <= k
		})
		checkRecoveredStream(t, label, wantEvents, got, wantBase)
		if wantBase > 0 {
			shortened++
		}
		if tf := tenantFacts(rep); tf != wantTenants {
			t.Fatalf("%s: tenant counters diverge:\nwant:\n%sgot:\n%s", label, wantTenants, tf)
		}
	}
	for k := uint64(0); k <= h.maxG; k++ {
		recoverAndCompare(k, crashShardedDir(t, h, k, nil, torn[k]), fmt.Sprintf("k=%d", k))
	}
	if eventBuffer != 0 && shortened == 0 {
		t.Error("no crash point recovered a window that starts above seq 0; the ring never evicted")
	}

	// Skewed group commits: at a few crash points, the record after
	// the lost one lives in a DIFFERENT log and its fsync survived.
	// Recovery must cut back to the contiguous prefix — identical
	// outcome to the plain crash at k.
	skews := 0
	for _, k := range []uint64{2, 9, 15, 22, 30} {
		if k+2 > h.maxG {
			continue
		}
		dirOf := func(g uint64) (string, int) {
			for _, d := range h.dirs {
				for i, gg := range h.gseq[d] {
					if gg == g {
						return d, i + 1
					}
				}
			}
			t.Fatalf("G=%d not found", g)
			return "", 0
		}
		lostDir, _ := dirOf(k + 1)
		wonDir, wonIdx := dirOf(k + 2)
		if lostDir == wonDir {
			continue // same log: a later record physically can't outlive an earlier one
		}
		recoverAndCompare(k, crashShardedDir(t, h, k, map[string]int{wonDir: wonIdx}, nil),
			fmt.Sprintf("skew k=%d (+G%d in %s)", k, k+2, wonDir))
		skews++
	}
	if skews == 0 {
		t.Error("no skewed group-commit case materialized; pick different cut points")
	}
}
