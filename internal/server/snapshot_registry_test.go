package server_test

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"trustgrid/internal/api"
	"trustgrid/internal/client"
	"trustgrid/internal/idset"
	"trustgrid/internal/server"
)

// The snapshot-registry invariant (DESIGN.md §10.2): a snapshot at WAL
// position p holds exactly the job-ID registry the arrival records at
// or below p imply, however many submitters are mid-request while it is
// written. The tests below run concurrent explicit-ID submitters against
// a daemon that snapshots after every record, in both on-disk layouts.

const (
	registryClients   = 6
	registryPerClient = 12
)

// registryLayouts are the two WAL layouts under test.
func registryLayouts(t *testing.T) map[string]func(dir string) server.Config {
	return map[string]func(dir string) server.Config{
		"flat": func(dir string) server.Config {
			cfg := walTestConfig(dir, "minmin")
			cfg.SnapshotEvery = 1
			cfg.Tenants = []api.TenantSpec{{ID: "acme"}, {ID: "umbrella"}}
			return cfg
		},
		"sharded": func(dir string) server.Config {
			cfg := walShardedConfig(dir, "minmin")
			cfg.SnapshotEvery = 1
			for _, id := range shardedTenantNames(t, crashShards) {
				cfg.Tenants = append(cfg.Tenants, api.TenantSpec{ID: id})
			}
			return cfg
		},
	}
}

// registryJob is one explicit-ID submission and its owner.
type registryJob struct {
	id     int
	tenant string
}

func submitRegistryJob(c *client.Client, j registryJob) error {
	id, arr := j.id, float64(j.id)
	_, err := c.Submit(context.Background(), j.tenant, []api.JobSpec{
		{ID: &id, Arrival: &arr, Workload: 500, SD: 0.6},
	})
	return err
}

// runRegistrySubmitters drives registryClients concurrent clients, one
// job per request over disjoint ID ranges, then stops the daemon and
// returns every job submitted. Each client registers a throwaway tenant
// after every submit: snapshot files are named by the coordinator log's
// sequence number, which arrivals do not move in the sharded layout, so
// without coordinator records in between every snapshot would overwrite
// the one before it.
func runRegistrySubmitters(t *testing.T, cfg server.Config) []registryJob {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	var jobs []registryJob
	for c := 0; c < registryClients; c++ {
		tenant := cfg.Tenants[c%len(cfg.Tenants)].ID
		for k := 0; k < registryPerClient; k++ {
			jobs = append(jobs, registryJob{id: 1 + c*1000 + k, tenant: tenant})
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < registryClients; c++ {
		wg.Add(1)
		go func(mine []registryJob) {
			defer wg.Done()
			cl := client.New(ts.URL)
			for _, j := range mine {
				if err := submitRegistryJob(cl, j); err != nil {
					t.Errorf("submit job %d: %v", j.id, err)
					return
				}
				spare := api.TenantSpec{ID: fmt.Sprintf("spare-%d", j.id)}
				if _, err := cl.CreateTenant(context.Background(), spare); err != nil {
					t.Errorf("create tenant %s: %v", spare.ID, err)
					return
				}
			}
		}(jobs[c*registryPerClient : (c+1)*registryPerClient])
	}
	wg.Wait()
	ts.Close()
	if _, err := srv.Stop(false); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	return jobs
}

// registryJSON is the slice of a server snapshot the invariant speaks
// about, plus the watermarks that say which records it covers.
type registryJSON struct {
	Seq       uint64        `json:"seq"`
	ShardSeqs []uint64      `json:"shard_seqs"`
	NextG     uint64        `json:"next_g"`
	NextID    int64         `json:"next_id"`
	Owners    *ownerColumns `json:"owners"`
}

// ownerColumns is a version-3 snapshot's owners field: an idset byte
// column of IDs, one uvarint tenant index per ID, the tenant names.
type ownerColumns struct {
	IDs     []byte   `json:"ids"`
	Tenants []byte   `json:"tenants"`
	Names   []string `json:"names"`
}

// byTenant decodes the columns into tenant → ascending IDs, failing the
// test on a column that does not decode; a nil field is the empty map.
func (c *ownerColumns) byTenant(t *testing.T) map[string][]int {
	t.Helper()
	out := map[string][]int{}
	if c == nil {
		return out
	}
	ids, err := idset.ParseColumn(c.IDs)
	if err != nil {
		t.Fatalf("owners.ids: %v", err)
	}
	b := c.Tenants
	for _, id := range ids {
		tenant, w := binary.Uvarint(b)
		if w <= 0 || tenant >= uint64(len(c.Names)) {
			t.Fatalf("owners.tenants does not give ID %d a tenant index into %d names", id, len(c.Names))
		}
		out[c.Names[tenant]] = append(out[c.Names[tenant]], id)
		b = b[w:]
	}
	if len(b) != 0 {
		t.Fatalf("owners.tenants has %d bytes past its %d IDs", len(b), len(ids))
	}
	return out
}

// registrySnapshot is one snapshot file of a finished run: what it
// holds, which logged arrivals its watermarks cover, and the disk state
// of a crash right after it was written.
type registrySnapshot struct {
	registryJSON
	owners        map[string][]int // registryJSON.Owners, decoded
	covered, lost []registryJob
	crashDir      func() string
}

// harvestRegistry reads a closed WAL directory of either layout back as
// its snapshots. Flat: a snapshot covers records up to its seq. Sharded:
// shard i's records up to shard_seqs[i], which are exactly the records
// with a global sequence <= next_g, the crash point crashShardedDir
// takes.
func harvestRegistry(t *testing.T, dir string, sharded bool) []registrySnapshot {
	t.Helper()
	type arrival struct {
		seq   uint64
		shard int
		job   registryJob
	}
	var arrivals []arrival
	collect := func(lines [][]byte, shard int) {
		for _, line := range lines {
			var rec struct {
				Seq     uint64           `json:"seq"`
				Arrival *api.TraceRecord `json:"arrival"`
			}
			if err := json.Unmarshal(line[9:], &rec); err != nil {
				t.Fatalf("unparseable record %q: %v", line, err)
			}
			if rec.Arrival != nil {
				arrivals = append(arrivals, arrival{rec.Seq, shard, registryJob{rec.Arrival.ID, rec.Arrival.Tenant}})
			}
		}
	}
	var onDisk map[uint64]diskSnapshot
	var crashAt func(snap registryJSON) string
	if sharded {
		h := harvestShardedWAL(t, dir)
		for i, d := range h.dirs[1:] {
			collect(h.lines[d], i)
		}
		onDisk = h.snaps["coord"]
		crashAt = func(snap registryJSON) string { return crashShardedDir(t, h, snap.NextG, nil, nil) }
	} else {
		lines, snaps := harvestWAL(t, dir)
		collect(lines, 0)
		onDisk = snaps
		crashAt = func(snap registryJSON) string { return crashDir(t, lines, snaps, int(snap.Seq), nil) }
	}
	var out []registrySnapshot
	for _, file := range onDisk {
		var snap registrySnapshot
		if err := json.Unmarshal(file.payload, &snap.registryJSON); err != nil {
			t.Fatal(err)
		}
		snap.owners = snap.Owners.byTenant(t)
		marks := []uint64{snap.Seq}
		if sharded {
			marks = snap.ShardSeqs
		}
		for _, a := range arrivals {
			if a.seq <= marks[a.shard] {
				snap.covered = append(snap.covered, a.job)
			} else {
				snap.lost = append(snap.lost, a.job)
			}
		}
		snap.crashDir = func() string { return crashAt(snap.registryJSON) }
		out = append(out, snap)
	}
	if want := registryClients * registryPerClient; len(out) < want/2 {
		t.Fatalf("only %d snapshots for %d submissions; the cadence is too lazy to test the race", len(out), want)
	}
	return out
}

// TestSnapshotRegistryCoveredByLog is the on-disk form of the invariant:
// every snapshot's owners and next_id are exactly those of the arrival
// records at or below its watermark(s).
func TestSnapshotRegistryCoveredByLog(t *testing.T) {
	for name, mk := range registryLayouts(t) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			runRegistrySubmitters(t, mk(dir))
			for _, snap := range harvestRegistry(t, dir, name == "sharded") {
				var wantNextID int64
				wantOwners := map[string][]int{}
				for _, j := range snap.covered {
					wantOwners[j.tenant] = append(wantOwners[j.tenant], j.id)
					if int64(j.id) > wantNextID {
						wantNextID = int64(j.id)
					}
				}
				for _, ids := range wantOwners {
					sort.Ints(ids)
				}
				render := func(nextID int64, owners map[string][]int) string {
					b, _ := json.Marshal(map[string]any{"next_id": nextID, "owners": owners})
					return string(b)
				}
				if got, want := render(snap.NextID, snap.owners), render(wantNextID, wantOwners); got != want {
					t.Errorf("snapshot at seq %d, shard_seqs %v holds a registry its log prefix does not imply:\n got %s\nwant %s",
						snap.Seq, snap.ShardSeqs, got, want)
				}
			}
		})
	}
}

// TestCrashAtSnapshotRetryAccepted is the behaviour the invariant buys:
// crash at any snapshot, and every submit whose record did not survive
// can be retried — accepted, and arrived in the recovered event stream.
// A snapshot that already held such a job's ID would refuse the retry as
// a duplicate and lose the job.
func TestCrashAtSnapshotRetryAccepted(t *testing.T) {
	for name, mk := range registryLayouts(t) {
		t.Run(name, func(t *testing.T) {
			baseDir := t.TempDir()
			jobs := runRegistrySubmitters(t, mk(baseDir))
			snaps := harvestRegistry(t, baseDir, name == "sharded")
			// A dozen crash points (map order picked them at random) keep the
			// test quick; without the invariant more than half of the
			// snapshots here hold an unlogged ID, so a dozen always meets one.
			for _, snap := range snaps[:12] {
				label := fmt.Sprintf("crash at seq %d, shard_seqs %v", snap.Seq, snap.ShardSeqs)
				cfg := mk(snap.crashDir())
				cfg.SnapshotEvery = 0 // default cadence: the retries need no snapshots
				srv, err := server.New(cfg)
				if err != nil {
					t.Fatalf("%s: recovery failed: %v", label, err)
				}
				ts := httptest.NewServer(srv.Handler())
				cl := client.New(ts.URL)
				for _, j := range snap.lost {
					if err := submitRegistryJob(cl, j); err != nil {
						t.Errorf("%s: retry of unacknowledged job %d refused: %v", label, j.id, err)
					}
				}
				if _, err := cl.Drain(context.Background()); err != nil {
					t.Fatalf("%s: drain: %v", label, err)
				}
				arrived := make(map[int]bool)
				sc := bufio.NewScanner(strings.NewReader(fetchEvents(t, ts.URL)))
				for sc.Scan() {
					var ev api.Event
					if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
						t.Fatal(err)
					}
					if ev.Kind == "arrived" {
						arrived[ev.Job] = true
					}
				}
				ts.Close()
				if _, err := srv.Stop(false); err != nil {
					t.Fatalf("%s: stop: %v", label, err)
				}
				for _, j := range jobs {
					if !arrived[j.id] {
						t.Errorf("%s: job %d never arrived in the recovered run", label, j.id)
					}
				}
				if t.Failed() {
					return // one bad crash point is proof enough
				}
			}
		})
	}
}
