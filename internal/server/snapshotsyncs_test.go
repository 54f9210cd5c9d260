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

	"trustgrid/internal/api"
	"trustgrid/internal/grid"
)

// TestSnapshotSyncs pins what one snapshot costs in fsyncs
// (DESIGN.md §10.2): the journal file and its directory, the snapshot
// file, one sync per directory after the rotation and one after GC —
// 2N+5 in the nested layout of N shards, 5 in the flat one — and the
// /metrics.prom series that report them and the snapshot's phases. A
// process's first snapshot under WALKeep 2 runs no GC (it knows one
// snapshot), so it pays one sync per directory less.
func TestSnapshotSyncs(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var sites []*grid.Site
			for i := 0; i < 6; i++ {
				sites = append(sites, &grid.Site{ID: i, Speed: 10, Nodes: 4, SecurityLevel: 0.9})
			}
			srv, err := New(Config{
				Sites: sites, Algo: "minmin", Seed: 1, Manual: true, BatchInterval: 100,
				Shards: shards, WALDir: t.TempDir(), SnapshotEvery: 1 << 20, WALKeep: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Stop(false)
			hd := srv.Handler()
			send := func(method, path string, body any) string {
				data, err := json.Marshal(body)
				if err != nil {
					t.Fatal(err)
				}
				rw := httptest.NewRecorder()
				hd.ServeHTTP(rw, httptest.NewRequest(method, path, bytes.NewReader(data)))
				if rw.Code != http.StatusOK {
					t.Fatalf("%s %s: %d %s", method, path, rw.Code, rw.Body)
				}
				return rw.Body.String()
			}
			const snapshots = 3
			for round := 0; round < snapshots; round++ {
				at := 100 * float64(round)
				send(http.MethodPost, "/v2/tenants/"+api.DefaultTenant+"/jobs", api.SubmitRequest{Jobs: []api.JobSpec{
					{Workload: 100, SD: 0.5, Arrival: &at}, {Workload: 300, SD: 0.5, Arrival: &at},
				}})
				send(http.MethodPost, "/v2/advance", api.AdvanceRequest{To: at + 100})
				var file, dir uint64
				if err := srv.do(context.Background(), func() {
					file0, dir0 := srv.wal.Syncs()
					if err := srv.writeSnapshot(); err != nil {
						t.Error(err)
					}
					file1, dir1 := srv.wal.Syncs()
					file, dir = file1-file0, dir1-dir0
				}); err != nil {
					t.Fatal(err)
				}
				n := uint64(shards)
				logs, want := n+1, 2*n+5
				if shards == 1 {
					logs, want = 1, 5
				}
				if round == 0 {
					want -= logs // no GC, so no directory sync after it
				}
				if file != 2 || file+dir != want {
					t.Fatalf("snapshot %d took %d file and %d directory fsyncs, want 2 and %d", round, file, dir, want-2)
				}
			}
			prom := send(http.MethodGet, "/metrics.prom", nil)
			for _, want := range []string{
				`trustgrid_wal_syncs_total{kind="file"} `,
				`trustgrid_wal_syncs_total{kind="dir"} `,
				`trustgrid_snapshot_seconds_count{phase="journal"} 3`,
				`trustgrid_snapshot_seconds_count{phase="engines"} 3`,
				`trustgrid_snapshot_seconds_count{phase="registry"} 3`,
				`trustgrid_snapshot_seconds_count{phase="marshal"} 3`,
				`trustgrid_snapshot_seconds_count{phase="write"} 3`,
				`trustgrid_snapshot_seconds_count{phase="gc"} 2`,
			} {
				if !strings.Contains(prom, want) {
					t.Errorf("/metrics.prom has no %q", want)
				}
			}
		})
	}
}
