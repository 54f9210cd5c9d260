package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trustgrid/internal/client"
	"trustgrid/internal/server"
)

// walFixture is one scripted durable run whose on-disk state is
// committed under testdata/wal-v2/<name>/, with the uninterrupted run's
// event stream beside it in <name>.events.ndjson. The directories were
// written by the daemon as of commit 73aedd7, the last one before the
// flat layout, the nested layout and the fleet worker's log shared one
// recovery path (testdata/wal-v2/README.md says how): they are the two
// formats as deployed daemons wrote them, and stay that.
type walFixture struct {
	name  string
	cfg   func(walDir string) server.Config
	drive func(t *testing.T, c *client.Client)
}

// fixtureJobs is walJobList(40) compressed so that all 40 jobs fall
// inside driveWAL's 2400-second horizon.
func fixtureJobs() []walJob {
	jobs := walJobList(40)
	for i := range jobs {
		jobs[i].submitAt *= 0.7
		jobs[i].arrival *= 0.7
	}
	return jobs
}

func walFixtures(t *testing.T) []walFixture {
	tenants := shardedTenantNames(t, crashShards)
	sharded := fixtureJobs()
	for i := range sharded {
		sharded[i].tenant = tenants[i%len(tenants)]
	}
	return []walFixture{
		{"flat", func(dir string) server.Config { return walTestConfig(dir, "minmin") },
			func(t *testing.T, c *client.Client) { driveWAL(t, c, fixtureJobs()) }},
		{"sharded", func(dir string) server.Config { return walShardedConfig(dir, "minmin") },
			func(t *testing.T, c *client.Client) { driveShardedWAL(t, c, sharded, tenants) }},
	}
}

// runFixture boots a daemon over dir — recovering whatever it holds —
// drives the fixture's script to the end and returns the retained event
// stream. The daemon is still up, so dir is what a kill -9 would leave;
// stop shuts it down.
func runFixture(t *testing.T, fx walFixture, dir string) (events string, stop func()) {
	t.Helper()
	srv, err := server.New(fx.cfg(dir))
	if err != nil {
		t.Fatalf("%s: %v", fx.name, err)
	}
	ts := httptest.NewServer(srv.Handler())
	fx.drive(t, client.New(ts.URL))
	events = fetchEvents(t, ts.URL)
	return events, func() {
		ts.Close()
		if _, err := srv.Stop(false); err != nil {
			t.Fatalf("%s: stop: %v", fx.name, err)
		}
	}
}

// readTree returns every file under root by slash-separated relative
// path.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := fs.WalkDir(os.DirFS(root), ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		files[path], err = os.ReadFile(filepath.Join(root, path))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// isStateSnapshot tells a server snapshot from the GC markers the shard
// directories keep under the same name.
func isStateSnapshot(path string, data []byte) bool {
	return strings.HasPrefix(filepath.Base(path), "snap-") && bytes.Contains(data, []byte(`"event_next"`))
}

// inputKeys are the keys of a server snapshot that are a function of
// the recorded inputs alone, whatever the handler timing: the job-ID
// registry and each engine's DAG done-set, as raw JSON.
type inputKeys struct {
	Owners json.RawMessage `json:"owners"`
	NextID json.RawMessage `json:"next_id"`
	Engine *struct {
		DAG json.RawMessage `json:"dag"`
	} `json:"engine"`
	Engines []struct {
		DAG json.RawMessage `json:"dag"`
	} `json:"engines"`
}

// checkInputKeys requires a freshly written snapshot to carry the
// parent-written one's inputKeys byte for byte.
func checkInputKeys(t *testing.T, path string, parent, now []byte) {
	t.Helper()
	var want, got inputKeys
	if err := json.Unmarshal(parent, &want); err != nil {
		t.Fatalf("%s (parent): %v", path, err)
	}
	if err := json.Unmarshal(now, &got); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	differ := func(key string, want, got json.RawMessage) {
		if !bytes.Equal(want, got) {
			t.Errorf("%s: %s differs from the parent-written snapshot's\nparent: %s\nnow:    %s", path, key, want, got)
		}
	}
	differ("owners", want.Owners, got.Owners)
	differ("next_id", want.NextID, got.NextID)
	if (want.Engine == nil) != (got.Engine == nil) || len(want.Engines) != len(got.Engines) {
		t.Errorf("%s: engine layout differs from the parent-written snapshot's", path)
		return
	}
	if want.Engine != nil {
		differ("engine.dag", want.Engine.DAG, got.Engine.DAG)
	}
	for i := range want.Engines {
		differ(fmt.Sprintf("engines[%d].dag", i), want.Engines[i].DAG, got.Engines[i].DAG)
	}
}

// TestRecoversParentWrittenDirs holds this tree to the two on-disk
// formats as the parent commit wrote them, in both directions. Reading:
// a daemon recovers from a copy of each committed directory — as the
// crash left it, and again with every snapshot removed, which replays
// the whole log — and serves the uninterrupted run's stream, byte for
// byte. Writing: the same script driven against a fresh directory
// leaves the same files, and the same bytes in every log segment,
// journal file and GC marker; for the wal-*.log segments that pins the
// record encoding for good (no "g" and no barrier in a flat log, both
// in the nested logs). Server snapshots are held to their names and to
// the keys the inputs alone decide (inputKeys), not byte for byte:
// a tenant's `queued` gauge is reserved and released on handler
// goroutines, so its value at a snapshot is not a function of the
// inputs (recovery recomputes it, DESIGN.md §10.4).
func TestRecoversParentWrittenDirs(t *testing.T) {
	for _, fx := range walFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			fixture := filepath.Join("testdata", "wal-v2", fx.name)
			want, err := os.ReadFile(fixture + ".events.ndjson")
			if err != nil {
				t.Fatal(err)
			}
			committed := readTree(t, fixture)
			var segments, snapshots, tagged, barriers int
			var newest uint64 // the state snapshot recovery starts from, and its event_base
			var newestBase int64
			for path, data := range committed {
				switch base := filepath.Base(path); {
				case strings.HasPrefix(base, "wal-"):
					segments++
					tagged += bytes.Count(data, []byte(`"g":`))
					barriers += bytes.Count(data, []byte(`"kind":"barrier"`))
				case isStateSnapshot(path, data):
					snapshots++
					if seq := numberedFile(t, base, "snap-", ".json"); seq >= newest {
						newest = seq
						newestBase, _ = snapshotBounds(t, data)
					}
				}
			}
			if segments < 3 || snapshots < 3 {
				t.Fatalf("fixture holds %d segments and %d snapshots; it pins little", segments, snapshots)
			}
			if flat := fx.name == "flat"; flat != (tagged == 0) || flat != (barriers == 0) {
				t.Fatalf("fixture's records carry %d global sequence numbers and %d barriers; both belong to the nested layout, and only to it", tagged, barriers)
			}

			for _, variant := range []string{"as the crash left it", "without snapshots"} {
				dir := t.TempDir()
				if err := os.CopyFS(dir, os.DirFS(fixture)); err != nil {
					t.Fatal(err)
				}
				wantBase := newestBase
				if variant == "without snapshots" {
					wantBase = 0
					for path := range committed {
						if strings.HasPrefix(filepath.Base(path), "snap-") {
							if err := os.Remove(filepath.Join(dir, path)); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				got, stop := runFixture(t, fx, dir)
				stop()
				checkRecoveredStream(t, fx.name+", "+variant, string(want), got, wantBase)
			}

			dir := t.TempDir()
			got, stop := runFixture(t, fx, dir)
			written := readTree(t, dir)
			stop()
			if got != string(want) {
				d := firstDiff(string(want), got)
				t.Fatalf("a fresh run's stream diverges from the fixture's at byte %d\nwant: %s\ngot:  %s",
					d, excerpt(string(want), d), excerpt(got, d))
			}
			for path, data := range committed {
				if now, ok := written[path]; !ok {
					t.Errorf("a fresh run does not write %s", path)
				} else if isStateSnapshot(path, data) {
					checkInputKeys(t, path, data, now)
				} else if !bytes.Equal(now, data) {
					d := firstDiff(string(data), string(now))
					t.Errorf("%s differs from the parent-written file at byte %d\nparent: %s\nnow:    %s",
						path, d, excerpt(string(data), d), excerpt(string(now), d))
				}
			}
			for path := range written {
				if _, ok := committed[path]; !ok {
					t.Errorf("a fresh run writes %s, which the parent did not", path)
				}
			}
		})
	}
}
