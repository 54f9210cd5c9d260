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
// committed under testdata/wal-v<N>/<name>/, with the uninterrupted run's
// event stream beside it in <name>.events.ndjson. wal-v5/ is the
// current directory layout (snapshot version 4: registry and done sets
// above the retention horizon, binary event journals, no shard
// markers); wal-v4/ is the same directories under snapshot version 3;
// wal-v3/ is version 3 as earlier daemons wrote it, with NDJSON
// journals and shard markers; wal-v2/ was
// written by the daemon as of commit 73aedd7, before snapshot version 3.
// Their logs are the record encoding as deployed daemons wrote it, for
// good (each directory's README.md says how it was made).
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

// isStateSnapshot tells a server snapshot from the GC markers an older
// daemon's shard directories kept under the same name.
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

// fixtureTree reads a committed fixture: its files, the event stream
// of the uninterrupted run, and the newest server snapshot (path
// relative to the fixture, and its event_base). It also checks that the
// fixture pins what it is there to pin.
func fixtureTree(t *testing.T, fx walFixture, fixture string) (committed map[string][]byte, want string, newest string, newestBase int64) {
	t.Helper()
	events, err := os.ReadFile(fixture + ".events.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	committed = readTree(t, fixture)
	var segments, snapshots, tagged, barriers int
	var newestSeq uint64
	for path, data := range committed {
		switch base := filepath.Base(path); {
		case strings.HasPrefix(base, "wal-"):
			segments++
			tagged += bytes.Count(data, []byte(`"g":`))
			barriers += bytes.Count(data, []byte(`"kind":"barrier"`))
		case isStateSnapshot(path, data):
			snapshots++
			if seq := numberedFile(t, base, "snap-", ".json"); seq >= newestSeq {
				newestSeq, newest = seq, path
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
	return committed, string(events), newest, newestBase
}

// copyFixture copies a committed fixture into a fresh directory,
// without any snap-* file (server snapshots and GC markers) when
// dropSnapshots is set.
func copyFixture(t *testing.T, fixture string, committed map[string][]byte, dropSnapshots bool) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(fixture)); err != nil {
		t.Fatal(err)
	}
	if dropSnapshots {
		for path := range committed {
			if strings.HasPrefix(filepath.Base(path), "snap-") {
				if err := os.Remove(filepath.Join(dir, path)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return dir
}

// isSegment tells a log segment from the other files of a WAL directory.
func isSegment(path string) bool {
	base := filepath.Base(path)
	return strings.HasPrefix(base, "wal-") && strings.HasSuffix(base, ".log")
}

// checkFreshRun drives the fixture's script against a fresh directory
// and requires the fixture's stream and files. With full set that is
// every file: the same names, and the same bytes in every log segment
// and journal file, a server snapshot held to its inputKeys. Otherwise
// — a fixture of an older directory layout — it is the same names and
// bytes for the wal-*.log segments, and nothing of the other files.
func checkFreshRun(t *testing.T, fx walFixture, want string, committed map[string][]byte, full bool) {
	t.Helper()
	dir := t.TempDir()
	got, stop := runFixture(t, fx, dir)
	written := readTree(t, dir)
	stop()
	if got != want {
		d := firstDiff(want, got)
		t.Fatalf("a fresh run's stream diverges from the fixture's at byte %d\nwant: %s\ngot:  %s",
			d, excerpt(want, d), excerpt(got, d))
	}
	for path, data := range committed {
		if !full && !isSegment(path) {
			continue
		}
		if now, ok := written[path]; !ok {
			t.Errorf("a fresh run does not write %s", path)
		} else if isStateSnapshot(path, data) {
			checkInputKeys(t, path, data, now)
		} else if !bytes.Equal(now, data) {
			d := firstDiff(string(data), string(now))
			t.Errorf("%s differs from the committed file at byte %d\ncommitted: %s\nnow:       %s",
				path, d, excerpt(string(data), d), excerpt(string(now), d))
		}
	}
	for path := range written {
		if _, ok := committed[path]; !ok && (full || isSegment(path)) {
			t.Errorf("a fresh run writes %s, which the fixture's daemon did not", path)
		}
	}
}

// recoversWrittenDirs holds this tree to the fixtures under
// testdata/<set>/, in both directions. Reading: a daemon recovers from
// a copy of each committed directory — as the crash left it, and again
// with every snapshot removed, which replays the whole log — and serves
// the uninterrupted run's stream, byte for byte. Writing: the same
// script driven against a fresh directory leaves the files
// checkFreshRun compares, all of them when full is set. Each set in
// older is held to the same reading, and its log segments to the same
// writing, inside the same subtests.
func recoversWrittenDirs(t *testing.T, set string, full bool, older ...string) {
	for _, fx := range walFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			for i, s := range append([]string{set}, older...) {
				fixture := filepath.Join("testdata", s, fx.name)
				committed, want, _, newestBase := fixtureTree(t, fx, fixture)
				for _, variant := range []string{"as the crash left it", "without snapshots"} {
					wantBase := newestBase
					if variant == "without snapshots" {
						wantBase = 0
					}
					got, stop := runFixture(t, fx, copyFixture(t, fixture, committed, wantBase == 0))
					stop()
					checkRecoveredStream(t, s+"/"+fx.name+", "+variant, want, got, wantBase)
				}
				checkFreshRun(t, fx, want, committed, full && i == 0)
			}
		})
	}
}

// TestRecoversCurrentLayoutDirs holds this tree to the directory layout
// it writes (testdata/wal-v5/): snapshot version 4, whose registry and
// done sets hold only what lies above the retention horizon, binary
// event journals, snapshots in the control directory only, named by the
// set's position. Server snapshots are held to their names and to the
// keys the inputs alone decide (inputKeys), not byte for byte: a
// tenant's `queued` gauge is reserved and released on handler
// goroutines, so its value at a snapshot is not a function of the inputs
// (recovery recomputes it, DESIGN.md §10.4). Every other file is held
// byte for byte. It also recovers from the same runs as snapshot
// version 3 wrote them (testdata/wal-v4/), which hold every ID ever
// accepted and no horizon, and re-writes their log segments byte for
// byte.
func TestRecoversCurrentLayoutDirs(t *testing.T) {
	recoversWrittenDirs(t, "wal-v5", true, "wal-v4")
}

// TestRecoversParentWrittenDirs holds this tree to directories a daemon
// of snapshot version 3 wrote before the journal became binary records
// and the shard markers went (testdata/wal-v3/): it recovers from them,
// NDJSON journals included, and re-writes their log segments byte for
// byte.
func TestRecoversParentWrittenDirs(t *testing.T) {
	recoversWrittenDirs(t, "wal-v3", false)
}

// TestVersion2DirsRefusedThenReplayed holds this tree to directories a
// version-2 daemon wrote (testdata/wal-v2/). Their snapshots are
// refused with §10.4's message, naming the newest one; with every
// snapshot removed the v2-era logs recover, byte for byte, and the same
// script driven against a fresh directory writes every wal-*.log
// segment those logs' daemon wrote — the record encoding did not change
// with the snapshot layout.
func TestVersion2DirsRefusedThenReplayed(t *testing.T) {
	for _, fx := range walFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			fixture := filepath.Join("testdata", "wal-v2", fx.name)
			committed, want, newest, _ := fixtureTree(t, fx, fixture)

			dir := copyFixture(t, fixture, committed, false)
			srv, err := server.New(fx.cfg(dir))
			if err == nil {
				_, _ = srv.Stop(false)
				t.Fatal("a version-2 snapshot was restored or skipped")
			}
			refusal := fmt.Sprintf("server: recovery: snapshot %s has layout version 2, written by an older trustgridd; "+
				"this one reads versions 3 to 4 only (refusing to restore it: drain and stop the daemon with the binary that wrote it, "+
				"or start on a fresh -wal-dir)", filepath.Join(dir, newest))
			if err.Error() != refusal {
				t.Fatalf("refusal is\n%v\nwant\n%s", err, refusal)
			}

			got, stop := runFixture(t, fx, copyFixture(t, fixture, committed, true))
			stop()
			checkRecoveredStream(t, fx.name+", without snapshots", want, got, 0)
			checkFreshRun(t, fx, want, committed, false)
		})
	}
}
