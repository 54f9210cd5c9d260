package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"trustgrid/internal/api"
	"trustgrid/internal/client"
	"trustgrid/internal/idset"
	"trustgrid/internal/server"
)

// The event journal (DESIGN.md §10.2): a snapshot holds only the bounds
// of the retained event window; the events are in events-*.bin files
// of binary records beside it, each event written once, each file
// durable before the snapshot whose event_next covers it. The tests
// below pin the disk format, the damaged and half-written states
// recovery has to read, the pruning horizon, and the two recoveries
// that must refuse to start.

// journalFile is one events-*.bin of a WAL directory.
type journalFile struct {
	name        string
	first, next int64 // the events it holds: [first, next)
}

// journalEvents decodes a journal file's records, which must be whole.
func journalEvents(t *testing.T, path string) []api.Event {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatalf("%s is empty", path)
	}
	var out []api.Event
	for len(data) > 0 {
		var ev api.Event
		if data, err = api.ReadEventRecord(data, &ev); err != nil {
			t.Fatalf("%s: record %d does not decode: %v", path, len(out), err)
		}
		out = append(out, ev)
	}
	return out
}

// journalFiles lists dir's journal files in sequence order, checking
// that each is what its name says: whole records, consecutive sequence
// numbers from first on.
func journalFiles(t *testing.T, dir string) []journalFile {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "events-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var out []journalFile
	for _, path := range names {
		f := journalFile{name: filepath.Base(path)}
		f.first = int64(numberedFile(t, f.name, "events-", ".bin"))
		f.next = f.first
		for _, ev := range journalEvents(t, path) {
			if ev.Seq != f.next {
				t.Fatalf("%s: event %+v where seq %d belongs", f.name, ev, f.next)
			}
			f.next++
		}
		out = append(out, f)
	}
	return out
}

// snapshotBounds reads the event window a snapshot file declares.
func snapshotBounds(t *testing.T, payload []byte) (base, next int64) {
	t.Helper()
	var snap struct {
		EventBase *int64 `json:"event_base"`
		EventNext *int64 `json:"event_next"`
	}
	if err := json.Unmarshal(payload, &snap); err != nil || snap.EventBase == nil || snap.EventNext == nil {
		t.Fatalf("snapshot without event bounds (%v): %.200s", err, payload)
	}
	return *snap.EventBase, *snap.EventNext
}

// recoveredStream recovers a daemon from dir, lets check look at the
// directory as recovery left it, re-drives the scripted protocol and
// returns the retained stream.
func recoveredStream(t *testing.T, dir string, jobs []walJob, check func()) string {
	t.Helper()
	srv, err := server.New(walTestConfig(dir, "minmin"))
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if check != nil {
		check()
	}
	ts := httptest.NewServer(srv.Handler())
	driveWAL(t, client.New(ts.URL), jobs)
	got := fetchEvents(t, ts.URL)
	ts.Close()
	if _, err := srv.Stop(false); err != nil {
		t.Fatalf("stop: %v", err)
	}
	return got
}

// TestSnapshotHoldsNoEvents pins the disk format: a snapshot carries the
// window's bounds and neither the events nor the retired used_ids
// registry, the journal files are consecutive records, and over a run
// that retains every event each event is on disk exactly once.
func TestSnapshotHoldsNoEvents(t *testing.T) {
	jobs := walJobList(20)
	dir := t.TempDir()
	wantEvents, _, _ := walBaseline(t, walTestConfig(dir, "minmin"), func(c *client.Client) { driveWAL(t, c, jobs) })
	_, snaps := harvestWAL(t, dir)
	var lastNext int64
	for seq, snap := range snaps {
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(snap.payload, &keys); err != nil {
			t.Fatal(err)
		}
		for _, gone := range []string{"events", "used_ids"} {
			if _, ok := keys[gone]; ok {
				t.Errorf("snapshot %d still has a %q key", seq, gone)
			}
		}
		if string(keys["version"]) != "4" {
			t.Errorf("snapshot %d has version %s, want 4", seq, keys["version"])
		}
		// The history-sized sets are byte columns that decode, and every
		// completed job is an accepted one.
		var cols struct {
			Owners *ownerColumns `json:"owners"`
			Engine struct {
				DAG *struct {
					Done []byte `json:"done"`
				} `json:"dag"`
			} `json:"engine"`
		}
		if err := json.Unmarshal(snap.payload, &cols); err != nil {
			t.Fatal(err)
		}
		accepted := make(map[int]bool)
		for _, ids := range cols.Owners.byTenant(t) {
			for _, id := range ids {
				accepted[id] = true
			}
		}
		if cols.Engine.DAG != nil {
			done, err := idset.ParseColumn(cols.Engine.DAG.Done)
			if err != nil {
				t.Errorf("snapshot %d: dag.done: %v", seq, err)
			}
			for _, id := range done {
				if !accepted[id] {
					t.Errorf("snapshot %d: job %d is done but not in owners", seq, id)
				}
			}
		}
		if base, next := snapshotBounds(t, snap.payload); base != 0 {
			t.Errorf("snapshot %d: event_base %d in a run that evicts nothing", seq, base)
		} else if next > lastNext {
			lastNext = next
		}
	}
	var onDisk strings.Builder
	at := int64(0)
	for _, f := range journalFiles(t, dir) {
		if f.first != at {
			t.Fatalf("%s starts at %d, the file before it ended at %d: an event is missing or on disk twice", f.name, f.first, at)
		}
		for _, ev := range journalEvents(t, filepath.Join(dir, f.name)) {
			if line := ev.AppendJSON(nil); len(line) > 0 {
				onDisk.Write(line)
				onDisk.WriteByte('\n')
			}
		}
		at = f.next
	}
	if at != lastNext {
		t.Errorf("journal ends at %d, the newest snapshot's event_next is %d", at, lastNext)
	}
	// The journal's events are the stream's: rendered with the stream's
	// codec, they are its bytes.
	if onDisk.String() != wantEvents {
		d := firstDiff(wantEvents, onDisk.String())
		t.Errorf("journal differs from the served stream at byte %d\nstream:  %s\njournal: %s",
			d, excerpt(wantEvents, d), excerpt(onDisk.String(), d))
	}
}

// TestJournalCrashStates recovers from the disk states a crash or a
// damaged file can leave around the journal. Whatever happened, the
// recovered stream is the uninterrupted run's from some event on —
// exactly the expected one — and never contains a wrong event. The ring
// is sized so that the last snapshot's window reaches back into a file
// an earlier snapshot wrote.
func TestJournalCrashStates(t *testing.T) {
	jobs := walJobList(20)
	drive := func(c *client.Client) { driveWAL(t, c, jobs) }
	wantEvents, _, _ := walBaseline(t, walTestConfig(t.TempDir(), "minmin"), drive)
	baseDir := t.TempDir()
	cfg := walTestConfig(baseDir, "minmin")
	cfg.EventBuffer = 64
	walBaseline(t, cfg, drive)
	lines, snaps := harvestWAL(t, baseDir)
	files := journalFiles(t, baseDir)

	seqs := make([]uint64, 0, len(snaps))
	for seq := range snaps {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, k int) bool { return seqs[i] < seqs[k] })
	if len(seqs) < 3 || len(files) < 3 {
		t.Fatalf("baseline left %d snapshots and %d journal files, want >= 3 of each", len(seqs), len(files))
	}
	// mid is a snapshot with records and events still to come after it;
	// its window spans the first two journal files. prev is the one
	// before it, last the final one.
	prev, mid, last := seqs[len(seqs)-3], seqs[len(seqs)-2], seqs[len(seqs)-1]
	midBase, midNext := snapshotBounds(t, snaps[mid].payload)
	_, prevNext := snapshotBounds(t, snaps[prev].payload)
	lastBase, _ := snapshotBounds(t, snaps[last].payload)
	if midBase != 0 || files[0].first != 0 || files[1].first != prevNext || files[1].next != midNext || files[2].first != midNext {
		t.Fatalf("baseline shape changed: snapshots %v, mid window [%d,%d), prev next %d, files %+v", seqs, midBase, midNext, prevNext, files)
	}
	if lastBase <= files[1].first || lastBase >= files[1].next {
		t.Fatalf("last snapshot's event_base %d does not fall inside %+v; resize the ring", lastBase, files[1])
	}

	tear := func(dir, name string) {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)-9], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	remove := func(dir, name string) {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	gone := func(dir, name string) func() {
		return func() {
			if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
				t.Errorf("recovery left %s in place (stat: %v); it belongs to a snapshot recovery did not use", name, err)
			}
		}
	}
	snapName := func(seq uint64) string { return fmt.Sprintf("snap-%016d.json", seq) }

	cases := []struct {
		name     string
		k        uint64 // crash right after this record (and its snapshot)
		damage   func(dir string)
		wantBase int64
		check    func(dir string) func()
	}{
		{name: "intact", k: mid, wantBase: 0},
		{name: "window starts inside an older file", k: last, wantBase: lastBase},
		{name: "journal file written, snapshot not", k: mid, wantBase: 0,
			damage: func(dir string) { remove(dir, snapName(mid)) },
			check:  func(dir string) func() { return gone(dir, files[1].name) }},
		{name: "file from a rejected newer snapshot present", k: mid, wantBase: 0,
			damage: func(dir string) {
				if err := os.WriteFile(filepath.Join(dir, snapName(mid)), []byte("{\"version\":2,\"seq\":"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			check: func(dir string) func() { return gone(dir, files[1].name) }},
		{name: "older journal file missing", k: mid, wantBase: files[1].first,
			damage: func(dir string) { remove(dir, files[0].name) }},
		{name: "newest journal file missing", k: mid, wantBase: midNext,
			damage: func(dir string) { remove(dir, files[1].name) }},
		{name: "torn last line, older file", k: mid, wantBase: files[1].first,
			damage: func(dir string) { tear(dir, files[0].name) }},
		{name: "torn last line, newest file", k: mid, wantBase: midNext,
			damage: func(dir string) { tear(dir, files[1].name) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := crashDir(t, lines, snaps, int(tc.k), nil)
			if tc.damage != nil {
				tc.damage(dir)
			}
			var check func()
			if tc.check != nil {
				check = tc.check(dir)
			}
			got := recoveredStream(t, dir, jobs, check)
			checkRecoveredStream(t, tc.name, wantEvents, got, tc.wantBase)
		})
	}
}

// TestJournalGC: with WALKeep snapshots retained, journal files wholly
// below the oldest retained snapshot's event_base are pruned and nothing
// else is; what is left recovers from the newest snapshot and, when
// that one is damaged, from the older one — which therefore still has
// its journal files — whether the newest does not parse or parses with
// columns that do not decode. Under WALKeep -1 nothing is ever pruned.
func TestJournalGC(t *testing.T) {
	jobs := walJobList(20)
	drive := func(c *client.Client) { driveWAL(t, c, jobs) }
	wantEvents, _, _ := walBaseline(t, walTestConfig(t.TempDir(), "minmin"), drive)

	run := func(keep int) (string, []journalFile) {
		dir := t.TempDir()
		cfg := walTestConfig(dir, "minmin")
		cfg.EventBuffer, cfg.WALKeep = smallWindow, keep
		walBaseline(t, cfg, drive)
		return dir, journalFiles(t, dir)
	}
	_, all := run(-1)
	dir, kept := run(2)

	_, snaps := harvestWAL(t, dir)
	if len(snaps) != 2 {
		t.Fatalf("WALKeep 2 left %d snapshots", len(snaps))
	}
	var newest, oldest uint64
	for seq := range snaps {
		if seq > newest {
			newest = seq
		}
		if oldest == 0 || seq < oldest {
			oldest = seq
		}
	}
	oldBase, _ := snapshotBounds(t, snaps[oldest].payload)
	var want []journalFile
	for i, f := range all {
		// A file's events end before the next file's first.
		if i+1 < len(all) && all[i+1].first <= oldBase {
			continue
		}
		want = append(want, f)
	}
	if len(want) == len(all) || fmt.Sprint(kept) != fmt.Sprint(want) {
		t.Fatalf("oldest retained snapshot has event_base %d\nall files:  %+v\nleft:       %+v\nwant left:  %+v", oldBase, all, kept, want)
	}

	// Recover a copy from the newest snapshot, and a copy from the older
	// one after the newest is damaged.
	// A payload that does not parse and columns that do not decode (an ID
	// column with a zero gap, a truncated done column) are the same damage.
	newestPayload := snaps[newest].payload
	for _, damage := range []struct {
		name    string
		payload []byte
	}{
		{"intact", nil},
		{"garbage", []byte("garbage")},
		{"owners column", regexp.MustCompile(`"ids":"[^"]*"`).ReplaceAll(newestPayload, []byte(`"ids":"AgEA"`))},
		// The done column holds only jobs completed above the engine's
		// horizon, so a drained engine's has none: a truncated one goes in
		// ahead of the horizon key, in place of any there is.
		{"done column", bytes.Replace(regexp.MustCompile(`"done":"[^"]*",`).ReplaceAll(newestPayload, nil),
			[]byte(`"dag":{`), []byte(`"dag":{"done":"gA==",`), 1)},
	} {
		cp := t.TempDir()
		if err := os.CopyFS(cp, os.DirFS(dir)); err != nil {
			t.Fatal(err)
		}
		wantBase, _ := snapshotBounds(t, newestPayload)
		if damage.payload != nil {
			if bytes.Equal(damage.payload, newestPayload) {
				t.Fatalf("%s: the newest snapshot has no such column to damage", damage.name)
			}
			if err := os.WriteFile(filepath.Join(cp, fmt.Sprintf("snap-%016d.json", newest)), damage.payload, 0o644); err != nil {
				t.Fatal(err)
			}
			wantBase = oldBase
		}
		got := recoveredStream(t, cp, jobs, nil)
		checkRecoveredStream(t, damage.name, wantEvents, got, wantBase)
	}
}

// TestRestartKeepsFallbackSnapshot: a daemon that recovers and stops
// again with nothing logged writes its shutdown snapshot over the one it
// recovered from. It knows one snapshot then, fewer than WALKeep, so it
// prunes nothing: the older snapshot stays on disk with the segments and
// journal files it counts on, and recovery falls back to it when the
// newest is damaged.
func TestRestartKeepsFallbackSnapshot(t *testing.T) {
	jobs := walJobList(20)
	drive := func(c *client.Client) { driveWAL(t, c, jobs) }
	wantEvents, _, _ := walBaseline(t, walTestConfig(t.TempDir(), "minmin"), drive)
	for _, keep := range []int{2, 3} {
		t.Run(fmt.Sprintf("keep=%d", keep), func(t *testing.T) {
			dir := t.TempDir()
			cfg := walTestConfig(dir, "minmin")
			cfg.EventBuffer, cfg.WALKeep = smallWindow, keep
			walBaseline(t, cfg, drive)
			_, before := harvestWAL(t, dir)
			if len(before) != keep {
				t.Fatalf("WALKeep %d left %d snapshots", keep, len(before))
			}
			for restart := 0; restart < 2; restart++ {
				srv, err := server.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := srv.Stop(false); err != nil {
					t.Fatal(err)
				}
			}
			_, after := harvestWAL(t, dir)
			var newest, older uint64
			for seq := range before {
				if _, ok := after[seq]; !ok {
					t.Fatalf("restarts removed snapshot %d: had %d snapshots, have %d", seq, len(before), len(after))
				}
				if seq > newest {
					newest, older = seq, newest
				} else if seq > older {
					older = seq
				}
			}
			if len(after) != keep {
				t.Fatalf("restarts left %d snapshots, want %d", len(after), keep)
			}
			olderBase, _ := snapshotBounds(t, after[older].payload)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("snap-%016d.json", newest)), []byte("garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
			checkRecoveredStream(t, "newest damaged", wantEvents, recoveredStream(t, dir, jobs, nil), olderBase)
		})
	}
}

// TestRecoveryRefusesPartialHistory: GC removes the records a snapshot
// covers, so with that snapshot unusable the log that is left starts
// mid-history. Recovery used to replay it into an empty daemon; it has
// to refuse, naming the directory, in both layouts.
func TestRecoveryRefusesPartialHistory(t *testing.T) {
	jobs := walJobList(20)
	layouts := map[string]struct {
		cfg     func(dir string) server.Config
		drive   func(*client.Client)
		snapDir string // where the server snapshots live, relative to the root
		names   []string
	}{
		"flat": {cfg: func(dir string) server.Config { return walTestConfig(dir, "minmin") },
			drive: func(c *client.Client) { driveWAL(t, c, jobs) }, names: []string{"."}},
		"sharded": {cfg: func(dir string) server.Config { return walShardedConfig(dir, "minmin") },
			snapDir: "coord", names: []string{"coord", "shard-0000"}},
	}
	for name, lay := range layouts {
		t.Run(name, func(t *testing.T) {
			drive := lay.drive
			if drive == nil {
				tenants := shardedTenantNames(t, crashShards)
				sharded := walJobList(20)
				for i := range sharded {
					sharded[i].tenant = tenants[i%len(tenants)]
				}
				drive = func(c *client.Client) { driveShardedWAL(t, c, sharded, tenants) }
			}
			dir := t.TempDir()
			cfg := lay.cfg(dir)
			cfg.WALKeep = 1
			walBaseline(t, cfg, drive)
			snaps, err := filepath.Glob(filepath.Join(dir, lay.snapDir, "snap-*.json"))
			if err != nil || len(snaps) != 1 {
				t.Fatalf("WALKeep 1 left snapshots %v (%v)", snaps, err)
			}
			if err := os.WriteFile(snaps[0], []byte("garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
			srv, err := server.New(lay.cfg(dir))
			if err == nil {
				rep := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rep, httptest.NewRequest("GET", "/v2/metrics", nil))
				_, _ = srv.Stop(false)
				t.Fatalf("recovery started a daemon over a log whose head GC removed: %s", rep.Body)
			}
			mentioned := false
			for _, n := range lay.names {
				mentioned = mentioned || strings.Contains(err.Error(), filepath.Join(dir, n))
			}
			if !strings.Contains(err.Error(), "no usable snapshot covers") || !mentioned {
				t.Fatalf("refusal does not say what is missing where: %v", err)
			}
		})
	}
}

// TestRecoveryRefusesOtherSnapshotVersion: a snapshot of another layout
// version is neither converted nor skipped as damage — skipping it would
// replay the log from before it — and the refusal says which side is
// older and what the operator can do.
func TestRecoveryRefusesOtherSnapshotVersion(t *testing.T) {
	jobs := walJobList(20)
	dir := t.TempDir()
	walBaseline(t, walTestConfig(dir, "minmin"), func(c *client.Client) { driveWAL(t, c, jobs) })
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.json"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshots: %v", err)
	}
	sort.Strings(snaps)
	newest := snaps[len(snaps)-1]
	payload, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	// The last case is a version-2 payload that does not parse as this
	// layout (an owner ID list where a byte column belongs): its version
	// is still read, and refused, not skipped as damage.
	v2lists := regexp.MustCompile(`"ids":"[^"]*"`).ReplaceAll(payload, []byte(`"ids":[1,300]`))
	for _, tc := range []struct {
		version int
		wrote   string
		payload []byte
	}{
		{1, "an older trustgridd", payload},
		{2, "an older trustgridd", payload},
		{5, "a newer trustgridd", payload},
		{2, "an older trustgridd", v2lists},
	} {
		version, wrote := tc.version, tc.wrote
		rewritten := bytes.Replace(tc.payload, []byte(`"version":4`), []byte(fmt.Sprintf(`"version":%d`, version)), 1)
		if bytes.Equal(rewritten, tc.payload) || bytes.Equal(v2lists, payload) {
			t.Fatal("snapshot has no version 4 marker or no owners column to rewrite")
		}
		if err := os.WriteFile(newest, rewritten, 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(walTestConfig(dir, "minmin"))
		if err == nil {
			_, _ = srv.Stop(false)
			t.Fatalf("version %d snapshot was restored or skipped", version)
		}
		for _, part := range []string{newest, fmt.Sprintf("version %d", version), wrote, "fresh -wal-dir"} {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("version %d refusal lacks %q: %v", version, part, err)
			}
		}
	}
}

// TestRecoveryRefusesV1GASnapshot: a snapshot the STGA wrote before v1
// draws were removed recorded rng_version as absent or 1, and the state
// it holds was drawn under v1. A default config refuses it with the
// drain-or-fresh-directory message instead of continuing it under v2.
// Draw-free algorithms restore whatever the field says
// (TestRecoversParentWrittenDirs).
func TestRecoveryRefusesV1GASnapshot(t *testing.T) {
	dir := t.TempDir()
	walBaseline(t, walTestConfig(dir, "stga"), func(c *client.Client) { driveWAL(t, c, walJobList(20)) })
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.json"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshots: %v", err)
	}
	sort.Strings(snaps)
	newest := snaps[len(snaps)-1]
	payload, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	const current = `,"rng_version":2`
	if !bytes.Contains(payload, []byte(current)) {
		t.Fatalf("snapshot does not name draw contract 2: %.200s", payload)
	}
	want := fmt.Sprintf("server: recovery: snapshot %s was written under draw contract v1, which this trustgridd no longer runs "+
		"(refusing to restore it: drain and stop the daemon with the binary that wrote it, or start on a fresh -wal-dir)", newest)
	for _, old := range []string{"", `,"rng_version":1`} {
		if err := os.WriteFile(newest, bytes.Replace(payload, []byte(current), []byte(old), 1), 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(walTestConfig(dir, "stga"))
		if err == nil {
			_, _ = srv.Stop(false)
			t.Fatalf("snapshot with %q restored", old)
		}
		if err.Error() != want {
			t.Fatalf("snapshot with %q: got %v\nwant %s", old, err, want)
		}
	}
}

// TestRecoveryRefusesOtherGAShape: a GA daemon's snapshot records the
// GA's population, generations and stall count, because a round's
// placements depend on each of them; restoring under another value of
// any of them is refused like every other fingerprint change. A GA
// snapshot without the three fields was written before the stall rule,
// when every round ran a fixed generation count, and is refused with
// the drain-or-fresh-directory message.
func TestRecoveryRefusesOtherGAShape(t *testing.T) {
	dir := t.TempDir()
	walBaseline(t, walTestConfig(dir, "stga"), func(c *client.Client) { driveWAL(t, c, walJobList(20)) })
	for field, mutate := range map[string]func(*server.Config){
		"population":  func(c *server.Config) { c.Setup.Population++ },
		"generations": func(c *server.Config) { c.Setup.Generations++ },
		"stall":       func(c *server.Config) { c.Setup.Stall = 3 },
	} {
		bad := walTestConfig(dir, "stga")
		mutate(&bad)
		srv, err := server.New(bad)
		if err == nil {
			_, _ = srv.Stop(false)
			t.Fatalf("%s change restored", field)
		}
		if !strings.Contains(err.Error(), "snapshot written under "+field+"=") || !strings.Contains(err.Error(), "refusing to restore") {
			t.Fatalf("%s change: %v", field, err)
		}
	}
	good, err := server.New(walTestConfig(dir, "stga"))
	if err != nil {
		t.Fatalf("unchanged config failed to recover: %v", err)
	}
	if _, err := good.Stop(false); err != nil {
		t.Fatal(err)
	}

	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.json"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshots: %v", err)
	}
	sort.Strings(snaps)
	newest := snaps[len(snaps)-1]
	payload, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	setup := walTestConfig(dir, "stga").Setup
	shape := fmt.Sprintf(`,"population":%d,"generations":%d,"stall":%d`, setup.Population, setup.Generations, setup.Stall)
	if !bytes.Contains(payload, []byte(shape)) {
		t.Fatalf("snapshot does not record the GA shape %s: %.300s", shape, payload)
	}
	if err := os.WriteFile(newest, bytes.Replace(payload, []byte(shape), nil, 1), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(walTestConfig(dir, "stga"))
	if err == nil {
		_, _ = srv.Stop(false)
		t.Fatal("a GA snapshot without its shape restored")
	}
	want := fmt.Sprintf("server: recovery: snapshot %s was written by an older trustgridd, before the GA's population, generations "+
		"and stall joined the snapshot fingerprint (refusing to restore it: drain and stop the daemon with the binary that wrote it, "+
		"or start on a fresh -wal-dir)", newest)
	if err.Error() != want {
		t.Fatalf("got %v\nwant %s", err, want)
	}
}
