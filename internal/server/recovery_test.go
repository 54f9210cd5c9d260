package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
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

// walTestConfig is the durable-daemon configuration the recovery tests
// share: manual clock, fair-share admission, full dynamics (churn +
// reputation feedback + deceptive ground truth) and a snapshot cadence
// small enough that a short run crosses several snapshots. WALKeep -1
// retains every record, which is what lets the crash-point sweep cut
// the log at arbitrary prefixes.
func walTestConfig(walDir, algo string) server.Config {
	setup := experiments.TestSetup()
	setup.Population = 12
	setup.Generations = 6
	rep := fuzzy.DefaultReputationConfig()
	return server.Config{
		Sites: []*grid.Site{
			{ID: 0, Speed: 10, Nodes: 8, SecurityLevel: 0.95},
			{ID: 1, Speed: 20, Nodes: 16, SecurityLevel: 0.5},
			{ID: 2, Speed: 5, Nodes: 4, SecurityLevel: 0.8},
		},
		Algo:          algo,
		Seed:          11,
		BatchInterval: 300,
		Manual:        true,
		Setup:         setup,
		RoundBudget:   3,
		Dynamics: &sched.DynamicsConfig{
			Churn: []grid.ChurnEvent{
				{Time: 700, Site: 1, Kind: grid.ChurnCrash},
				{Time: 1000, Site: 2, Kind: grid.ChurnDegrade, Factor: 0.5},
				{Time: 1600, Site: 1, Kind: grid.ChurnJoin},
			},
			Reputation: &rep,
			TrueLevels: []float64{0.7, 0.5, 0.8},
		},
		WALDir:        walDir,
		SnapshotEvery: 8,
		WALKeep:       -1,
	}
}

// walJob is one scripted submission of the deterministic drive
// protocol.
type walJob struct {
	id       int
	submitAt float64 // the driver submits it at the first tick past this
	arrival  float64 // declared arrival; sometimes in the past (clamped)
	workload float64
	sd       float64
	tenant   string
}

func walJobList(n int) []walJob {
	out := make([]walJob, n)
	for i := range out {
		j := walJob{
			id:       i + 1,
			submitAt: float64(i) * 85,
			workload: 200 + float64((i*137)%7)*400,
			sd:       0.6 + 0.05*float64(i%7),
			tenant:   "acme",
		}
		j.arrival = j.submitAt + float64((i*53)%200)
		if i%5 == 4 {
			// A declared arrival the clock has already passed: the ingest
			// clamp is part of what recovery must reproduce.
			j.arrival = j.submitAt - 250
			if j.arrival < 0 {
				j.arrival = 0
			}
		}
		if i%3 == 0 {
			j.tenant = "umbrella"
		}
		out[i] = j
	}
	return out
}

// driveWAL replays the scripted protocol against a daemon, idempotently:
// tenants that already exist (recovered from the WAL) 409 and are
// skipped, jobs already recovered bounce off the duplicate-ID check,
// and advances the recovered clock has passed are not re-issued. Run
// against a fresh daemon it produces the baseline; run against a
// recovered one it completes whatever the crash cut short.
func driveWAL(t *testing.T, c *client.Client, jobs []walJob) {
	t.Helper()
	ctx := context.Background()
	for _, spec := range []api.TenantSpec{
		{ID: "acme", Weight: 2, MaxQueue: 64},
		{ID: "umbrella", Weight: 1},
	} {
		if _, err := c.CreateTenant(ctx, spec); err != nil && !errors.Is(err, client.ErrConflict) {
			t.Fatalf("create tenant %s: %v", spec.ID, err)
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
				strings.Contains(err.Error(), "duplicate job id")) {
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

// fetchEvents returns the daemon's entire event stream as raw NDJSON —
// the byte-identical artifact the parity assertions compare.
func fetchEvents(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/v2/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d: %s", resp.StatusCode, body)
	}
	return string(body)
}

// diskSnapshot is one snapshot file of a finished run together with the
// journal files it counts on: every events-*.bin that starts below its
// event_next, which are the files that were on disk when it was written
// (a journal file is durable before its snapshot).
type diskSnapshot struct {
	payload  []byte
	journals map[string][]byte // file name -> content
}

// writeTo puts the snapshot, named for the position seq its file was
// named by, and its journal files into dir.
func (d diskSnapshot) writeTo(t *testing.T, dir string, seq uint64) {
	t.Helper()
	files := map[string][]byte{fmt.Sprintf("snap-%016d.json", seq): d.payload}
	for name, data := range d.journals {
		files[name] = data
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// numberedFile parses the number out of a WAL directory entry such as
// snap-0000000000000008.json.
func numberedFile(t *testing.T, name, prefix, suffix string) uint64 {
	t.Helper()
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
	if err != nil {
		t.Fatalf("unparseable file name %q", name)
	}
	return n
}

// harvestWAL reads a closed WAL directory back as individual record
// lines (frames are lines, so prefixes of the line list are exactly the
// "crashed after record k" disk states) plus every snapshot by the
// position its file is named by (the sequence number it covers, in the
// flat layout), each with its journal files.
func harvestWAL(t *testing.T, dir string) (lines [][]byte, snaps map[uint64]diskSnapshot) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	var segs []string
	snaps = make(map[uint64]diskSnapshot)
	journals := make(map[string][]byte)
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			segs = append(segs, name)
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".json"):
			snaps[numberedFile(t, name, "snap-", ".json")] = diskSnapshot{payload: read(name)}
		case strings.HasPrefix(name, "events-") && strings.HasSuffix(name, ".bin"):
			journals[name] = read(name)
		}
	}
	for seq, snap := range snaps {
		var bounds struct {
			EventNext *int64 `json:"event_next"`
		}
		if err := json.Unmarshal(snap.payload, &bounds); err != nil {
			t.Fatalf("snapshot %d: %v", seq, err)
		}
		snap.journals = make(map[string][]byte)
		for name, data := range journals {
			if bounds.EventNext != nil && int64(numberedFile(t, name, "events-", ".bin")) < *bounds.EventNext {
				snap.journals[name] = data
			}
		}
		snaps[seq] = snap
	}
	sort.Strings(segs) // zero-padded names: lexical = sequence order
	for _, name := range segs {
		data := read(name)
		for len(data) > 0 {
			nl := bytes.IndexByte(data, '\n')
			if nl < 0 {
				t.Fatalf("segment %s ends mid-line after a clean close", name)
			}
			lines = append(lines, data[:nl+1])
			data = data[nl+1:]
		}
	}
	return lines, snaps
}

// crashDir materializes the disk state of a crash right after record k
// became durable: the first k record lines (plus an optional torn tail
// of garbage bytes) and every snapshot that had been written by then (a
// snapshot covering sequence s exists only once record s does), with
// the journal files those snapshots count on.
func crashDir(t *testing.T, lines [][]byte, snaps map[uint64]diskSnapshot, k int, torn []byte) string {
	t.Helper()
	dir := t.TempDir()
	var buf bytes.Buffer
	for _, l := range lines[:k] {
		buf.Write(l)
	}
	buf.Write(torn)
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%016d.log", 1)), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for seq, snap := range snaps {
		if seq <= uint64(k) {
			snap.writeTo(t, dir, seq)
		}
	}
	return dir
}

// tenantFacts extracts the deterministic slice of the per-tenant
// metrics (latency percentiles are wall-clock and excluded).
func tenantFacts(rep *api.MetricsReport) string {
	ids := make([]string, 0, len(rep.Tenants))
	for id := range rep.Tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	for _, id := range ids {
		tm := rep.Tenants[id]
		fmt.Fprintf(&b, "%s w=%v q=%d sub=%d placed=%d failed=%d done=%d rej=%d\n",
			id, tm.Weight, tm.Queued, tm.Submitted, tm.Placed, tm.Failed, tm.Completed, tm.Rejected)
	}
	return b.String()
}

// eventsFrom returns the lines of stream — a complete event stream,
// which therefore starts at seq 0 — from sequence number seq on.
func eventsFrom(stream string, seq int64) string {
	for ; seq > 0 && stream != ""; seq-- {
		stream = stream[strings.IndexByte(stream, '\n')+1:]
	}
	return stream
}

// firstSeq returns the sequence number of a fetched stream's first event.
func firstSeq(t *testing.T, stream string) int64 {
	t.Helper()
	var first struct {
		Seq int64 `json:"seq"`
	}
	line, _, _ := strings.Cut(stream, "\n")
	if err := json.Unmarshal([]byte(line), &first); err != nil {
		t.Fatalf("unparseable event line %q: %v", line, err)
	}
	return first.Seq
}

// checkRecoveredStream holds a recovered daemon's complete retained
// stream against the uninterrupted run's: it starts at wantBase — the
// event_base of the snapshot recovery used, 0 without one — and is
// byte-identical from that event on.
func checkRecoveredStream(t *testing.T, label, want, got string, wantBase int64) {
	t.Helper()
	if base := firstSeq(t, got); base != wantBase {
		t.Fatalf("%s: recovered stream starts at seq %d, want %d", label, base, wantBase)
	}
	if tail := eventsFrom(want, wantBase); got != tail {
		d := firstDiff(tail, got)
		t.Fatalf("%s: recovered event stream (from seq %d) diverges from uninterrupted run at byte %d\nwant: %s\ngot:  %s",
			label, wantBase, d, excerpt(tail, d), excerpt(got, d))
	}
}

// newestEventBase returns the event_base of the newest of snaps that a
// crash state includes, 0 when it includes none: where the stream
// recovered from that state has to start.
func newestEventBase(t *testing.T, snaps map[uint64]diskSnapshot, included func(seq uint64, payload []byte) bool) int64 {
	t.Helper()
	var newest uint64
	var base int64
	for seq, snap := range snaps {
		if seq >= newest && included(seq, snap.payload) {
			newest = seq
			base, _ = snapshotBounds(t, snap.payload)
		}
	}
	return base
}

// smallWindow is an EventBuffer smaller than one snapshot interval's
// events in the recovery tests' runs: the ring evicts between
// snapshots, so snapshots carry an event_base above zero and the
// journal files have gaps between them.
const smallWindow = 8

// walBaseline drives the scripted protocol against a fresh daemon and
// returns what the parity assertions compare: the complete event
// stream, the per-tenant counters and the completion count.
func walBaseline(t *testing.T, cfg server.Config, drive func(*client.Client)) (events, tenants string, completed int64) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	c := client.New(ts.URL)
	drive(c)
	events = fetchEvents(t, ts.URL)
	rep, err := c.Metrics(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if _, err := srv.Stop(false); err != nil {
		t.Fatal(err)
	}
	return events, tenantFacts(rep), rep.Completed
}

// TestCrashPointParity is the recovery contract, end to end: record a
// full daemon run's WAL, then for EVERY prefix k simulate a kill -9
// right after record k became durable, recover a fresh daemon from that
// disk state, re-drive the same scripted protocol, and require the
// complete event stream — every placement, failure draw, churn effect
// and reputation update, with times — to be byte-identical to the
// uninterrupted run's. Runs for a stateless heuristic and for the
// stateful STGA (whose history table and GA rng ride in the snapshot),
// and once more from the disk states of a run whose event ring was
// smaller than a snapshot interval: there the recovered window starts
// wherever the snapshot's did, and the stream must be identical from
// that event on.
func TestCrashPointParity(t *testing.T) {
	for _, algo := range []string{"minmin", "stga"} {
		t.Run(algo, func(t *testing.T) { crashPointParity(t, algo, 0) })
	}
	t.Run("minmin-small-window", func(t *testing.T) { crashPointParity(t, "minmin", smallWindow) })
}

func crashPointParity(t *testing.T, algo string, eventBuffer int) {
	jobs := walJobList(20)
	drive := func(c *client.Client) { driveWAL(t, c, jobs) }

	// Uninterrupted baseline. The run whose disk states are harvested
	// keeps only eventBuffer events, so the stream to compare against
	// comes from a second run that keeps them all.
	baseDir := t.TempDir()
	cfg := walTestConfig(baseDir, algo)
	cfg.EventBuffer = eventBuffer
	wantEvents, wantTenants, wantCompleted := walBaseline(t, cfg, drive)
	if eventBuffer != 0 {
		wantEvents, _, _ = walBaseline(t, walTestConfig(t.TempDir(), algo), drive)
	}

	lines, snaps := harvestWAL(t, baseDir)
	if len(lines) != 5+len(jobs) { // 3 churn + 2 tenants + arrivals
		t.Fatalf("recorded %d WAL records, want %d", len(lines), 5+len(jobs))
	}
	if wantCompleted != int64(len(jobs)) {
		t.Fatalf("baseline completed %d of %d jobs", wantCompleted, len(jobs))
	}
	if len(snaps) < 3 {
		t.Fatalf("baseline wrote %d snapshots, want >= 3 (cadence too lazy for the sweep)", len(snaps))
	}

	// Torn garbage is appended at a few cut points: a crash that
	// tears the record in flight must recover exactly like a crash
	// right after the last durable record.
	torn := map[int][]byte{
		2:  []byte("deadbeef {\"seq\":3,\"kind\":\"arr"),
		9:  []byte("\x00\xff garbage"),
		17: []byte("0"),
	}
	shortened := 0
	for k := 0; k <= len(lines); k++ {
		// The recovered daemon retains every event, whatever the crashed
		// one did, so the whole stream from the recovered window on is
		// there to compare.
		dir := crashDir(t, lines, snaps, k, torn[k])
		srv, err := server.New(walTestConfig(dir, algo))
		if err != nil {
			t.Fatalf("k=%d: recovery failed: %v", k, err)
		}
		ts := httptest.NewServer(srv.Handler())
		driveWAL(t, client.New(ts.URL), jobs)
		got := fetchEvents(t, ts.URL)
		rep, err := client.New(ts.URL).Metrics(context.Background(), "")
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		ts.Close()
		if _, err := srv.Stop(false); err != nil {
			t.Fatalf("k=%d: stop: %v", k, err)
		}
		wantBase := newestEventBase(t, snaps, func(seq uint64, _ []byte) bool { return seq <= uint64(k) })
		checkRecoveredStream(t, fmt.Sprintf("k=%d", k), wantEvents, got, wantBase)
		if wantBase > 0 {
			shortened++
		}
		if tf := tenantFacts(rep); tf != wantTenants {
			t.Fatalf("k=%d: tenant counters diverge:\nwant:\n%sgot:\n%s", k, wantTenants, tf)
		}
	}
	if eventBuffer != 0 && shortened == 0 {
		t.Error("no crash point recovered a window that starts above seq 0; the ring never evicted")
	}
}

// excerpt returns the whole line of s containing byte offset d.
func excerpt(s string, d int) string {
	if d > len(s) {
		d = len(s)
	}
	lo := strings.LastIndexByte(s[:d], '\n') + 1
	hi := strings.IndexByte(s[d:], '\n')
	if hi < 0 {
		hi = len(s)
	} else {
		hi += d
	}
	return s[lo:hi]
}

func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestTenantLifecycleSurvivesRestart covers the /v2 surface across a
// restart: a runtime-registered tenant's spec, its queue-quota
// occupancy (and therefore the 429 + Retry-After admission behavior)
// and its counters must all come back, and quota must free normally
// once the recovered jobs place.
func TestTenantLifecycleSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := walTestConfig(dir, "minmin")
	ctx := context.Background()

	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	c := client.New(ts.URL)
	if _, err := c.CreateTenant(ctx, api.TenantSpec{ID: "acme", Weight: 3, MaxQueue: 2}); err != nil {
		t.Fatal(err)
	}
	submit := func(c *client.Client, id int, arrival float64) error {
		_, err := c.Submit(ctx, "acme", []api.JobSpec{
			{ID: &id, Arrival: &arrival, Workload: 500, SD: 0.7},
		})
		return err
	}
	if err := submit(c, 1, 5000); err != nil {
		t.Fatal(err)
	}
	if err := submit(c, 2, 5000); err != nil {
		t.Fatal(err)
	}
	err = submit(c, 3, 5000)
	if !errors.Is(err, client.ErrOverQuota) {
		t.Fatalf("third job over MaxQueue=2: got %v, want 429", err)
	}
	if client.RetryAfter(err) <= 0 {
		t.Fatal("429 without a Retry-After hint")
	}
	ts.Close()
	if _, err := srv.Stop(false); err != nil {
		t.Fatal(err)
	}

	srv2, err := server.New(cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer srv2.Stop(false)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	c2 := client.New(ts2.URL)

	tenants, err := c2.Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, spec := range tenants {
		if spec.ID == "acme" {
			found = true
			if spec.Weight != 3 || spec.MaxQueue != 2 {
				t.Fatalf("recovered spec %+v, want weight 3 maxqueue 2", spec)
			}
		}
	}
	if !found {
		t.Fatal("runtime-registered tenant lost in recovery")
	}

	// Quota occupancy survived: the two recovered jobs still hold their
	// slots, so admission control picks up exactly where it left off.
	err = submit(c2, 3, 5000)
	if !errors.Is(err, client.ErrOverQuota) {
		t.Fatalf("post-recovery submit against full queue: got %v, want 429", err)
	}
	if client.RetryAfter(err) <= 0 {
		t.Fatal("post-recovery 429 without a Retry-After hint")
	}
	rep, err := c2.Metrics(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	tm := rep.Tenants["acme"]
	if tm.Queued != 2 || tm.Submitted != 2 || tm.Rejected != 2 {
		t.Fatalf("recovered counters queued=%d submitted=%d rejected=%d, want 2/2/2", tm.Queued, tm.Submitted, tm.Rejected)
	}

	// Placement frees the quota and the gate opens again.
	if _, err := c2.Advance(ctx, api.AdvanceRequest{To: 6000}); err != nil {
		t.Fatal(err)
	}
	if err := submit(c2, 3, 6000); err != nil {
		t.Fatalf("submit after quota freed: %v", err)
	}
}

// TestEventCursorSurvivesRestart: a streaming client's cursor must stay
// valid across a restart — sequence numbers continue exactly where the
// recovered log ends, with no gap and no replayed duplicates before the
// cursor.
func TestEventCursorSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := walTestConfig(dir, "minmin")
	ctx := context.Background()

	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	c := client.New(ts.URL)
	for i := 1; i <= 5; i++ {
		id, arr := i, float64(i)*100
		if _, err := c.Submit(ctx, "", []api.JobSpec{{ID: &id, Arrival: &arr, Workload: 400, SD: 0.65}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Advance(ctx, api.AdvanceRequest{To: 900}); err != nil {
		t.Fatal(err)
	}
	before := fetchEvents(t, ts.URL)
	nBefore := strings.Count(before, "\n")
	if nBefore == 0 {
		t.Fatal("no events before restart")
	}
	ts.Close()
	if _, err := srv.Stop(false); err != nil {
		t.Fatal(err)
	}

	srv2, err := server.New(cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer srv2.Stop(false)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	// The recovered log replays the same history...
	if after := fetchEvents(t, ts2.URL); after != before {
		t.Fatal("recovered event history differs from pre-restart history")
	}
	// ...and a client's old cursor sees nothing until new work happens.
	resp, err := http.Get(fmt.Sprintf("%s/v2/events?since=%d", ts2.URL, nBefore))
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(page) != 0 {
		t.Fatalf("cursor %d returned stale events after recovery: %s", nBefore, page)
	}
	if _, err := client.New(ts2.URL).Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(fmt.Sprintf("%s/v2/events?since=%d", ts2.URL, nBefore))
	if err != nil {
		t.Fatal(err)
	}
	page, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(page) == 0 {
		t.Fatal("no events after post-recovery drain")
	}
	var first struct {
		Seq int64 `json:"seq"`
	}
	nl := bytes.IndexByte(page, '\n')
	if nl < 0 {
		nl = len(page)
	}
	if err := json.Unmarshal(page[:nl], &first); err != nil {
		t.Fatalf("unparseable event line %q: %v", page[:nl], err)
	}
	if first.Seq != int64(nBefore) {
		t.Fatalf("first post-recovery event has seq %d, cursor was %d (gap or overlap)", first.Seq, nBefore)
	}
}

// TestRecoveryRejectsConfigChange: a WAL is only meaningful under the
// configuration that produced it. A changed seed trips the snapshot
// fingerprint; a changed churn trace trips the recorded-input check.
func TestRecoveryRejectsConfigChange(t *testing.T) {
	dir := t.TempDir()
	cfg := walTestConfig(dir, "minmin")
	ctx := context.Background()

	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	c := client.New(ts.URL)
	id, arr := 1, 100.0
	if _, err := c.Submit(ctx, "", []api.JobSpec{{ID: &id, Arrival: &arr, Workload: 400, SD: 0.65}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Advance(ctx, api.AdvanceRequest{To: 600}); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if _, err := srv.Stop(false); err != nil {
		t.Fatal(err)
	}

	// Every fingerprint field trips the same refusal.
	mutations := map[string]func(*server.Config){
		"seed":           func(c *server.Config) { c.Seed = 99 },
		"algo":           func(c *server.Config) { c.Algo = "stga" },
		"mode":           func(c *server.Config) { c.Mode = "risky" },
		"batch-interval": func(c *server.Config) { c.BatchInterval = 450 },
		"round-budget":   func(c *server.Config) { c.RoundBudget = 7 },
		"sites":          func(c *server.Config) { c.Sites = c.Sites[:2] },
		"manual":         func(c *server.Config) { c.Manual = false },
		"shards":         func(c *server.Config) { c.Shards = 2 },
	}
	for field, mutate := range mutations {
		bad := walTestConfig(dir, "minmin")
		mutate(&bad)
		if _, err := server.New(bad); err == nil || !strings.Contains(err.Error(), "refusing to restore") {
			t.Fatalf("%s change not rejected: %v", field, err)
		}
	}

	bad2 := walTestConfig(dir, "minmin")
	bad2.Dynamics.Churn[0].Time = 650
	if _, err := server.New(bad2); err == nil || !strings.Contains(err.Error(), "churn record") {
		t.Fatalf("churn change not rejected: %v", err)
	}

	good, err := server.New(walTestConfig(dir, "minmin"))
	if err != nil {
		t.Fatalf("unchanged config failed to recover: %v", err)
	}
	_, _ = good.Stop(false)
}
