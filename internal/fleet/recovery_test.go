package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"trustgrid/internal/grid"
	"trustgrid/internal/sched"
	"trustgrid/internal/wal"
)

// churnSpec is testSpec on a dynamic grid, so the worker's log opens
// with a churn prefix.
func churnSpec() *Spec {
	spec := testSpec("minmin")
	spec.Dynamics = &sched.DynamicsConfig{Churn: []grid.ChurnEvent{
		{Time: 700, Site: 1, Kind: grid.ChurnCrash},
		{Time: 1200, Site: 2, Kind: grid.ChurnDegrade, Factor: 0.5},
		{Time: 1900, Site: 1, Kind: grid.ChurnJoin},
	}}
	return spec
}

// runDurableWorker drives a durable worker in dir over TCP — weights,
// submissions, barriers and, with drain set, a final drain — and stops
// it cleanly, leaving its log and spec.json behind.
func runDurableWorker(t *testing.T, dir string, spec *Spec, jobs []*grid.Job, horizon float64, drain bool) {
	t.Helper()
	w, addr := startWorker(t, WorkerConfig{WALDir: dir, Heartbeat: 50 * time.Millisecond}, "")
	rs, err := Dial(addr, spec, 0, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	rs.SetEventSink(func(sched.EngineEvent) {})
	rs.SetTenantWeight("t0", 3)
	next := 0
	for tick := spec.BatchInterval; tick <= horizon; tick += spec.BatchInterval {
		for next < len(jobs) && jobs[next].Arrival < tick {
			if err := rs.Submit(cloneJob(jobs[next])); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if tick == 2*spec.BatchInterval {
			rs.SetTenantWeight("t1", 2)
		}
		if err := rs.AdvanceTo(tick); err != nil {
			t.Fatal(err)
		}
	}
	if drain {
		if _, err := rs.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// logLines reads a closed flat log directory back as framed record
// lines: a prefix of the list is the disk state of a crash right after
// that many records became durable.
func logLines(t *testing.T, dir string) [][]byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	for _, seg := range segs { // zero-padded names: Glob's lexical order is sequence order
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, bytes.SplitAfter(data, []byte("\n"))...)
		if last := len(lines) - 1; len(lines[last]) == 0 {
			lines = lines[:last]
		}
	}
	return lines
}

// TestWorkerCrashPointParity is the worker's leg of the crash-point
// harness (the daemon's are TestCrashPointParity and
// TestShardedCrashPointParity): for every record k of a finished,
// churn-bearing run — and for a torn append after k — a worker
// recovered from the first k records must hold exactly the engine state
// and the event sequence of an engine that was handed those k inputs
// live. A cut inside the churn prefix is a first boot that died while
// recording the trace: recovery finishes the prefix.
func TestWorkerCrashPointParity(t *testing.T) {
	spec := churnSpec()
	nChurn := len(spec.Dynamics.Churn)
	src := t.TempDir()
	runDurableWorker(t, src, spec, testJobs(24), 3000, true)
	lines := logLines(t, src)
	specJSON, err := os.ReadFile(filepath.Join(src, "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	recs, n := wal.DecodeAll(bytes.Join(lines, nil), 1)
	if len(recs) != len(lines) || n == 0 {
		t.Fatalf("harvested %d lines, %d decode", len(lines), len(recs))
	}
	kinds := map[string]int{}
	for _, rec := range recs {
		kinds[rec.Kind]++
	}
	if kinds[wal.KindChurn] != nChurn || kinds[wal.KindArrival] != 24 || kinds[wal.KindTenant] != 2 || kinds[wal.KindBarrier] < 7 {
		t.Fatalf("log does not hold the run's inputs: %v", kinds)
	}

	// reference feeds the first k records to a fresh engine the way the
	// live worker applied them: the operation itself, at whatever clock
	// the engine has reached — no recorded clock, no wal.Apply.
	reference := func(k int) (shardStatus, []seqEvent) {
		cfg, err := spec.ShardConfig(0, true)
		if err != nil {
			t.Fatal(err)
		}
		var events []seqEvent
		cfg.OnEvent = func(ev sched.EngineEvent) {
			events = append(events, seqEvent{Seq: uint64(len(events) + 1), Ev: ev})
		}
		eng, err := sched.NewOnline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs[:k] {
			switch rec.Kind {
			case wal.KindArrival:
				err = eng.Submit(rec.Arrival.Job())
			case wal.KindTenant:
				eng.SetTenantWeight(rec.Tenant.ID, rec.Tenant.Weight)
			case wal.KindBarrier:
				if rec.Barrier.Drain {
					_, err = eng.Drain()
				} else {
					err = eng.AdvanceTo(rec.Barrier.To)
				}
			}
			if err != nil {
				t.Fatalf("reference, record %d: %v", rec.Seq, err)
			}
		}
		ref := &Worker{spec: spec, eng: eng, seq: uint64(len(events))}
		return *ref.refreshStatusLocked(), events
	}

	check := func(label string, k int, torn []byte) {
		dir := t.TempDir()
		body := append(bytes.Join(lines[:k], nil), torn...)
		for name, data := range map[string][]byte{"spec.json": specJSON, "wal-0000000000000001.log": body} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		w, err := NewWorker(WorkerConfig{WALDir: dir})
		if err != nil {
			t.Fatalf("%s: recovery: %v", label, err)
		}
		w.mu.Lock()
		got, ring := *w.refreshStatusLocked(), w.ring.events
		w.mu.Unlock()
		want, events := reference(k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: recovered status diverges:\ngot  %+v\nwant %+v", label, got, want)
		}
		if len(ring) != len(events) || (len(events) > 0 && !reflect.DeepEqual(ring, events)) {
			t.Fatalf("%s: recovered ring holds %d events, the live engine emitted %d (or they differ)", label, len(ring), len(events))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		// The directory is a clean history again: the k records (the whole
		// churn prefix at least), nothing torn.
		wantLines := lines[:max(k, nChurn)]
		if after := logLines(t, dir); !reflect.DeepEqual(after, wantLines) {
			t.Fatalf("%s: log holds %d records after recovery, want %d, byte for byte", label, len(after), len(wantLines))
		}
	}
	if _, events := reference(len(lines)); len(events) == 0 {
		t.Fatal("the run emitted no events; the sweep is vacuous")
	}
	for k := 0; k <= len(lines); k++ {
		check(fmt.Sprintf("crash after record %d", k), k, nil)
		if k < len(lines) {
			next := lines[k]
			check(fmt.Sprintf("torn append after record %d", k), k, next[:len(next)/2])
		}
	}
}

// TestWorkerRestartKeepsJobColumns: a durable worker's arrival records
// carry every column of the submitted job, so a worker restarted over its
// log runs the jobs it was given — dependencies and deadlines included.
// The reference is an in-process engine fed the submitted jobs, never the
// records, which is what TestWorkerCrashPointParity compares against.
func TestWorkerRestartKeepsJobColumns(t *testing.T) {
	spec := testSpec("minmin")
	jobs := []*grid.Job{
		{ID: 1, Arrival: 50, Workload: 900, Nodes: 1, SecurityDemand: 0.5, Tenant: "t0"},
		{ID: 2, Arrival: 60, Workload: 300, Nodes: 1, SecurityDemand: 0.6, Tenant: "t0"},
		{ID: 3, Arrival: 70, Workload: 200, Nodes: 1, SecurityDemand: 0.4, Tenant: "t0", DependsOn: []int{1, 2}},
		{ID: 4, Arrival: 80, Workload: 500, Nodes: 1, SecurityDemand: 0.7, Tenant: "t0", Deadline: 4000},
	}
	dir := t.TempDir()
	w, addr := startWorker(t, WorkerConfig{WALDir: dir}, "")
	rs, err := Dial(addr, spec, 0, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rs.SetEventSink(func(sched.EngineEvent) {})
	for _, j := range jobs {
		if err := rs.Submit(cloneJob(j)); err != nil {
			t.Fatal(err)
		}
	}
	rs.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	restarted, err := NewWorker(WorkerConfig{WALDir: dir})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	restarted.mu.Lock()
	_, err = restarted.eng.Drain()
	got := restarted.ring.events
	restarted.mu.Unlock()
	if err != nil {
		t.Fatalf("drain after restart: %v", err)
	}
	if err := restarted.Close(); err != nil {
		t.Fatal(err)
	}

	cfg, err := spec.ShardConfig(0, true)
	if err != nil {
		t.Fatal(err)
	}
	var want []sched.EngineEvent
	cfg.OnEvent = func(ev sched.EngineEvent) { want = append(want, ev) }
	eng, err := sched.NewOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := eng.Submit(cloneJob(j)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("restarted worker emitted %d events, the submitted jobs make %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i].Ev, want[i]) {
			t.Fatalf("event %d after restart:\n got %+v\nwant %+v", i, got[i].Ev, want[i])
		}
	}
}

// TestWorkerRefusesLogWithoutSpec: a log with records and no spec.json
// is what an unsynced spec write used to leave after a power loss.
// Configuring a fresh engine over it served one stream now and, once
// the next restart replayed the stale records, another.
func TestWorkerRefusesLogWithoutSpec(t *testing.T) {
	spec := testSpec("minmin")
	dir := t.TempDir()
	runDurableWorker(t, dir, spec, testJobs(8), 1000, false)
	if err := os.Remove(filepath.Join(dir, "spec.json")); err != nil {
		t.Fatal(err)
	}

	_, addr := startWorker(t, WorkerConfig{WALDir: dir}, "")
	rs, err := Dial(addr, spec, 0, DialConfig{})
	if err == nil {
		seen := rs.Seen()
		rs.Close()
		t.Fatalf("attach over a log with no spec.json succeeded (Seen=%d; the log holds 8 arrivals)", seen)
	}
	if !strings.Contains(err.Error(), dir) {
		t.Fatalf("refusal does not name the directory: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "spec.json")); err == nil {
		t.Fatal("the refused attach left a spec.json behind: the next restart would replay the stale log under it")
	}
}

// TestWorkerRefusesV1GASpec: a spec.json an STGA worker persisted
// before v1 draws were removed names no contract (or 1), and its log
// was drawn under v1. Replaying it under v2 would contradict the events
// the coordinator already saw, so the worker refuses to start.
func TestWorkerRefusesV1GASpec(t *testing.T) {
	spec := testSpec("stga")
	spec.Setup.RNGVersion = 2
	dir := t.TempDir()
	runDurableWorker(t, dir, spec, testJobs(8), 1000, false)
	w, err := NewWorker(WorkerConfig{WALDir: dir})
	if err != nil {
		t.Fatalf("a v2 spec.json did not restore: %v", err)
	}
	w.Close()

	path := filepath.Join(dir, "spec.json")
	want := "fleet: worker recovery: fleet: spec file " + path + " was written under draw contract v1, which this trustgrid-worker " +
		"no longer runs (refusing to restore it: drain and stop the fleet with the binary that wrote it, or start the worker on a fresh -wal directory)"
	for _, v := range []int{0, 1} {
		old := *spec
		old.Setup.RNGVersion = v
		fp, err := old.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(specFile{Fingerprint: fp, Shard: 0, Spec: &old})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, payload, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := NewWorker(WorkerConfig{WALDir: dir})
		if err == nil {
			w.Close()
			t.Fatalf("spec.json with rng version %d restored", v)
		}
		if err.Error() != want {
			t.Fatalf("rng version %d: got %v\nwant %s", v, err, want)
		}
	}
}

// TestWorkerRefusesOtherStallSpec: the spec fingerprint hashes Setup,
// so the GA's stall count is part of it. A worker restarted from a
// spec.json written at one stall count turns away a daemon configured
// with another — including 0, the fixed generation count every spec
// written before the rule records by omission — and takes the daemon
// whose spec matches.
func TestWorkerRefusesOtherStallSpec(t *testing.T) {
	spec := testSpec("stga")
	spec.Setup.RNGVersion = 2 // what server.New writes
	if spec.Setup.Stall == 0 {
		t.Fatal("the default setup runs no stall rule")
	}
	dir := t.TempDir()
	runDurableWorker(t, dir, spec, testJobs(8), 1000, false)
	_, addr := startWorker(t, WorkerConfig{WALDir: dir}, "")
	for _, stall := range []int{0, spec.Setup.Stall + 5} {
		other := *spec
		other.Setup.Stall = stall
		rs, err := Dial(addr, &other, 0, DialConfig{})
		if err == nil {
			rs.Close()
			t.Fatalf("worker recovered at stall %d accepted a spec at stall %d", spec.Setup.Stall, stall)
		}
		if !strings.Contains(err.Error(), "does not match configured") {
			t.Fatalf("stall %d: %v", stall, err)
		}
	}
	rs, err := Dial(addr, spec, 0, DialConfig{})
	if err != nil {
		t.Fatalf("the spec the worker recovered was refused: %v", err)
	}
	rs.Close()
}
