package fleet

import (
	"errors"
	"strings"
	"testing"
	"time"

	"trustgrid/internal/grid"
	"trustgrid/internal/sched"
)

// TestSpecValidate pins the spec's own guard rails: the daemon relies
// on these to refuse a malformed fleet before any worker is dialed.
func TestSpecValidate(t *testing.T) {
	base := testSpec("minmin")
	ok := *base
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"zero shards", func(s *Spec) { s.Shards = 0 }, "shard"},
		{"more shards than sites", func(s *Spec) { s.Shards = len(s.Sites) + 1 }, "sites"},
		{"no sites", func(s *Spec) { s.Sites = nil }, "sites"},
		{"bad mode", func(s *Spec) { s.Mode = "paranoid" }, "mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := *base
			tc.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
			}
		})
	}
	if _, err := (&Spec{}).ShardConfig(0, false); err == nil {
		t.Fatal("ShardConfig on an empty spec succeeded")
	}
	bad := *base
	bad.Algo = "no-such-scheduler"
	if _, err := bad.ShardConfig(0, false); err == nil {
		t.Fatal("ShardConfig with an unknown algorithm succeeded")
	}
	for _, mode := range []string{"secure", "risky", "frisky"} {
		s := *base
		s.Mode = mode
		if _, err := s.ShardConfig(0, false); err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
	}
}

// TestRemoteShardSurface drives every sched.Shard method of a
// RemoteShard against a live worker — including the down-state
// contracts the coordinator and server lean on: fail-fast submissions,
// nil NeverPlaced (a down shard's jobs are delayed, not abandoned),
// queued weight updates replayed on reattach, and frozen cached
// introspection.
func TestRemoteShardSurface(t *testing.T) {
	spec := testSpec("minmin")
	dir := t.TempDir()
	w, addr := startWorker(t, WorkerConfig{WALDir: dir, Heartbeat: 20 * time.Millisecond}, "")
	rs, err := Dial(addr, spec, 0, DialConfig{TTL: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	wantFP, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if w.Fingerprint() != wantFP {
		t.Fatalf("worker pinned fingerprint %q, want %q", w.Fingerprint(), wantFP)
	}
	if rs.Addr() != addr {
		t.Fatalf("Addr() = %q, want %q", rs.Addr(), addr)
	}
	if rs.Down() {
		t.Fatal("freshly dialed shard reports down")
	}

	rs.SetTenantWeight("t0", 5) // live path
	jobs := testJobs(4)
	done := make(chan struct{})
	if err := rs.SubmitOr(done, cloneJob(jobs[0])); err != nil {
		t.Fatal(err)
	}
	if err := rs.SubmitLocal(cloneJob(jobs[1])); err != nil {
		t.Fatal(err)
	}
	if err := rs.Submit(cloneJob(jobs[2])); err != nil {
		t.Fatal(err)
	}
	if err := rs.AdvanceTo(1000); err != nil {
		t.Fatal(err)
	}
	// An engine rejection on the worker must come back as a plain
	// operation error, not as shard-down: the worker is alive and the
	// coordinator must keep using it.
	if err := rs.Submit(&grid.Job{ID: 99, Nodes: 1}); err == nil {
		t.Fatal("invalid job accepted")
	} else if errors.Is(err, sched.ErrShardDown) {
		t.Fatalf("engine error surfaced as shard-down: %v", err)
	}
	if rs.Down() {
		t.Fatal("shard marked down after a mere operation error")
	}

	if got := rs.Now(); got != 1000 {
		t.Fatalf("Now() = %v, want 1000", got)
	}
	if got := rs.Seen(); got != 3 {
		t.Fatalf("Seen() = %d, want 3", got)
	}
	_ = rs.InFlight() + rs.Backlog() + rs.Batches() + rs.LargestBatch()
	if sites := rs.SiteStatuses(); len(sites) != len(spec.Sites) {
		t.Fatalf("SiteStatuses() has %d sites, want %d", len(sites), len(spec.Sites))
	}
	if _, busy := rs.MetricsState(); len(busy) != len(spec.Sites) {
		t.Fatalf("MetricsState() busy has %d sites, want %d", len(busy), len(spec.Sites))
	}
	snap, err := rs.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("Snapshot() returned nil without error")
	}
	_ = rs.NeverPlaced() // live path; content is engine policy, not protocol

	// Kill the worker and pin the down-state surface.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !rs.Down() {
		if time.Now().After(deadline) {
			t.Fatal("shard never went down after worker close")
		}
		rs.Submit(cloneJob(jobs[3]))
		time.Sleep(5 * time.Millisecond)
	}
	if err := rs.Submit(cloneJob(jobs[3])); !errors.Is(err, sched.ErrShardDown) {
		t.Fatalf("Submit while down: %v, want ErrShardDown", err)
	}
	if err := rs.SubmitOr(done, cloneJob(jobs[3])); !errors.Is(err, sched.ErrShardDown) {
		t.Fatalf("SubmitOr while down: %v, want ErrShardDown", err)
	}
	if np := rs.NeverPlaced(); np != nil {
		t.Fatalf("NeverPlaced while down = %v, want nil", np)
	}
	if _, err := rs.Snapshot(); !errors.Is(err, sched.ErrShardDown) {
		t.Fatalf("Snapshot while down: %v, want ErrShardDown", err)
	}
	if got := rs.Now(); got != 1000 {
		t.Fatalf("cached Now() while down = %v, want 1000", got)
	}
	rs.SetTenantWeight("t1", 2) // queued, replayed on reattach

	// Restart on the same address and WAL; a barrier reattaches and the
	// queued weight replays first.
	startWorker(t, WorkerConfig{WALDir: dir, Heartbeat: 20 * time.Millisecond}, addr)
	if err := rs.AdvanceTo(1000); err != nil {
		t.Fatalf("reattach barrier: %v", err)
	}
	if rs.Down() {
		t.Fatal("shard still down after reattach barrier")
	}
	if err := rs.Submit(cloneJob(jobs[3])); err != nil {
		t.Fatalf("submit after reattach: %v", err)
	}
	if _, err := rs.Drain(); err != nil {
		t.Fatal(err)
	}
}
