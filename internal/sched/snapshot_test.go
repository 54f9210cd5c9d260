package sched_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"trustgrid/internal/fuzzy"
	"trustgrid/internal/grid"
	"trustgrid/internal/heuristics"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
)

// snapLine renders an engine event to a comparable line. Every field
// that distinguishes a placement or outcome is included, so two runs
// with equal traces made byte-identical decisions.
func snapLine(ev sched.EngineEvent) string {
	return fmt.Sprintf("%d t=%v job=%d site=%d start=%v finish=%v risky=%v fb=%v lvl=%v spd=%v",
		ev.Kind, ev.Time, ev.Job.ID, ev.Site, ev.Start, ev.Finish,
		ev.Risky, ev.FellBack, ev.Level, ev.Speed)
}

// snapWorkload builds a two-tenant open workload with arrivals spread
// over [0, 2500] and demands hot enough to exercise the risky path.
func snapWorkload(n int) []*grid.Job {
	r := rng.New(1234)
	jobs := make([]*grid.Job, n)
	at := 0.0
	for i := range jobs {
		at += r.Exp(1.0 / 30)
		tenant := "acme"
		if i%3 == 0 {
			tenant = "umbrella"
		}
		jobs[i] = &grid.Job{
			ID: i, Tenant: tenant, Arrival: at,
			Workload: 50 * float64(r.Level(20)), Nodes: 1,
			SecurityDemand: r.Uniform(0.6, 0.9),
		}
	}
	return jobs
}

// snapConfig builds a maximal configuration — churn, reputation
// feedback, ground-truth divergence, fair-share admission, a stateful
// scheduler — freshly each call, so restored engines are constructed
// exactly as the original was.
func snapConfig(events *[]string) sched.RunConfig {
	rep := fuzzy.DefaultReputationConfig()
	return sched.RunConfig{
		Sites: []*grid.Site{
			{ID: 0, Speed: 10, Nodes: 8, SecurityLevel: 0.95},
			{ID: 1, Speed: 20, Nodes: 16, SecurityLevel: 0.5},
			{ID: 2, Speed: 5, Nodes: 4, SecurityLevel: 0.8},
		},
		Scheduler:      heuristics.NewRandom(grid.FRiskyPolicy(0.5), rng.New(77).Derive("random")),
		BatchInterval:  300,
		Rand:           rng.New(9),
		DiscardRecords: true,
		Dynamics: &sched.DynamicsConfig{
			Churn: []grid.ChurnEvent{
				{Time: 700, Site: 1, Kind: grid.ChurnCrash},
				{Time: 1000, Site: 2, Kind: grid.ChurnDegrade, Factor: 0.5},
				{Time: 1600, Site: 1, Kind: grid.ChurnJoin},
				{Time: 2200, Site: 2, Kind: grid.ChurnRestore},
			},
			Reputation: &rep,
			TrueLevels: []float64{0.7, 0.5, 0.8},
		},
		Admission: &sched.AdmissionConfig{
			RoundBudget: 4,
			Weights:     map[string]float64{"acme": 2, "umbrella": 1},
		},
		OnEvent: func(ev sched.EngineEvent) { *events = append(*events, snapLine(ev)) },
	}
}

// snapDrive advances the engine tick by tick through [from+Δ, to],
// submitting each job just before the tick that covers its arrival —
// the deterministic submission protocol both the reference run and the
// recovered runs follow. next is the index of the first unsubmitted job.
func snapDrive(t *testing.T, o *sched.Online, jobs []*grid.Job, next *int, from, to float64) {
	t.Helper()
	for tick := from + 300; tick <= to+1e-9; tick += 300 {
		for *next < len(jobs) && jobs[*next].Arrival <= tick {
			// Every cut's run submits the same workload again, and Submit
			// takes ownership of what it is handed: each engine gets its own
			// copy.
			if err := o.Submit(jobs[*next].Clone()); err != nil {
				t.Fatal(err)
			}
			*next++
		}
		if err := o.AdvanceTo(tick); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotRestoreParity is the engine-level recovery contract: at
// every tick boundary, snapshotting and rebuilding a fresh engine from
// the (JSON round-tripped) snapshot yields exactly the event trace the
// uninterrupted run produces — same placements, times, failure draws,
// churn effects and reputation updates.
func TestSnapshotRestoreParity(t *testing.T) {
	jobs := snapWorkload(80)
	const horizon = 3000.0

	var want []string
	{
		cfg := snapConfig(&want)
		o, err := sched.NewOnline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		snapDrive(t, o, jobs, &next, 0, horizon)
		if _, err := o.Drain(); err != nil {
			t.Fatal(err)
		}
	}

	for cut := 300.0; cut < horizon; cut += 300 {
		cut := cut
		t.Run(fmt.Sprintf("cut=%v", cut), func(t *testing.T) {
			var got []string
			cfg := snapConfig(&got)
			o, err := sched.NewOnline(cfg)
			if err != nil {
				t.Fatal(err)
			}
			next := 0
			snapDrive(t, o, jobs, &next, 0, cut)
			snap, err := o.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			// Round-trip through JSON: the daemon persists snapshots as
			// documents, so the serialized form must be lossless.
			blob, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			var back sched.EngineSnapshot
			if err := json.Unmarshal(blob, &back); err != nil {
				t.Fatal(err)
			}

			cfg2 := snapConfig(&got)
			r, err := sched.RestoreOnline(cfg2, &back)
			if err != nil {
				t.Fatal(err)
			}
			if r.Now() != cut {
				t.Fatalf("restored clock at %v, snapshot taken at %v", r.Now(), cut)
			}
			snapDrive(t, r, jobs, &next, cut, horizon)
			if _, err := r.Drain(); err != nil {
				t.Fatal(err)
			}

			if len(got) != len(want) {
				t.Fatalf("recovered run emitted %d events, uninterrupted run %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("event %d diverged after cut at t=%v:\n  got  %s\n  want %s", i, cut, got[i], want[i])
				}
			}
		})
	}
}

// TestSnapshotPreconditions: snapshots are only meaningful on
// record-discarding engines.
func TestSnapshotPreconditions(t *testing.T) {
	var sink []string
	cfg := snapConfig(&sink)
	cfg.DiscardRecords = false
	o, err := sched.NewOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Snapshot(); err == nil {
		t.Fatal("Snapshot with record retention did not fail")
	}
}

// TestRestoreRejectsMismatchedConfig: a snapshot must not silently load
// into an engine whose configuration cannot replay it.
func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	var sink []string
	o, err := sched.NewOnline(snapConfig(&sink))
	if err != nil {
		t.Fatal(err)
	}
	jobs := snapWorkload(20)
	next := 0
	snapDrive(t, o, jobs, &next, 0, 600)
	snap, err := o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := sched.RestoreOnline(snapConfig(&sink), nil); err == nil {
		t.Fatal("restore from a nil snapshot did not fail")
	}

	cfg := snapConfig(&sink)
	cfg.Scheduler = heuristics.NewMinMin(grid.FRiskyPolicy(0.5))
	if _, err := sched.RestoreOnline(cfg, snap); err == nil {
		t.Fatal("restore with a different scheduler did not fail")
	}

	cfg = snapConfig(&sink)
	cfg.Jobs = jobs
	if _, err := sched.RestoreOnline(cfg, snap); err == nil {
		t.Fatal("restore with preloaded jobs did not fail")
	}

	cfg = snapConfig(&sink)
	cfg.Dynamics = nil
	if _, err := sched.RestoreOnline(cfg, snap); err == nil {
		t.Fatal("restore without dynamics for a dynamic snapshot did not fail")
	}

	// A damaged snapshot whose pending event lies before its clock is
	// refused with an error, not a panic in the queue.
	if len(snap.Pending) == 0 {
		t.Fatal("snapshot at t=600 has no pending events")
	}
	for _, at := range []float64{snap.Now - 1, math.NaN()} {
		bad := *snap
		bad.Pending = append([]sched.PendingItem(nil), snap.Pending...)
		bad.Pending[0].At = at
		if _, err := sched.RestoreOnline(snapConfig(&sink), &bad); err == nil {
			t.Fatalf("restore with a pending event at t=%v, clock %v, did not fail", at, snap.Now)
		}
	}
}

// snapshotBytesSHA256 is the digest TestSnapshotBytesPinned folds over
// its snapshots.
const snapshotBytesSHA256 = "5e0114f65a076d6e5f635d07704514aa792cb3ae0429466ecdecef9fe5249012"

// TestSnapshotBytesPinned pins the serialized snapshot, byte for byte:
// at every cut of TestSnapshotRestoreParity's run it hashes
// json.Marshal of the snapshot, restores from it, drives the restored
// engine a further 600 s and hashes that engine's snapshot too, which
// covers the sequence numbers a restore hands out. The digest over all
// of them is a constant, so a change to the queue, the snapshot's
// fields or their order shows here before a daemon's recovery meets it.
func TestSnapshotBytesPinned(t *testing.T) {
	jobs := snapWorkload(80)
	const horizon = 3000.0
	digest := sha256.New()
	add := func(o *sched.Online) *sched.EngineSnapshot {
		t.Helper()
		snap, err := o.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		digest.Write(sum[:])
		return snap
	}
	for cut := 300.0; cut < horizon; cut += 300 {
		var sink []string
		o, err := sched.NewOnline(snapConfig(&sink))
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		snapDrive(t, o, jobs, &next, 0, cut)
		r, err := sched.RestoreOnline(snapConfig(&sink), add(o))
		if err != nil {
			t.Fatal(err)
		}
		snapDrive(t, r, jobs, &next, cut, cut+600)
		add(r)
	}
	if got := hex.EncodeToString(digest.Sum(nil)); got != snapshotBytesSHA256 {
		t.Fatalf("snapshot bytes digest %s, want %s", got, snapshotBytesSHA256)
	}
}
