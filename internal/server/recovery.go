package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"trustgrid/internal/api"
	"trustgrid/internal/experiments"
	"trustgrid/internal/fleet"
	"trustgrid/internal/grid"
	"trustgrid/internal/sched"
	"trustgrid/internal/wal"
)

// serverSnapshot is the daemon's complete durable state at one WAL
// sequence number: a configuration fingerprint (recovery refuses a WAL
// written under a different run configuration — the determinism
// contract makes placements a function of config + recorded inputs, so
// restoring state under different config would fabricate history), the
// engine snapshot (one per shard when sharded), the tenant registry,
// the ID allocator and the service counters, plus the bounds of the
// retained event window — the events themselves are in the journal
// files beside the snapshot, each written once — so streaming cursors
// survive the restart. Recovery = newest readable snapshot + replay of
// WAL records past it (DESIGN.md §10; §11.4 for the sharded log set).
type serverSnapshot struct {
	Version int    `json:"version"`
	Seq     uint64 `json:"seq"`

	Algo          string  `json:"algo"`
	Mode          string  `json:"mode"`
	Seed          uint64  `json:"seed"`
	BatchInterval float64 `json:"batch_interval"`
	RoundBudget   int     `json:"round_budget"`
	Sites         int     `json:"sites"`
	Manual        bool    `json:"manual"`
	// Shards is part of the fingerprint: state sharded N ways cannot be
	// restored into M engines. Zero (an unsharded snapshot, including
	// every pre-sharding one) means 1.
	Shards int `json:"shards,omitempty"`
	// RNGVersion names the GA draw contract the state evolved under.
	// This binary writes 2. Absent or 1 is the removed v1, which a GA
	// algorithm's snapshot cannot continue under (newestSnapshot).
	RNGVersion int `json:"rng_version,omitempty"`
	// Population, Generations and Stall are the GA's shape, recorded for
	// the algorithms that run it (stga, coldga) and absent for the rest:
	// a round's placements depend on all three. A GA snapshot without
	// them was written before the stall rule existed, when every round
	// ran a fixed generation count (newestSnapshot refuses it).
	Population  int `json:"population,omitempty"`
	Generations int `json:"generations,omitempty"`
	Stall       int `json:"stall,omitempty"`

	Engine  *sched.EngineSnapshot `json:"engine,omitempty"`
	Tenants []tenantSnapshot      `json:"tenants"`

	// Sharded layout only: one engine snapshot per shard, the covered
	// sequence number of each shard log (Seq above covers the
	// coordinator log), and the global sequence counter at capture.
	Engines   []*sched.EngineSnapshot `json:"engines,omitempty"`
	ShardSeqs []uint64                `json:"shard_seqs,omitempty"`
	NextG     uint64                  `json:"next_g,omitempty"`

	NextID int64 `json:"next_id"`
	// Owners is every accepted job ID above the retention horizon with
	// its tenant, as columns: the depends_on validation registry, and in
	// manual mode the explicit-ID dedupe. RetentionHorizon is the horizon
	// W, absent until a job has been retired (and in version 3, whose
	// Owners holds every accepted ID). ownerIDs and ownerTenants are the
	// decoded columns, filled by newestSnapshot.
	Owners           *ownerColumns `json:"owners,omitempty"`
	RetentionHorizon *int          `json:"retention_horizon,omitempty"`
	ownerIDs         []int
	ownerTenants     []uint32

	Counters counterSnapshot `json:"counters"`

	// The retained event window is [EventBase, EventNext). Every journal
	// file holding an event below EventNext was durable before this
	// snapshot was written (DESIGN.md §10.2).
	EventBase int64 `json:"event_base"`
	EventNext int64 `json:"event_next"`

	// file is the position the snapshot's file is named by
	// (wal.SnapshotRef.Seq), filled by newestSnapshot.
	file uint64
}

// snapshotVersion is the serverSnapshot layout this binary writes. 2
// moved the retained events out of the payload into the event journal
// and dropped used_ids; 3 stores owners and each engine's dag.done as
// byte columns; 4 keeps in both only what lies above a retention
// horizon (DESIGN.md §14.3), which a version-3 reader would take for
// IDs never used. This binary reads 3 and 4 (a 3 has no horizon yet);
// payloads of any other version are refused, not converted.
const (
	snapshotVersion       = 4
	oldestSnapshotVersion = 3
)

// counterSnapshot carries the service's atomic counters.
type counterSnapshot struct {
	Submitted   int64 `json:"submitted"`
	Arrived     int64 `json:"arrived"`
	Placed      int64 `json:"placed"`
	Completed   int64 `json:"completed"`
	Failures    int64 `json:"failures"`
	Interrupted int64 `json:"interrupted"`
}

func (s *Server) checkFingerprint(snap *serverSnapshot) error {
	mismatch := func(field string, got, want any) error {
		return fmt.Errorf("snapshot written under %s=%v, config has %v (refusing to restore state across a config change)",
			field, got, want)
	}
	snapShards := snap.Shards
	if snapShards == 0 {
		snapShards = 1
	}
	switch {
	case snap.Algo != s.cfg.Algo:
		return mismatch("algo", snap.Algo, s.cfg.Algo)
	case snap.Mode != s.cfg.Mode:
		return mismatch("mode", snap.Mode, s.cfg.Mode)
	case snap.Seed != s.cfg.Seed:
		return mismatch("seed", snap.Seed, s.cfg.Seed)
	case snap.BatchInterval != s.cfg.BatchInterval:
		return mismatch("batch-interval", snap.BatchInterval, s.cfg.BatchInterval)
	case snap.RoundBudget != s.cfg.RoundBudget:
		return mismatch("round-budget", snap.RoundBudget, s.cfg.RoundBudget)
	case snap.Sites != len(s.cfg.Sites):
		return mismatch("sites", snap.Sites, len(s.cfg.Sites))
	case snap.Manual != s.cfg.Manual:
		return mismatch("manual", snap.Manual, s.cfg.Manual)
	case snapShards != s.cfg.Shards:
		return mismatch("shards", snapShards, s.cfg.Shards)
	}
	if experiments.RunsGA(s.cfg.Algo) && snap.Population != 0 {
		switch setup := s.cfg.Setup; {
		case snap.Population != setup.Population:
			return mismatch("population", snap.Population, setup.Population)
		case snap.Generations != setup.Generations:
			return mismatch("generations", snap.Generations, setup.Generations)
		case snap.Stall != setup.Stall:
			return mismatch("stall", snap.Stall, setup.Stall)
		}
	}
	return nil
}

// recover opens the durable input set before the loop goroutine starts
// and finds where to resume — the same steps for every shard count: the
// newest usable snapshot (nil on a fresh directory, which records the
// churn trace and starts clean), and the records past it, which the set
// verifies, cuts and orders (wal.Set.Recover). attach restores the
// shards and the server state from the one and re-applies the other.
// Runs once, from New.
func (s *Server) recover(spec *fleet.Spec, lap func(recoveryPhase)) (snap *serverSnapshot, tail []wal.Record, err error) {
	if s.wal, err = wal.OpenSet(s.cfg.WALDir, spec.Shards); err != nil {
		return nil, nil, err
	}
	s.walSyncs = s.wal.Syncs
	lap(recoverOpen)
	if snap, err = s.newestSnapshot(); err != nil {
		return nil, nil, err
	}
	lap(recoverSnapshot)
	var marks wal.Marks
	if snap != nil {
		marks = snap.marks()
	}
	parts := spec.Parts()
	churn := make([][]grid.ChurnEvent, len(parts))
	for i, part := range parts {
		if dyn := sched.PartitionDynamics(spec.Dynamics, part); dyn != nil {
			churn[i] = dyn.Churn
		}
	}
	if tail, err = s.wal.Recover(marks, churn); err != nil {
		return nil, nil, err
	}
	lap(recoverLogs)
	return snap, tail, nil
}

// recoveryPhase indexes Server.recovery: the steps of recover, timed
// in wall time for /metrics.prom. The times stay in the process; no
// event or WAL record sees them.
type recoveryPhase int

const (
	recoverOpen     recoveryPhase = iota // wal.OpenSet: every log cut to its last whole record
	recoverSnapshot                      // reading and decoding the newest usable snapshot
	recoverLogs                          // wal.Set.Recover: decode, verify, cut and order the logs
	recoverRestore                       // the engines, the server state and the event journal
	recoverReplay                        // re-applying the records past the snapshot
	numRecoveryPhases
)

// recoveryPhaseNames are the phase label values of
// trustgrid_recovery_seconds, in recoveryPhase order.
var recoveryPhaseNames = [numRecoveryPhases]string{"open", "snapshot", "logs", "restore", "replay"}

// marks returns the log positions the snapshot covers.
func (snap *serverSnapshot) marks() wal.Marks {
	return wal.Marks{Seq: snap.Seq, ShardSeqs: snap.ShardSeqs, NextG: snap.NextG}
}

// newestSnapshot returns the newest snapshot in the control directory
// that recovery can start from, or nil. One that cannot be read or
// parsed, whose payload has the wrong shape, or that claims records the
// logs lost is itself damage and falls through to the next; WALKeep > 1
// exists for exactly that. A snapshot of another layout version or
// another configuration is an operator error, not corruption, and ends
// recovery.
func (s *Server) newestSnapshot() (*serverSnapshot, error) {
	refs, err := s.wal.Control().Snapshots()
	if err != nil {
		return nil, err
	}
	for _, ref := range refs {
		payload, err := wal.ReadSnapshot(ref)
		if err != nil {
			continue
		}
		var cand serverSnapshot
		parseErr := json.Unmarshal(payload, &cand)
		if parseErr != nil {
			// Another version's payload need not fit this layout's types
			// (version 2's owners and done are lists), so the version alone
			// is read again before the payload counts as damage.
			var head struct {
				Version int `json:"version"`
			}
			if json.Unmarshal(payload, &head) != nil || readsVersion(head.Version) {
				continue
			}
			cand.Version = head.Version
		}
		// The version says how to read the rest, so it is judged first.
		if !readsVersion(cand.Version) {
			age := "an older"
			if cand.Version > snapshotVersion {
				age = "a newer"
			}
			return nil, fmt.Errorf("snapshot %s has layout version %d, written by %s trustgridd; this one reads versions %d to %d only "+
				"(refusing to restore it: drain and stop the daemon with the binary that wrote it, or start on a fresh -wal-dir)",
				ref.Path, cand.Version, age, oldestSnapshotVersion, snapshotVersion)
		}
		// One engine per shard and one watermark per shard log (none in
		// the flat layout, where Shards stays 0).
		if len(cand.engines()) != max(cand.Shards, 1) || len(cand.ShardSeqs) != cand.Shards || !s.wal.Holds(cand.marks()) ||
			cand.decodeColumns() != nil {
			continue
		}
		if err := s.checkFingerprint(&cand); err != nil {
			return nil, err
		}
		cand.file = ref.Seq
		// A GA's state drawn under the removed v1 cannot continue under
		// v2; replaying its log instead would contradict the events
		// clients already saw.
		if experiments.RemovedDraws(cand.Algo, cand.RNGVersion) {
			return nil, fmt.Errorf("snapshot %s was written under draw contract v1, which this trustgridd no longer runs "+
				"(refusing to restore it: drain and stop the daemon with the binary that wrote it, or start on a fresh -wal-dir)",
				ref.Path)
		}
		// Nor can one written before the GA's shape was recorded: its
		// rounds ran a fixed generation count this config may not.
		if experiments.RunsGA(cand.Algo) && cand.Population == 0 {
			return nil, fmt.Errorf("snapshot %s was written by an older trustgridd, before the GA's population, generations and stall "+
				"joined the snapshot fingerprint (refusing to restore it: drain and stop the daemon with the binary that wrote it, "+
				"or start on a fresh -wal-dir)", ref.Path)
		}
		return &cand, nil
	}
	return nil, nil
}

// readsVersion reports whether this binary restores snapshot layout v.
func readsVersion(v int) bool { return v >= oldestSnapshotVersion && v <= snapshotVersion }

// decodeColumns expands the owners columns into ownerIDs and
// ownerTenants and decodes every engine's columns for its restore, so
// that a column that does not decode makes the snapshot damage, like a
// payload that does not parse, instead of failing the restore.
func (snap *serverSnapshot) decodeColumns() (err error) {
	if snap.Owners != nil {
		if snap.ownerIDs, snap.ownerTenants, err = snap.Owners.decode(); err != nil {
			return err
		}
	}
	for _, e := range snap.engines() {
		if e != nil {
			if err := e.DecodeColumns(); err != nil {
				return err
			}
		}
	}
	return nil
}

// engines returns the engine snapshots in shard order, whichever of the
// two fields the layout stored them in.
func (snap *serverSnapshot) engines() []*sched.EngineSnapshot {
	if snap.Engine != nil {
		return []*sched.EngineSnapshot{snap.Engine}
	}
	return snap.Engines
}

// restoreFromSnapshot installs the server-side state a snapshot
// carries: tenant registry, event window, ID allocator, counters. A nil
// snap starts every one of them empty.
func (s *Server) restoreFromSnapshot(snap *serverSnapshot) error {
	if snap == nil {
		return s.restoreEvents(0, 0)
	}
	s.tenants.restore(snap.Tenants)
	s.nextID = snap.NextID
	if snap.Owners != nil {
		// An accepted ID has completed unless its engine holds it in flight.
		inFlight := make(map[int]struct{})
		for _, e := range snap.engines() {
			e.InFlight(func(id int) { inFlight[id] = struct{}{} })
		}
		s.owners.restore(snap.Owners.Names, snap.ownerIDs, snap.ownerTenants, inFlight)
	}
	if h := snap.RetentionHorizon; h != nil {
		s.owners.horizon, s.owners.retired = *h, true
	}
	s.submitted.Store(snap.Counters.Submitted)
	s.arrived.Store(snap.Counters.Arrived)
	s.placed.Store(snap.Counters.Placed)
	s.completed.Store(snap.Counters.Completed)
	s.failures.Store(snap.Counters.Failures)
	s.interrupted.Store(snap.Counters.Interrupted)
	s.markSnapshot(snapMark{snap.file, snap.marks(), snap.EventBase})
	return s.restoreEvents(snap.EventBase, snap.EventNext)
}

// snapMark is what GC needs to know of one retained snapshot: the
// position its file is named by (a later snapshot at the same position
// — nothing was logged in between — replaces it), the log positions it
// covers, and its event_base.
type snapMark struct {
	file  uint64
	marks wal.Marks
	base  int64
}

// markSnapshot records a snapshot written or recovered from, keeping the
// newest WALKeep, as GC does with the files.
func (s *Server) markSnapshot(m snapMark) {
	if n := len(s.snapMarks); n > 0 && s.snapMarks[n-1].file == m.file {
		s.snapMarks[n-1] = m
		return
	}
	s.snapMarks = append(s.snapMarks, m)
	if keep := s.cfg.WALKeep; keep > 0 && len(s.snapMarks) > keep {
		s.snapMarks = s.snapMarks[len(s.snapMarks)-keep:]
	}
}

// restoreEvents rebuilds the retained event window [base, next) from
// the journal files beside the snapshot — binary records, or the NDJSON
// lines of the files earlier daemons wrote. Files starting at or past
// next were written for a snapshot recovery did not use; they go, and
// replay emits those events again. Of the rest, the window takes the
// longest run of events that ends at next-1 without a break: a missing
// file, a torn record or line or a sequence gap shortens the window —
// what a reader whose cursor was evicted sees — and never puts a wrong
// event in it.
func (s *Server) restoreEvents(base, next int64) error {
	ctl := s.wal.Control()
	refs, err := ctl.Journals()
	if err != nil {
		return err
	}
	// consecutive events; the next one expected is runEnd
	run := make([]WireEvent, 0, min(max(next-base, 0), int64(s.log.max)))
	runEnd := base
	for i, ref := range refs {
		if ref.First >= next {
			if err := ctl.RemoveJournals(refs[i:]); err != nil {
				return err
			}
			break
		}
		if i+1 < len(refs) && refs[i+1].First <= base {
			continue // wholly below the window: evicted before the snapshot
		}
		if ref.First != runEnd {
			run, runEnd = run[:0], ref.First
		}
		data, err := wal.ReadJournal(ref)
		if err != nil {
			data = nil
		}
		for len(data) > 0 && runEnd < next {
			var ev WireEvent
			if data, err = readJournalEvent(data, ref.Lines, &ev); err != nil || ev.Seq != runEnd {
				// Whatever followed the tear is lost, so nothing read so far
				// can reach next-1.
				run, runEnd = run[:0], -1
				break
			}
			run = append(run, ev)
			runEnd++
		}
	}
	if runEnd != next {
		run = nil
	}
	if len(run) > 0 && run[0].Seq < base {
		run = run[base-run[0].Seq:]
	}
	s.log.restore(next-int64(len(run)), run)
	s.journaled = next
	return nil
}

// readJournalEvent decodes the first event of a journal file's data, a
// binary record or, in a file of lines, an NDJSON line, and returns the
// data after it.
func readJournalEvent(data []byte, lines bool, ev *WireEvent) ([]byte, error) {
	if !lines {
		return api.ReadEventRecord(data, ev)
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("journal line without a newline")
	}
	return data[nl+1:], api.ParseEvent(data[:nl], ev)
}

// resumeAdmission points the quota gate and the latency tracker at the
// recovered engine's ground truth: every accepted-but-never-placed job
// holds a queue slot and an open latency measurement. Wall-clock
// latency across a restart is not meaningful, so measurements restart
// at recovery time.
func (s *Server) resumeAdmission() {
	now := time.Now()
	queued := make(map[string]int)
	for _, j := range s.online.NeverPlaced() {
		queued[j.Tenant]++
		s.lat.submitted(j.ID, j.Tenant, now)
	}
	s.tenants.setQueued(queued)
}

// replayRecord re-applies one post-snapshot record to the engines
// (wal.Apply) and to the server-side state an accepted submission or a
// registration touched.
func (s *Server) replayRecord(rec wal.Record) error {
	if rec.Kind == wal.KindTenant {
		// A duplicate means the operator promoted a runtime-created
		// tenant into the boot config (or the snapshot already carried
		// it); the existing registration wins.
		_ = s.tenants.register(*rec.Tenant)
		spec, _ := s.tenants.get(rec.Tenant.ID)
		rec.Tenant = &spec
	}
	if err := wal.Apply(s.online, rec); err != nil {
		return err
	}
	if tr := rec.Arrival; rec.Kind == wal.KindArrival {
		s.submitted.Add(1)
		s.tenants.addSubmitted(tr.Tenant, 1)
		// Rebuild the dependency-validation registry. Daemon recordings
		// always label ownership, but a hand-written single-tenant WAL may
		// omit the column — those jobs belong to the default tenant.
		owner := tr.Tenant
		if owner == "" {
			owner = api.DefaultTenant
		}
		s.owners.add(tr.ID, owner)
		s.nextID = max(s.nextID, int64(tr.ID))
	}
	return nil
}

// snapshotPhase indexes Server.snapPhases: the steps of writeSnapshot,
// timed in wall time for /metrics.prom. The times stay in the process;
// no event or WAL record sees them.
type snapshotPhase int

const (
	snapJournal  snapshotPhase = iota // the events since the last snapshot, encoded and written
	snapEngines                       // every engine's snapshot
	snapRegistry                      // the owners registry's columns
	snapMarshal                       // the payload's JSON
	snapWrite                         // the snapshot file and the log rotation
	snapGC                            // removing what the kept snapshots no longer need
	numSnapshotPhases
)

// snapshotPhaseNames are the phase label values of
// trustgrid_snapshot_seconds, in snapshotPhase order.
var snapshotPhaseNames = [numSnapshotPhases]string{"journal", "engines", "registry", "marshal", "write", "gc"}

// writeSnapshot persists the server state at the current WAL position —
// first the events emitted since the last snapshot, as one journal
// file, then the snapshot that counts on it — rotates the segments and
// garbage-collects what the retained snapshots cover. Loop goroutine
// (or post-loop Stop) only.
func (s *Server) writeSnapshot() error {
	if err := s.walCommit(); err != nil {
		return err
	}
	t := time.Now()
	lap := func(p snapshotPhase) {
		now := time.Now()
		s.snapPhases[p].Observe(now.Sub(t))
		t = now
	}
	// The journal takes the events the disk does not hold yet. Events
	// evicted before any snapshot saw them leave a gap between two files;
	// they lie below every later event_base, where no recovery looks.
	var first, next int64
	s.journal, first, next = s.log.appendRecordsSince(s.journal[:0], s.journaled)
	if first < next {
		if err := s.wal.Control().WriteJournal(first, s.journal); err != nil {
			return err
		}
		s.journaled = next
	}
	lap(snapJournal)
	engines, err := s.online.Snapshots()
	if err != nil {
		return err
	}
	lap(snapEngines)
	marks := s.wal.Marks()
	snap := serverSnapshot{
		Version:       snapshotVersion,
		Seq:           marks.Seq,
		ShardSeqs:     marks.ShardSeqs,
		NextG:         marks.NextG,
		Algo:          s.cfg.Algo,
		Mode:          s.cfg.Mode,
		Seed:          s.cfg.Seed,
		BatchInterval: s.cfg.BatchInterval,
		RoundBudget:   s.cfg.RoundBudget,
		Sites:         len(s.cfg.Sites),
		Manual:        s.cfg.Manual,
		RNGVersion:    s.cfg.Setup.RNGVersion,
		Tenants:       s.tenants.snapshot(),
		NextID:        s.nextID,
		Counters: counterSnapshot{
			Submitted:   s.submitted.Load(),
			Arrived:     s.arrived.Load(),
			Placed:      s.placed.Load(),
			Completed:   s.completed.Load(),
			Failures:    s.failures.Load(),
			Interrupted: s.interrupted.Load(),
		},
		EventBase: s.log.baseSeq(),
		EventNext: next,
	}
	if experiments.RunsGA(s.cfg.Algo) {
		snap.Population, snap.Generations, snap.Stall = s.cfg.Setup.Population, s.cfg.Setup.Generations, s.cfg.Setup.Stall
	}
	// The payload's two shapes: one engine says so with `engine` and no
	// shard count, as every unsharded daemon has written it.
	if len(engines) == 1 {
		snap.Engine = engines[0]
	} else {
		snap.Shards, snap.Engines = len(engines), engines
	}
	snap.Owners = s.owners.snapshot()
	if s.owners.retired {
		snap.RetentionHorizon = &s.owners.horizon
	}
	lap(snapRegistry)
	payload, err := json.Marshal(&snap)
	if err != nil {
		return err
	}
	lap(snapMarshal)
	file, err := s.wal.WriteSnapshot(payload)
	if err != nil {
		return err
	}
	lap(snapWrite)
	if keep := s.cfg.WALKeep; keep > 0 {
		// GC prunes against the oldest of the newest keep snapshots. Until
		// this process has written or recovered keep distinct ones, older
		// ones it never read are the fallback, and nothing is pruned.
		s.markSnapshot(snapMark{file, marks, snap.EventBase})
		if len(s.snapMarks) == keep {
			oldest := s.snapMarks[0]
			if err := s.wal.GC(oldest.file, oldest.marks, oldest.base); err != nil {
				return err
			}
			lap(snapGC)
		}
	}
	return nil
}

// walHousekeeping runs once per loop iteration: group-commit whatever
// the iteration appended (a no-op on clean logs) and snapshot when the
// cadence says so. An error is fatal to the loop — a daemon that cannot
// make its state durable must die loudly, not serve acknowledgements it
// cannot honor.
func (s *Server) walHousekeeping() error {
	if s.wal == nil {
		return nil
	}
	if s.walBroken != nil {
		return s.walBroken
	}
	if err := s.walCommit(); err != nil {
		return err
	}
	if s.wal.Uncovered() >= s.cfg.SnapshotEvery {
		if err := s.writeSnapshot(); err != nil {
			return err
		}
	}
	return nil
}

// walAppend buffers one record on the control log (wal.Control) or a
// shard's log; durability waits for walCommit. An append that fails
// breaks the log for good. Loop goroutine (or post-loop Stop) only.
func (s *Server) walAppend(shard int, rec wal.Record) error {
	if err := s.wal.Append(shard, rec); err != nil {
		s.walBroken = err
		return err
	}
	return nil
}

// walArrival logs one accepted arrival, stamped with the current clock
// — the clock the job is ingested at, in the same loop command — to the
// shard that owns its tenant.
func (s *Server) walArrival(j *grid.Job) error {
	if s.wal == nil {
		return nil
	}
	rec := api.NewTraceRecord(j)
	return s.walAppend(s.online.Owner(j.Tenant), wal.Record{Kind: wal.KindArrival, At: s.online.Now(), Arrival: &rec})
}

// walTenant logs one runtime tenant registration.
func (s *Server) walTenant(spec api.TenantSpec) error {
	if s.wal == nil {
		return nil
	}
	return s.walAppend(wal.Control, wal.Record{Kind: wal.KindTenant, At: s.online.Now(), Tenant: &spec})
}

// walBarrier logs one manual-mode clock barrier (an advance target, or
// a drain) — before the barrier executes, so a crash that lost the
// barrier also lost every event it would have produced. One engine
// needs none: its event order is recoverable from the records' clocks
// alone, and its log stays free of barriers.
func (s *Server) walBarrier(to float64, drain bool) error {
	if s.wal == nil || s.online.Shards() == 1 {
		return nil
	}
	return s.walAppend(wal.Control, wal.Record{
		Kind: wal.KindBarrier, At: s.online.Now(), Barrier: &wal.BarrierRecord{To: to, Drain: drain},
	})
}

// walCommit makes everything appended so far durable across the whole
// log set — the commit-before-acknowledge point of the submit, tenant
// and barrier paths. Loop goroutine only.
func (s *Server) walCommit() error {
	if s.wal == nil {
		return nil
	}
	if err := s.wal.Commit(); err != nil {
		s.walBroken = err
		return err
	}
	return nil
}
