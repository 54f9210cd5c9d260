package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"trustgrid/internal/api"
	"trustgrid/internal/grid"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
	"trustgrid/internal/wal"
)

// walLog keeps the Server struct readable next to the field named wal.
type walLog = wal.Log

// On-disk layout. An unsharded daemon keeps one flat log directly in
// WALDir — the format every daemon before sharding wrote, kept
// byte-compatible. A sharded daemon nests one directory per log under
// the same root: coord/ holds tenant registrations, clock barriers and
// the server snapshots; shard-NNNN/ holds shard N's churn prefix and
// arrivals. Records across the set are stitched into one total order
// by Record.G.
func coordDir(root string) string        { return filepath.Join(root, "coord") }
func shardDir(root string, i int) string { return filepath.Join(root, fmt.Sprintf("shard-%04d", i)) }

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
	// RNGVersion is part of the fingerprint: scheduler state evolved
	// under one draw contract cannot continue under another. Zero (every
	// snapshot from before the knob, and v1 configs) means version 1.
	RNGVersion int `json:"rng_version,omitempty"`

	Engine  *sched.EngineSnapshot `json:"engine,omitempty"`
	Tenants []tenantSnapshot      `json:"tenants"`

	// Sharded layout only: one engine snapshot per shard, the covered
	// sequence number of each shard log (Seq above covers the
	// coordinator log), and the global sequence counter at capture.
	Engines   []*sched.EngineSnapshot `json:"engines,omitempty"`
	ShardSeqs []uint64                `json:"shard_seqs,omitempty"`
	NextG     uint64                  `json:"next_g,omitempty"`

	NextID int64 `json:"next_id"`
	// Owners maps tenant → sorted accepted job IDs: the depends_on
	// validation registry, and in manual mode the explicit-ID dedupe.
	Owners map[string][]int `json:"owners,omitempty"`

	Counters counterSnapshot `json:"counters"`

	// The retained event window is [EventBase, EventNext). Every journal
	// file holding an event below EventNext was durable before this
	// snapshot was written (DESIGN.md §10.2).
	EventBase int64 `json:"event_base"`
	EventNext int64 `json:"event_next"`
}

// snapshotVersion is the serverSnapshot layout this binary reads and
// writes. 2 moved the retained events out of the payload into the event
// journal and dropped used_ids; version 1 payloads are refused, not
// converted.
const snapshotVersion = 2

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
	case normalizeRNGVersion(snap.RNGVersion) != normalizeRNGVersion(s.cfg.Setup.RNGVersion):
		return mismatch("rng-version",
			normalizeRNGVersion(snap.RNGVersion), normalizeRNGVersion(s.cfg.Setup.RNGVersion))
	}
	return nil
}

// normalizeRNGVersion folds the raw knob into its contract number so a
// pre-knob snapshot (0) restores under an explicit v1 config (1) and
// vice versa. Unknown values pass through raw — they were already
// rejected at boot, and mapping them onto a real version here would
// let a corrupt snapshot restore.
func normalizeRNGVersion(raw int) int {
	if v, err := rng.ParseVersion(raw); err == nil {
		return v.Num()
	}
	return raw
}

// recover opens the WAL set and rebuilds the daemon's state before the
// loop goroutine starts. Runs once, from New.
func (s *Server) recover(cc sched.CoordinatorConfig) error {
	if len(cc.Shards) == 1 {
		return s.recoverSingle(cc)
	}
	return s.recoverSharded(cc)
}

// newestSnapshot returns the newest snapshot beside l that recovery can
// start from, or nil. One that cannot be read or parsed, or that
// usable refuses — a payload of the wrong shape, or one claiming
// records the logs lost, is itself damage — falls through to the next;
// WALKeep > 1 exists for exactly that. A snapshot of another layout
// version or another configuration is an operator error, not
// corruption, and ends recovery.
func (s *Server) newestSnapshot(l *walLog, usable func(*serverSnapshot) bool) (*serverSnapshot, error) {
	refs, err := l.Snapshots()
	if err != nil {
		return nil, err
	}
	for _, ref := range refs {
		payload, err := wal.ReadSnapshot(ref)
		if err != nil {
			continue
		}
		var cand serverSnapshot
		if err := json.Unmarshal(payload, &cand); err != nil {
			continue
		}
		// The version says how to read the rest, so it is judged first.
		if cand.Version != snapshotVersion {
			age := "an older"
			if cand.Version > snapshotVersion {
				age = "a newer"
			}
			return nil, fmt.Errorf("snapshot %s has layout version %d, written by %s trustgridd; this one reads version %d only "+
				"(refusing to restore it: drain and stop the daemon with the binary that wrote it, or start on a fresh -wal-dir)",
				ref.Path, cand.Version, age, snapshotVersion)
		}
		if !usable(&cand) {
			continue
		}
		if err := s.checkFingerprint(&cand); err != nil {
			return nil, err
		}
		return &cand, nil
	}
	return nil, nil
}

// checkLogHead refuses a log that no longer starts where replay has to:
// GC removes the records a snapshot covers, so when that snapshot is
// gone or unreadable, replaying what is left would silently start the
// daemon from a partial history. covered is the last record the chosen
// snapshot holds, 0 without one.
func checkLogHead(dir string, l *walLog, covered uint64) error {
	if first := l.FirstSeq(); first > covered+1 {
		return fmt.Errorf("wal directory %s: the log starts at record %d, and no usable snapshot covers records %d to %d "+
			"(a snapshot was lost or damaged after the records it covered were garbage-collected; refusing to start from a partial history)",
			dir, first, covered+1, first-1)
	}
	return nil
}

// restoreFromSnapshot builds the engines and installs the server-side
// state a snapshot carries: tenant registry, event window, ID
// allocator, counters. A nil snap starts every one of them empty.
func (s *Server) restoreFromSnapshot(cc sched.CoordinatorConfig, snap *serverSnapshot) (err error) {
	if snap == nil {
		if s.online, err = sched.NewCoordinator(cc); err != nil {
			return err
		}
		return s.restoreEvents(0, 0)
	}
	engines := snap.Engines
	if snap.Engine != nil {
		engines = []*sched.EngineSnapshot{snap.Engine}
	}
	if s.online, err = sched.RestoreCoordinator(cc, engines); err != nil {
		return err
	}
	s.tenants.restore(snap.Tenants)
	s.nextID.Store(snap.NextID)
	for tenant, ids := range snap.Owners {
		for _, id := range ids {
			s.owners[id] = tenant
		}
	}
	s.submitted.Store(snap.Counters.Submitted)
	s.arrived.Store(snap.Counters.Arrived)
	s.placed.Store(snap.Counters.Placed)
	s.completed.Store(snap.Counters.Completed)
	s.failures.Store(snap.Counters.Failures)
	s.interrupted.Store(snap.Counters.Interrupted)
	s.markSnapshot(snap.Seq, snap.EventBase)
	return s.restoreEvents(snap.EventBase, snap.EventNext)
}

// snapMark is what journal pruning needs to know of one retained
// snapshot: its file (a later snapshot at the same seq — the sharded
// layout names files by the coordinator log's position, which arrivals
// do not move — replaces it) and its event_base.
type snapMark struct {
	seq  uint64
	base int64
}

// markSnapshot records a snapshot written or recovered from, keeping the
// newest WALKeep as GC does with the files.
func (s *Server) markSnapshot(seq uint64, base int64) {
	if n := len(s.snapMarks); n > 0 && s.snapMarks[n-1].seq == seq {
		s.snapMarks[n-1].base = base
		return
	}
	s.snapMarks = append(s.snapMarks, snapMark{seq, base})
	if keep := s.cfg.WALKeep; keep > 0 && len(s.snapMarks) > keep {
		s.snapMarks = s.snapMarks[len(s.snapMarks)-keep:]
	}
}

// restoreEvents rebuilds the retained event window [base, next) from
// the journal files beside the snapshot. Files starting at or past next
// were written for a snapshot recovery did not use; they go, and replay
// emits those events again. Of the rest, the window takes the longest
// run of events that ends at next-1 without a break: a missing file, a
// torn line or a sequence gap shortens the window — what a reader whose
// cursor was evicted sees — and never puts a wrong event in it.
func (s *Server) restoreEvents(base, next int64) error {
	refs, err := s.wal.Journals()
	if err != nil {
		return err
	}
	var run []WireEvent // consecutive events; the next one expected is runEnd
	runEnd := base
	for i, ref := range refs {
		if ref.First >= next {
			if err := s.wal.RemoveJournals(refs[i:]); err != nil {
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
			nl := bytes.IndexByte(data, '\n')
			var ev WireEvent
			if nl < 0 || api.ParseEvent(data[:nl], &ev) != nil || ev.Seq != runEnd {
				// Whatever followed the tear is lost, so nothing read so far
				// can reach next-1.
				run, runEnd = run[:0], -1
				break
			}
			run = append(run, ev)
			runEnd++
			data = data[nl+1:]
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
	s.loggedID = s.nextID.Load() // no handler has run yet: every claim is a logged one
}

// recoverSingle rebuilds an unsharded daemon from the flat log: the
// newest readable, fingerprint-compatible snapshot seeds the engine,
// the registry, the counters and the event log; the WAL tail past it is
// replayed in sequence order (tenants re-registered, arrivals
// re-ingested at their recorded times); and the recorded churn prefix
// is verified against the configured churn trace, which the engine
// re-derives from config. On a fresh directory it simply records the
// churn trace and starts clean.
func (s *Server) recoverSingle(cc sched.CoordinatorConfig) error {
	// A directory written by a sharded daemon nests its logs; starting an
	// unsharded daemon over it would silently begin a fresh history.
	if dirs, _ := filepath.Glob(filepath.Join(s.cfg.WALDir, "shard-*")); len(dirs) > 0 {
		return fmt.Errorf("wal directory was written under shards=%d, config has 1 (refusing to restore state across a config change)", len(dirs))
	}
	if _, err := os.Stat(coordDir(s.cfg.WALDir)); err == nil {
		return fmt.Errorf("wal directory was written by a sharded daemon, config has shards=1 (refusing to restore state across a config change)")
	}
	l, err := wal.Open(s.cfg.WALDir)
	if err != nil {
		return err
	}
	s.wal = l

	var churn []grid.ChurnEvent
	if s.cfg.Dynamics != nil {
		churn = s.cfg.Dynamics.Churn
	}

	snap, err := s.newestSnapshot(l, func(c *serverSnapshot) bool {
		return c.Engine != nil && c.Seq <= l.LastSeq()
	})
	if err != nil {
		return err
	}
	var snapSeq uint64
	if snap != nil {
		snapSeq = snap.Seq
	}
	if err := checkLogHead(s.cfg.WALDir, l, snapSeq); err != nil {
		return err
	}
	if err := s.restoreFromSnapshot(cc, snap); err != nil {
		return err
	}
	s.recsSinceSnap = int(l.LastSeq() - snapSeq)

	// One ordered pass over the surviving records: churn records (always
	// the log's first entries, written at first boot) are verified
	// against the configured trace, and everything past the snapshot is
	// replayed. Sequence order means a tenant registered at runtime is
	// back in the registry before its first replayed arrival needs it.
	err = l.Replay(0, func(rec wal.Record) error {
		if rec.Kind == wal.KindChurn {
			idx := int(rec.Seq) - 1
			if idx >= len(churn) || *rec.Churn != churn[idx] {
				return fmt.Errorf("churn record %d does not match the configured churn trace", rec.Seq)
			}
			return nil
		}
		if rec.Seq <= uint64(len(churn)) {
			return fmt.Errorf("record %d is %q where the configured churn trace expects churn (config has more churn events than were recorded)",
				rec.Seq, rec.Kind)
		}
		if rec.Seq <= snapSeq {
			return nil
		}
		return s.replayRecord(rec)
	})
	if err != nil {
		return err
	}

	// First boot (or a crash that interrupted this very step): record
	// the configured churn trace so the log is a self-contained input
	// set. Nothing else can be in the log here — any later record would
	// have tripped the position check above.
	if n := l.LastSeq(); n < uint64(len(churn)) {
		for _, ev := range churn[n:] {
			ev := ev
			if _, err := l.Append(wal.Record{Kind: wal.KindChurn, Churn: &ev}); err != nil {
				return err
			}
			s.recsSinceSnap++
		}
		if err := l.Commit(); err != nil {
			return err
		}
	}

	s.resumeAdmission()
	return nil
}

// replayRecord re-applies one post-snapshot record. The engine is first
// advanced to the clock the record was written under: that re-executes
// whatever engine events preceded the original append (batch rounds
// included), so a re-submitted job lands in the event queue in its
// original position — same arrival clamp, same tie order against a
// batch round at the same timestamp. Barrier records (sharded manual
// mode) re-execute the original fan-out advance or drain, reproducing
// the exact Δ-round window boundaries — and with them the merged event
// stream's total order.
func (s *Server) replayRecord(rec wal.Record) error {
	if rec.At > s.online.Now() {
		if err := s.online.AdvanceTo(rec.At); err != nil {
			return fmt.Errorf("advancing to record %d clock %v: %w", rec.Seq, rec.At, err)
		}
	}
	switch rec.Kind {
	case wal.KindTenant:
		// A duplicate means the operator promoted a runtime-created
		// tenant into the boot config (or the snapshot already carried
		// it); the existing registration wins.
		_ = s.tenants.register(*rec.Tenant)
		spec, _ := s.tenants.get(rec.Tenant.ID)
		s.online.SetTenantWeight(spec.ID, spec.Weight)
	case wal.KindBarrier:
		if rec.Barrier.Drain {
			if _, err := s.online.Drain(); err != nil {
				return fmt.Errorf("barrier record %d (drain): %w", rec.Seq, err)
			}
		} else if err := s.online.AdvanceTo(rec.Barrier.To); err != nil {
			return fmt.Errorf("barrier record %d (advance to %v): %w", rec.Seq, rec.Barrier.To, err)
		}
	case wal.KindArrival:
		tr := rec.Arrival
		if err := s.online.SubmitLocal(tr.Job()); err != nil {
			return fmt.Errorf("arrival record %d: %w", rec.Seq, err)
		}
		s.submitted.Add(1)
		s.tenants.addSubmitted(tr.Tenant, 1)
		// Rebuild the dependency-validation registry. Daemon recordings
		// always label ownership, but a hand-written single-tenant WAL may
		// omit the column — those jobs belong to the default tenant.
		owner := tr.Tenant
		if owner == "" {
			owner = api.DefaultTenant
		}
		s.owners[tr.ID] = owner
		if int64(tr.ID) > s.nextID.Load() {
			s.nextID.Store(int64(tr.ID))
		}
	}
	return nil
}

// taggedRecord is one surviving record of the sharded log set, tagged
// with the log it came from (-1 = coordinator).
type taggedRecord struct {
	rec   wal.Record
	shard int
}

// recoverSharded rebuilds a sharded daemon from the nested log set.
// Beyond what the flat path does, it must re-establish one total order
// across N+1 logs: every record carries a global sequence number G, and
// a crash between the per-log fsyncs of one group commit can persist a
// later record while losing an earlier one in a sibling log. Recovery
// therefore cuts the whole set back to the longest contiguous G-prefix
// past the snapshot watermark — physically, with TruncateTail, so the
// next boot sees a clean history — and replays the survivors in G
// order, re-executing barrier records as real fan-out advances.
func (s *Server) recoverSharded(cc sched.CoordinatorConfig) error {
	n := len(cc.Shards)
	root := s.cfg.WALDir

	// Layout guards: a flat single-engine log means shards=1 wrote this
	// directory; a different shard-directory count means another N did.
	if flat, _ := filepath.Glob(filepath.Join(root, "wal-*.log")); len(flat) > 0 {
		return fmt.Errorf("wal directory holds a single-engine log, config has shards=%d (refusing to restore state across a config change)", n)
	}
	if flatSnaps, _ := filepath.Glob(filepath.Join(root, "snap-*.json")); len(flatSnaps) > 0 {
		return fmt.Errorf("wal directory holds a single-engine snapshot, config has shards=%d (refusing to restore state across a config change)", n)
	}
	if dirs, _ := filepath.Glob(filepath.Join(root, "shard-*")); len(dirs) > 0 && len(dirs) != n {
		return fmt.Errorf("wal directory was written under shards=%d, config has %d (refusing to restore state across a config change)", len(dirs), n)
	}

	coord, err := wal.Open(coordDir(root))
	if err != nil {
		return err
	}
	s.wal = coord
	s.shardWALs = make([]*walLog, n)
	for i := range s.shardWALs {
		if s.shardWALs[i], err = wal.Open(shardDir(root, i)); err != nil {
			return err
		}
	}

	churnParts := make([][]grid.ChurnEvent, n)
	for i, sc := range cc.Shards {
		if sc.Dynamics != nil {
			churnParts[i] = sc.Dynamics.Churn
		}
	}

	// Collect every record that survived the per-log torn-tail cut, and
	// verify each log's structure as it streams past: churn lives at the
	// head of its shard's log and must match the configured (partitioned)
	// trace; the coordinator log never holds churn; every record carries
	// a G.
	var all []taggedRecord
	collect := func(l *walLog, shard int) error {
		name := "coord"
		if shard >= 0 {
			name = fmt.Sprintf("shard-%04d", shard)
		}
		return l.Replay(0, func(rec wal.Record) error {
			if rec.G == 0 {
				return fmt.Errorf("%s record %d has no global sequence number (refusing to restore state across a config change)", name, rec.Seq)
			}
			if rec.Kind == wal.KindChurn {
				if shard < 0 {
					return fmt.Errorf("coord record %d is churn (churn belongs to shard logs)", rec.Seq)
				}
				churn := churnParts[shard]
				idx := int(rec.Seq) - 1
				if idx >= len(churn) || *rec.Churn != churn[idx] {
					return fmt.Errorf("%s churn record %d does not match the configured churn trace", name, rec.Seq)
				}
			} else if shard >= 0 && rec.Seq <= uint64(len(churnParts[shard])) {
				return fmt.Errorf("%s record %d is %q where the configured churn trace expects churn (config has more churn events than were recorded)",
					name, rec.Seq, rec.Kind)
			}
			all = append(all, taggedRecord{rec, shard})
			return nil
		})
	}
	if err := collect(coord, -1); err != nil {
		return err
	}
	for i, l := range s.shardWALs {
		if err := collect(l, i); err != nil {
			return err
		}
	}

	// Newest usable snapshot (coordinator log only; shard directories
	// hold GC markers, not state). Coverage means every log still holds
	// everything up to its watermark.
	snap, err := s.newestSnapshot(coord, func(c *serverSnapshot) bool {
		if len(c.Engines) != c.Shards || len(c.ShardSeqs) != c.Shards || c.Seq > coord.LastSeq() {
			return false
		}
		for i, seq := range c.ShardSeqs {
			// A shard count other than n is the fingerprint's to refuse.
			if i < n && seq > s.shardWALs[i].LastSeq() {
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	var snapSeq, base uint64
	shardSeqs := make([]uint64, n)
	if snap != nil {
		snapSeq, base = snap.Seq, snap.NextG
		copy(shardSeqs, snap.ShardSeqs)
	}
	if err := checkLogHead(coordDir(root), coord, snapSeq); err != nil {
		return err
	}
	for i, l := range s.shardWALs {
		if err := checkLogHead(shardDir(root, i), l, shardSeqs[i]); err != nil {
			return err
		}
	}

	// Longest contiguous G-prefix past the snapshot watermark (records
	// at or below it may be partially garbage-collected, which is fine —
	// the snapshot already holds their effects). Everything beyond the
	// first gap was never acknowledged and must go.
	present := make(map[uint64]bool, len(all))
	for _, r := range all {
		if present[r.rec.G] {
			return fmt.Errorf("global sequence %d appears in two wal records", r.rec.G)
		}
		present[r.rec.G] = true
	}
	gstar := base
	for present[gstar+1] {
		gstar++
	}
	keep := make(map[int]uint64, n+1)
	keep[-1] = snapSeq
	for i, sq := range shardSeqs {
		keep[i] = sq
	}
	live := all[:0]
	for _, r := range all {
		if r.rec.G <= gstar {
			if r.rec.Seq > keep[r.shard] {
				keep[r.shard] = r.rec.Seq
			}
			live = append(live, r)
		}
	}
	if err := coord.TruncateTail(keep[-1]); err != nil {
		return err
	}
	for i, l := range s.shardWALs {
		if err := l.TruncateTail(keep[i]); err != nil {
			return err
		}
	}
	s.nextG = gstar

	if err := s.restoreFromSnapshot(cc, snap); err != nil {
		return err
	}
	s.recsSinceSnap = int(coord.LastSeq() - snapSeq)
	for i, l := range s.shardWALs {
		s.recsSinceSnap += int(l.LastSeq() - shardSeqs[i])
	}

	// Replay the survivors in global order — the exact order the loop
	// goroutine originally applied them in. Churn is skipped (the engines
	// re-derive it from config; the records were verified above), as is
	// everything a log's snapshot watermark covers.
	sort.Slice(live, func(i, k int) bool { return live[i].rec.G < live[k].rec.G })
	for _, r := range live {
		if r.rec.Kind == wal.KindChurn {
			continue
		}
		if r.shard < 0 {
			if r.rec.Seq <= snapSeq {
				continue
			}
		} else if r.rec.Seq <= shardSeqs[r.shard] {
			continue
		}
		if err := s.replayRecord(r.rec); err != nil {
			return err
		}
	}

	// First boot (or a crash that interrupted this very step): record
	// each shard's churn partition, shard by shard, so the log set is a
	// self-contained input set. The loop order makes the G assignment
	// reproducible across a crash mid-append: the surviving prefix ends
	// exactly where the re-appends resume.
	for i, l := range s.shardWALs {
		part := churnParts[i]
		if have := l.LastSeq(); have < uint64(len(part)) {
			for _, ev := range part[have:] {
				ev := ev
				s.nextG++
				if _, err := l.Append(wal.Record{Kind: wal.KindChurn, G: s.nextG, Churn: &ev}); err != nil {
					return err
				}
				s.recsSinceSnap++
			}
			if err := l.Commit(); err != nil {
				return err
			}
		}
	}

	s.resumeAdmission()
	return nil
}

// allWALs returns every open log — the flat log, or the coordinator log
// followed by the shard logs — for commit/rotate/close fan-out.
func (s *Server) allWALs() []*walLog {
	if s.wal == nil {
		return nil
	}
	out := make([]*walLog, 0, len(s.shardWALs)+1)
	out = append(out, s.wal)
	return append(out, s.shardWALs...)
}

// writeSnapshot persists the server state at the current WAL position —
// first the events emitted since the last snapshot, as one journal
// file, then the snapshot that counts on it — rotates the segments and
// garbage-collects what the retained snapshots cover. A live-mode
// engine with buffered arrivals, or with logged arrivals still in their
// handler's hands, skips the attempt (both drain by the next tick and
// the records are in the WAL either way): the engine snapshot would not
// hold those jobs and recovery skips the records a snapshot covers.
// Loop goroutine (or post-loop Stop) only.
func (s *Server) writeSnapshot() error {
	// uninjected first: a handler moves a job into the backlog before it
	// takes it off the count, so the job shows in one of the two reads.
	if s.uninjected.Load() != 0 || s.online.Backlog() != 0 {
		return nil
	}
	if err := s.walCommit(); err != nil {
		return err
	}
	engines, err := s.online.Snapshots()
	if err != nil {
		return err
	}
	snap := serverSnapshot{
		Version:       snapshotVersion,
		Seq:           s.wal.LastSeq(),
		Algo:          s.cfg.Algo,
		Mode:          s.cfg.Mode,
		Seed:          s.cfg.Seed,
		BatchInterval: s.cfg.BatchInterval,
		RoundBudget:   s.cfg.RoundBudget,
		Sites:         len(s.cfg.Sites),
		Manual:        s.cfg.Manual,
		RNGVersion:    s.cfg.Setup.RNGVersion,
		Tenants:       s.tenants.snapshot(),
		NextID:        s.loggedID,
		Counters: counterSnapshot{
			Submitted:   s.submitted.Load(),
			Arrived:     s.arrived.Load(),
			Placed:      s.placed.Load(),
			Completed:   s.completed.Load(),
			Failures:    s.failures.Load(),
			Interrupted: s.interrupted.Load(),
		},
	}
	if s.shardWALs == nil {
		snap.Engine = engines[0]
	} else {
		snap.Shards = len(s.shardWALs)
		snap.Engines = engines
		snap.ShardSeqs = make([]uint64, len(s.shardWALs))
		for i, l := range s.shardWALs {
			snap.ShardSeqs[i] = l.LastSeq()
		}
		snap.NextG = s.nextG
	}
	// The journal takes the events the disk does not hold yet. Events
	// evicted before any snapshot saw them leave a gap between two files;
	// they lie below every later event_base, where no recovery looks.
	fresh, next := s.log.ReadSince(s.journaled, 0, nil)
	if len(fresh) > 0 {
		lines := make([]byte, 0, 192*len(fresh))
		for i := range fresh {
			lines = appendEventLine(lines, &fresh[i])
		}
		if err := s.wal.WriteJournal(fresh[0].Seq, lines); err != nil {
			return err
		}
		s.journaled = next
	}
	snap.EventBase, snap.EventNext = s.log.baseSeq(), next
	// The registry as the log implies it: IDs claimed by a handler whose
	// arrival record is not appended yet are left out (see Server.pending).
	s.idMu.Lock()
	for id, tenant := range s.owners {
		if _, claimed := s.pending[id]; !claimed {
			if snap.Owners == nil {
				snap.Owners = make(map[string][]int)
			}
			snap.Owners[tenant] = append(snap.Owners[tenant], id)
		}
	}
	s.idMu.Unlock()
	for _, ids := range snap.Owners {
		sort.Ints(ids)
	}
	payload, err := json.Marshal(&snap)
	if err != nil {
		return err
	}
	if err := s.wal.WriteSnapshot(snap.Seq, payload); err != nil {
		return err
	}
	// Shard directories get tiny watermark markers — not state, just the
	// horizon their segment GC prunes against. Recovery ignores them.
	for i, l := range s.shardWALs {
		marker, err := json.Marshal(map[string]any{"shard": i, "seq": l.LastSeq()})
		if err != nil {
			return err
		}
		if err := l.WriteSnapshot(l.LastSeq(), marker); err != nil {
			return err
		}
	}
	for _, l := range s.allWALs() {
		if err := l.Rotate(); err != nil {
			return err
		}
	}
	if keep := s.cfg.WALKeep; keep > 0 {
		// The journal is pruned against the oldest snapshot GC keeps. Until
		// this process has written or recovered keep of them, older ones it
		// never read may still be on disk, and nothing is pruned.
		s.markSnapshot(snap.Seq, snap.EventBase)
		var horizon int64
		if len(s.snapMarks) == keep {
			horizon = s.snapMarks[0].base
		}
		if err := s.wal.GC(keep, horizon); err != nil {
			return err
		}
		for _, l := range s.shardWALs {
			if err := l.GC(keep, 0); err != nil {
				return err
			}
		}
	}
	s.recsSinceSnap = 0
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
	if s.recsSinceSnap >= s.cfg.SnapshotEvery {
		if err := s.writeSnapshot(); err != nil {
			return err
		}
	}
	return nil
}

// walArrival appends one accepted arrival stamped with the clock it was
// ingested under (at) — to the flat log, or to the owning tenant's
// shard log with the next global sequence number. Loop goroutine only;
// durability waits for walCommit.
func (s *Server) walArrival(j *grid.Job, at float64) error {
	if s.wal == nil {
		return nil
	}
	rec := wal.Record{Kind: wal.KindArrival, At: at, Arrival: &api.TraceRecord{
		ID: j.ID, Arrival: j.Arrival, Workload: j.Workload, Nodes: j.Nodes,
		SD: j.SecurityDemand, Tenant: j.Tenant, SafeOnly: j.SafeOnly,
		DependsOn: j.DependsOn, Deadline: j.Deadline, Budget: j.Budget,
	}}
	l := s.wal
	if s.shardWALs != nil {
		l = s.shardWALs[s.online.Owner(j.Tenant)]
		rec.G = s.nextG + 1
	}
	if _, err := l.Append(rec); err != nil {
		s.walBroken = err
		return err
	}
	if s.shardWALs != nil {
		s.nextG++
	}
	s.recsSinceSnap++
	// Logged: the claim on this ID now belongs to the snapshotted registry.
	s.idMu.Lock()
	delete(s.pending, j.ID)
	s.idMu.Unlock()
	if int64(j.ID) > s.loggedID {
		s.loggedID = int64(j.ID)
	}
	return nil
}

// walTenant appends one runtime tenant registration to the flat or
// coordinator log. Loop goroutine only.
func (s *Server) walTenant(spec api.TenantSpec) error {
	if s.wal == nil {
		return nil
	}
	rec := wal.Record{Kind: wal.KindTenant, At: s.online.Now(), Tenant: &spec}
	if s.shardWALs != nil {
		rec.G = s.nextG + 1
	}
	if _, err := s.wal.Append(rec); err != nil {
		s.walBroken = err
		return err
	}
	if s.shardWALs != nil {
		s.nextG++
	}
	s.recsSinceSnap++
	return nil
}

// walBarrier appends one manual-mode clock barrier (an advance target,
// or a drain) to the coordinator log — before the barrier executes, so
// a crash that lost the barrier also lost every event it would have
// produced. Single-shard and live-mode daemons keep their logs free of
// barriers: their event order is recoverable without them. Loop
// goroutine (or post-loop Stop) only.
func (s *Server) walBarrier(to float64, drain bool) error {
	if s.wal == nil || s.shardWALs == nil {
		return nil
	}
	rec := wal.Record{
		Kind: wal.KindBarrier, At: s.online.Now(), G: s.nextG + 1,
		Barrier: &wal.BarrierRecord{To: to, Drain: drain},
	}
	if _, err := s.wal.Append(rec); err != nil {
		s.walBroken = err
		return err
	}
	s.nextG++
	s.recsSinceSnap++
	return nil
}

// walCommit makes everything appended so far durable across the whole
// log set — the commit-before-acknowledge point of the submit, tenant
// and barrier paths. Clean logs skip their fsync, so the fan-out costs
// one fsync per log actually written this round. Loop goroutine only.
func (s *Server) walCommit() error {
	if s.wal == nil {
		return nil
	}
	for _, l := range s.allWALs() {
		if err := l.Commit(); err != nil {
			s.walBroken = err
			return err
		}
	}
	return nil
}
