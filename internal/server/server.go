package server

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"trustgrid/internal/api"
	"trustgrid/internal/experiments"
	"trustgrid/internal/fleet"
	"trustgrid/internal/grid"
	"trustgrid/internal/obs"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
	"trustgrid/internal/wal"
)

// Config describes one trustgridd instance.
type Config struct {
	// Sites is the platform the daemon schedules onto.
	Sites []*grid.Site
	// Training warms the STGA history table before serving (nil = cold).
	Training []*grid.Job

	// Algo names the scheduler (experiments.SchedulerNames). Default
	// "minmin".
	Algo string
	// Mode is the heuristics' admission rule: secure, risky or frisky
	// (default). The STGA always runs f-risky at Setup.F, as in the paper.
	Mode string
	// BatchInterval is Δ, the virtual seconds between scheduling rounds.
	// Zero defaults to Setup.PSABatch.
	BatchInterval float64
	// Seed roots every stochastic decision the daemon makes (scheduler
	// randomness and Eq. 1 failure sampling) via labelled substreams —
	// the same "scheduler"/"engine" labels the batch experiments use, so
	// a recorded trace replays identically through sched.Run.
	Seed uint64
	// Setup supplies the GA sizes, λ, f and training batch size. Zero
	// fields are filled from experiments.DefaultSetup individually, so a
	// partially specified Setup keeps what the caller did set.
	Setup experiments.Setup

	// Tick is the wall-clock duration of one batch interval in live
	// mode (default 100ms): every Tick the virtual clock advances by
	// BatchInterval and a scheduling round fires.
	Tick time.Duration
	// Manual disables the wall ticker: clients stamp arrivals themselves
	// and drive the clock through /v1/advance and /v1/drain. This is the
	// deterministic trace-replay mode.
	Manual bool

	// Shards splits the engine into N shards behind an in-process
	// coordinator (DESIGN.md §11): sites are partitioned round-robin,
	// tenants are routed to shards by a stable hash of their id, and
	// every clock advance fans out to all shards as a shared Δ-round
	// barrier whose merged event stream carries one total order (time,
	// then shard index). 0 or 1 runs the single unsharded engine,
	// bit-identical to the daemon before sharding existed. Requires
	// len(Sites) >= Shards; durable mode keeps one WAL segment stream
	// per shard under WALDir.
	Shards int

	// Workers, when non-empty, runs the coordinator over out-of-process
	// shards instead of in-process engines (DESIGN.md §12): each address
	// is one trustgrid-worker hosting one shard behind the fleet
	// protocol, attached in list order (worker i is shard i, so the list
	// order IS the partition assignment and must be stable across
	// daemon restarts). The shard count follows the list; Shards > 1 is
	// rejected as conflicting, and WALDir is rejected because durability
	// is worker-owned — each worker write-ahead-logs its own inputs and
	// recovers itself. A fleet of N workers is byte-identical to
	// -shards N: both sides build their engines from the same
	// fleet.Spec derivation.
	Workers []string

	// Tenants pre-registers tenants at startup (the default tenant that
	// backs the /v1 shim always exists and need not be listed). More can
	// be registered at runtime through POST /v2/tenants; for replayable
	// runs, register everything before traffic (DESIGN.md §9.4).
	Tenants []api.TenantSpec
	// RoundBudget caps how many jobs one Δ-round may admit; when the
	// backlog exceeds it, jobs enter the round in weighted
	// deficit-round-robin order by tenant (DESIGN.md §9.2). 0 keeps the
	// original drain-everything behavior.
	RoundBudget int

	// EventBuffer bounds the retained event log (0 = 65536 events);
	// older events are evicted and slow readers restart at the oldest.
	EventBuffer int

	// Dynamics, when non-nil, runs the daemon on a dynamic grid: a
	// deterministic site-churn trace, optional ground-truth security
	// divergence and optional online reputation feedback (DESIGN.md §7).
	// Replay determinism is preserved: the churn trace is part of the
	// run's input, so (arrival trace, churn trace, seed) reproduces every
	// placement through the batch simulator.
	Dynamics *sched.DynamicsConfig

	// TraceWriter, when non-nil, receives one JSON line per accepted
	// arrival — the replay artifact of the determinism contract.
	TraceWriter io.Writer

	// WALDir, when non-empty, makes the daemon's state durable: every
	// accepted arrival, runtime tenant registration and configured churn
	// event is written to a write-ahead log in this directory, periodic
	// engine snapshots bound replay time, and New recovers (newest
	// readable snapshot + WAL tail replay) before serving (DESIGN.md
	// §10). Empty keeps the daemon in-memory only.
	WALDir string
	// SnapshotEvery is the snapshot cadence in WAL records (default
	// 4096): after that many appends, the next loop iteration persists a
	// full snapshot, rotates the segment and garbage-collects.
	SnapshotEvery int
	// WALKeep is how many snapshots GC retains (default 2, so recovery
	// survives the newest one being unreadable). -1 disables GC
	// entirely, keeping every record ever logged — the full-history mode
	// the crash-point parity tests rely on.
	WALKeep int
}

func (c *Config) fillDefaults() {
	if c.Algo == "" {
		c.Algo = "minmin"
	}
	if c.Mode == "" {
		c.Mode = "frisky"
	}
	// Fill Setup field by field so a caller's partial Setup (say, a
	// custom F with default GA sizes) is never silently discarded.
	d := experiments.DefaultSetup()
	if c.Setup.Population == 0 {
		c.Setup.Population = d.Population
	}
	if c.Setup.Generations == 0 {
		c.Setup.Generations = d.Generations
	}
	if c.Setup.HistorySize == 0 {
		c.Setup.HistorySize = d.HistorySize
	}
	if c.Setup.SimThreshold == 0 {
		c.Setup.SimThreshold = d.SimThreshold
	}
	if c.Setup.TrainBatchSize == 0 {
		c.Setup.TrainBatchSize = d.TrainBatchSize
	}
	if c.Setup.Lambda == 0 {
		// λ = 0 would disable Eq. 1 failures entirely; the engine itself
		// substitutes the default in that case, so mirror it here.
		c.Setup.Lambda = d.Lambda
	}
	// Setup.F is honored as-is: f = 0 is a legitimate operating point
	// (an f-risky threshold of zero admits only strictly safe sites),
	// so it must not be "defaulted" away — gridsched -f 0 and
	// trustgridd -f 0 have to agree.
	if c.Setup.PSABatch == 0 {
		c.Setup.PSABatch = d.PSABatch
	}
	// The one place the draw contract is decided: every snapshot and
	// worker spec.json then names 2, so a restore can tell it from state
	// written under the removed v1, which recorded 0 or 1.
	if c.Setup.RNGVersion == 0 {
		c.Setup.RNGVersion = int(rng.V2)
	}
	if c.BatchInterval <= 0 {
		c.BatchInterval = c.Setup.PSABatch
	}
	if c.Tick <= 0 {
		c.Tick = 100 * time.Millisecond
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 4096
	}
	if c.WALKeep == 0 {
		c.WALKeep = 2
	}
}

// Server is a running trusted-scheduling service instance. Create with
// New, expose Handler over HTTP, stop with Stop.
type Server struct {
	cfg     Config
	online  *sched.Coordinator
	algo    string // the scheduler's display name (/v2/metrics)
	log     *eventLog
	lat     *latencyTracker
	tenants *tenantRegistry

	// remotes holds the fleet connections in shard order (empty when the
	// shards are in-process). The coordinator drives them through the
	// sched.Shard seam; this slice exists for lifecycle (Stop closes
	// them) and reporting (addr/down in /v2/metrics).
	remotes []*fleet.RemoteShard

	// Durable-state machinery (nil/zero without Config.WALDir). All
	// fields are owned by the loop goroutine while the loop runs; Stop
	// takes ownership after it exits, exactly like the engine. wal is the
	// durable input set under WALDir — one flat log for one engine, a
	// coordinator log plus one log per shard otherwise; which of the two
	// is the set's business, nothing here asks. walBroken is the append
	// or commit error that ended logging, and arrival the payload of the
	// arrival record being appended, kept here so that it is not a heap
	// object per job.
	wal       *wal.Set
	walBroken error
	arrival   api.TraceRecord
	// journaled is the first event sequence number the event journal does
	// not hold yet; writeSnapshot flushes [journaled, next) as one file,
	// encoded into journal, a buffer kept across snapshots. snapMarks
	// lists the snapshots GC still retains, oldest first, as far as this
	// process knows them — once it knows WALKeep, the logs and the
	// journal are pruned against the oldest one's marks and event_base.
	// snapPhases times each
	// snapshot's steps for /metrics.prom.
	journaled  int64
	journal    []byte
	snapMarks  []snapMark
	snapPhases [numSnapshotPhases]obs.Histogram
	// walSyncs reads the set's fsync counts for /metrics.prom; unlike wal
	// it outlives Stop and is safe from any goroutine.
	walSyncs func() (file, dir uint64)
	// recovery is the wall time of each phase of the boot's recovery,
	// written by New before the loop starts and read-only after.
	recovery [numRecoveryPhases]time.Duration

	cmds     chan func()
	quit     chan struct{}
	loopDone chan struct{}
	loopErr  atomic.Value // error
	stopMu   sync.Mutex
	stopOnce sync.Once

	// nextID is the largest job ID accepted so far, and owners the
	// job-ID registry above the retention horizon (jobOwners): the
	// registry depends_on validation resolves against (a dependency must
	// name an accepted job of the same tenant, which also keeps a DAG
	// inside one shard under tenant routing), and manual mode's
	// explicit-ID dedupe. IDs are claimed in the loop command that logs
	// and ingests their jobs, so both are exactly what the log implies;
	// snapshots persist them and recovery rebuilds them from WAL
	// arrivals. Loop goroutine only.
	nextID int64
	owners jobOwners
	// explicit is claimIDs' scratch: a request's explicit IDs with their
	// spec indexes, sorted to find the duplicates within it.
	explicit [][2]int

	submitted   atomic.Int64 // accepted by the HTTP layer
	arrived     atomic.Int64 // ingested by the engine
	placed      atomic.Int64 // placement events (retries included)
	completed   atomic.Int64
	failures    atomic.Int64 // failed execution attempts
	interrupted atomic.Int64 // attempts cut short by site crashes
	started     time.Time
}

// New builds the service and starts its loop goroutine.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	n := cfg.Shards
	if len(cfg.Workers) > 0 {
		if cfg.WALDir != "" {
			return nil, fmt.Errorf("server: Workers and WALDir are mutually exclusive — each worker owns its shard's WAL and recovers itself")
		}
		if cfg.Shards > 1 && cfg.Shards != len(cfg.Workers) {
			return nil, fmt.Errorf("server: Shards=%d conflicts with %d workers (the shard count follows the worker list)", cfg.Shards, len(cfg.Workers))
		}
		n = len(cfg.Workers)
	}

	s := &Server{
		cfg:      cfg,
		log:      newEventLog(cfg.EventBuffer),
		lat:      newLatencyTracker(0, n),
		tenants:  newTenantRegistry(),
		cmds:     make(chan func()),
		quit:     make(chan struct{}),
		loopDone: make(chan struct{}),
		started:  time.Now(),
	}
	// Pre-registered tenants seed both the registry and the engines'
	// fair-share weight vector (the default tenant is implicit). One
	// shared weight map is safe: each shard's admission state deep-copies
	// it at construction.
	weights := map[string]float64{api.DefaultTenant: 1}
	for _, t := range cfg.Tenants {
		if err := s.tenants.register(t); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		norm, _ := s.tenants.get(t.ID)
		weights[norm.ID] = norm.Weight
	}
	// One spec describes the whole sharded run: partition, per-shard RNG
	// labels, admission state, churn slices. In-process shards and fleet
	// workers both derive their engine configs from it through the SAME
	// fleet.Spec.ShardConfig path, so an N-worker fleet is byte-identical
	// to -shards N by construction rather than by double-maintenance.
	// With one shard the RNG labels collapse to the historical
	// "scheduler"/"engine" (ShardRNGLabel), so -shards 1 reproduces the
	// unsharded daemon bit for bit — TestTraceReplayParity pins that.
	spec := &fleet.Spec{
		Sites: cfg.Sites, Training: cfg.Training,
		Algo: cfg.Algo, Mode: cfg.Mode,
		BatchInterval: cfg.BatchInterval, Seed: cfg.Seed, Setup: cfg.Setup,
		Shards: n, RoundBudget: cfg.RoundBudget, Weights: weights,
		Dynamics: cfg.Dynamics,
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	policy, _ := cfg.Setup.PolicyByMode(cfg.Mode) // Validate parsed it
	var err error
	if s.algo, err = experiments.SchedulerLabel(cfg.Algo, policy); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if err = s.attach(spec); err != nil {
		s.closeRemotes()
		s.closeWAL()
		return nil, err
	}
	go s.loop()
	return s, nil
}

// attach builds the shards, wires the coordinator to them and, with a
// WAL, replays what recovery found past its snapshot.
func (s *Server) attach(spec *fleet.Spec) (err error) {
	lapStart := time.Now()
	lap := func(p recoveryPhase) {
		now := time.Now()
		s.recovery[p], lapStart = now.Sub(lapStart), now
	}
	var snap *serverSnapshot
	var tail []wal.Record
	if s.cfg.WALDir != "" {
		if snap, tail, err = s.recover(spec, lap); err != nil {
			return fmt.Errorf("server: recovery: %w", err)
		}
	}
	shards := make([]sched.Shard, spec.Shards)
	for i := range shards {
		if shards[i], err = s.newShard(spec, i, snap); err != nil {
			return err
		}
	}
	if s.online, err = sched.AttachCoordinator(spec.Parts(), shards, s.onEvent); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if s.cfg.WALDir == "" {
		return nil
	}
	if err := s.restoreFromSnapshot(snap); err != nil {
		return fmt.Errorf("server: recovery: %w", err)
	}
	lap(recoverRestore)
	// Recorded order means a tenant registered at runtime is back in the
	// registry before its first replayed arrival needs it.
	for _, rec := range tail {
		if err := s.replayRecord(rec); err != nil {
			return fmt.Errorf("server: recovery: %w", err)
		}
	}
	// The horizon moves once, over the recovered state, never between
	// replayed records: a record of a submission may carry an ID below
	// what the completions replayed before it would allow, since the
	// submission was judged against the horizon of the one before.
	s.owners.retire()
	s.resumeAdmission()
	lap(recoverReplay)
	return nil
}

// newShard builds shard i of spec. Only the transport varies: a fleet
// worker dialled with the spec, or an in-process engine built from
// spec.ShardConfig, restored from its engine snapshot when recovery
// found a snapshot.
func (s *Server) newShard(spec *fleet.Spec, i int, snap *serverSnapshot) (sched.Shard, error) {
	if len(s.cfg.Workers) > 0 {
		rs, err := fleet.Dial(s.cfg.Workers[i], spec, i, fleet.DialConfig{})
		if err != nil {
			return nil, fmt.Errorf("server: attaching worker %s as shard %d: %w", s.cfg.Workers[i], i, err)
		}
		s.remotes = append(s.remotes, rs)
		return rs, nil
	}
	sc, err := spec.ShardConfig(i, false)
	var o *sched.Online
	if err == nil && snap == nil {
		o, err = sched.NewOnline(sc)
	} else if err == nil {
		o, err = sched.RestoreOnline(sc, snap.engines()[i])
	}
	if err != nil {
		return nil, fmt.Errorf("server: shard %d: %w", i, err)
	}
	return o, nil
}

// closeRemotes tears down the fleet connections (no-op in-process).
func (s *Server) closeRemotes() {
	for _, rs := range s.remotes {
		rs.Close()
	}
}

// loop is the single goroutine that owns the engine, the scheduler and
// the virtual clock. Live mode advances the clock on a wall ticker;
// manual mode only executes client commands.
func (s *Server) loop() {
	defer close(s.loopDone)
	var tickC <-chan time.Time
	if !s.cfg.Manual {
		ticker := time.NewTicker(s.cfg.Tick)
		defer ticker.Stop()
		tickC = ticker.C
	}
	for {
		select {
		case <-s.quit:
			return
		case <-tickC:
			if err := s.online.AdvanceTo(s.online.Now() + s.cfg.BatchInterval); err != nil {
				// The engine aborted (e.g. a total outage with no rejoin
				// pending): its queued jobs will never place, so settle
				// their latency entries and quota slots before the loop
				// dies — the daemon may keep serving /metrics for a while.
				s.sweepUnplaced()
				s.loopErr.Store(err)
				return
			}
		case fn := <-s.cmds:
			fn()
		}
		// Group commit + periodic snapshot. Running it after every
		// iteration costs nothing when the log is clean, and means a
		// durability failure kills the loop (the daemon dies loudly)
		// rather than silently dropping records.
		if err := s.walHousekeeping(); err != nil {
			s.loopErr.Store(err)
			return
		}
	}
}

// do executes fn on the loop goroutine and waits for it. ctx is
// honored only until the command is enqueued: once the loop has the
// command it WILL run, so returning early on a cancelled request would
// report failure for side effects that still happen (a replay client
// would retry an already-ingested batch into duplicate-ID rejections).
// The enqueue waits out the loop iteration in progress (in live mode
// a Δ-round, which may outlast a tick); after it the wait is fn's own
// run. Loop death unblocks both.
func (s *Server) do(ctx context.Context, fn func()) error {
	done := make(chan struct{})
	select {
	case s.cmds <- func() { fn(); close(done) }:
	case <-s.loopDone:
		return s.stoppedErr()
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-done:
		return nil
	case <-s.loopDone:
		return s.stoppedErr()
	}
}

func (s *Server) stoppedErr() error {
	if err, ok := s.loopErr.Load().(error); ok {
		return fmt.Errorf("server: scheduling loop failed: %w", err)
	}
	return fmt.Errorf("server: stopped")
}

// Done is closed when the scheduling loop exits — after Stop, or on
// its own if the engine fails. The daemon watches it so a dead loop
// does not leave a zombie process serving 503s.
func (s *Server) Done() <-chan struct{} { return s.loopDone }

// claimIDs allocates IDs for one whole submission and records tenant as
// their owner, atomically: either every spec gets its ID or none is
// burned. Live mode always server-assigns; manual mode honors explicit
// IDs but refuses one at or below the retention horizon, and duplicates
// — against earlier requests AND within this one — before recording
// anything, so a refused request leaves no claimed IDs behind (a
// replayed trace must round-trip even after a failed retry).
// Auto-assigned IDs stay clear of explicit ones. Loop goroutine only.
func (s *Server) claimIDs(specs []JobSpec, tenant string) ([]int, error) {
	ids := make([]int, len(specs))
	if !s.cfg.Manual {
		for i := range specs {
			s.nextID++
			ids[i] = int(s.nextID)
			s.owners.add(ids[i], tenant)
		}
		return ids, nil
	}
	// Until the commit below, ids[i] holds the first earlier spec that
	// names spec i's explicit ID, or -1: the (id, index) pairs sorted,
	// each group's first index is the one its other members repeat.
	pairs := s.explicit[:0]
	for i, spec := range specs {
		ids[i] = -1
		if spec.ID != nil {
			pairs = append(pairs, [2]int{*spec.ID, i})
		}
	}
	slices.SortFunc(pairs, func(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	first := -1
	for k, p := range pairs {
		if k == 0 || p[0] != pairs[k-1][0] {
			first = p[1]
		} else {
			ids[p[1]] = first
		}
	}
	s.explicit = pairs[:0]
	for i, spec := range specs {
		if spec.ID == nil {
			continue
		}
		id := *spec.ID
		if s.owners.belowHorizon(id) {
			return nil, fmt.Errorf("job %d: id %d is at or below the retention horizon %d", i, id, s.owners.horizon)
		}
		if s.owners.has(id) {
			return nil, fmt.Errorf("job %d: duplicate job id %d", i, id)
		}
		if k := ids[i]; k >= 0 {
			return nil, fmt.Errorf("job %d: duplicate job id %d (also job %d in this request)", i, id, k)
		}
	}
	// All clear: commit. Nothing past this point can fail.
	for i, spec := range specs {
		if spec.ID == nil {
			continue
		}
		ids[i] = *spec.ID
		s.nextID = max(s.nextID, int64(ids[i]))
	}
	for i, spec := range specs {
		if spec.ID != nil {
			continue
		}
		for {
			s.nextID++
			if id := int(s.nextID); !s.owners.has(id) {
				ids[i] = id
				break
			}
		}
	}
	for _, id := range ids {
		s.owners.add(id, tenant)
	}
	return ids, nil
}

// resolveDeps checks jobs' dependencies against the registry, before any
// ID is claimed: each must name an earlier explicit ID of the same
// request (never a later one — the trace is an arrival order, and
// forward refs would make it unreplayable) or an accepted job of the
// same tenant. One at or below the retention horizon has completed, so
// it is satisfied and dropped from the job, which is logged without it.
// Loop goroutine only.
func (s *Server) resolveDeps(specs []JobSpec, jobs []*grid.Job, tenant string) error {
	if !slices.ContainsFunc(jobs, func(j *grid.Job) bool { return len(j.DependsOn) > 0 }) {
		return nil
	}
	var prior map[int]bool // explicit IDs of earlier specs
	for i, js := range specs {
		if deps := jobs[i].DependsOn; len(deps) > 0 {
			kept := deps[:0]
			for _, d := range deps {
				switch owner, known := s.owners.owner(d); {
				case prior[d] || known && owner == tenant:
					kept = append(kept, d)
				case s.owners.belowHorizon(d):
				default:
					// Deliberately the same wording for another tenant's job as
					// for an unknown one: tenants must not be able to probe other
					// tenants' job IDs through dependency errors.
					return fmt.Errorf("job %d: depends on unknown job %d (dependencies must name an accepted job or an earlier explicit id in this request)", i, d)
				}
			}
			if len(kept) == 0 {
				kept = nil
			}
			jobs[i].DependsOn = kept
		}
		if js.ID != nil {
			if prior == nil {
				prior = make(map[int]bool)
			}
			prior[*js.ID] = true
		}
	}
	return nil
}

func (s *Server) stopped() bool {
	select {
	case <-s.loopDone:
		return true
	default:
		return false
	}
}

// onEvent runs on the loop goroutine for every engine transition: it
// maintains the counters, feeds the latency tracker and the arrival
// trace, and appends to the streamable event log.
func (s *Server) onEvent(ev *sched.EngineEvent) {
	switch ev.Kind {
	case sched.EventArrived:
		s.arrived.Add(1)
		if s.cfg.TraceWriter != nil {
			// Recording errors must not break scheduling; the writer's
			// owner (cmd/trustgridd) reports them at close time.
			_ = WriteTraceRecord(s.cfg.TraceWriter, api.NewTraceRecord(&ev.Job))
		}
	case sched.EventPlaced:
		s.placed.Add(1)
		_, first := s.lat.placedNow(ev.Job.ID)
		s.tenants.event(ev.Job.Tenant, "placed", first)
	case sched.EventFailed:
		s.failures.Add(1)
		s.tenants.event(ev.Job.Tenant, "failed", false)
	case sched.EventCompleted:
		s.completed.Add(1)
		s.owners.complete(ev.Job.ID)
		s.tenants.event(ev.Job.Tenant, "completed", false)
	case sched.EventInterrupted:
		s.interrupted.Add(1)
	}
	var w WireEvent
	wireFromEngine(ev, &w)
	s.log.Append(&w)
}

// sweepUnplaced reconciles the latency tracker and the tenant quota
// gate with the engine's accepted-but-never-placed set. Placements
// resolve pending entries as they happen; jobs that end a run without
// ever placing (unplaceable MustBeSafe work at drain, everything
// queued when a total outage aborts the engine) resolve nowhere, so
// without this sweep their pending entries — and the queued-quota
// slots those entries pin — would leak for the life of the daemon.
// Loop goroutine only (or its successor after the loop has exited).
// Idempotent: abandon deletes the entry it releases, so a job is
// released at most once no matter how many sweeps see it.
func (s *Server) sweepUnplaced() {
	for _, j := range s.online.NeverPlaced() {
		if tenant, ok := s.lat.abandon(j.ID); ok {
			// Per-entry release (not setQueued): a concurrent handler may
			// hold fresh reservations this sweep must not clobber.
			s.tenants.release(tenant, 1)
		}
	}
}

// Stop shuts the loop down. With drain set, every job already accepted
// is scheduled to completion first (virtual time, so this is fast) and
// the final aggregated result is returned; without it, in-flight jobs
// are abandoned. Safe to call more than once (calls serialize).
func (s *Server) Stop(drain bool) (*sched.Result, error) {
	s.stopMu.Lock()
	defer s.stopMu.Unlock()
	s.stopOnce.Do(func() { close(s.quit) })
	<-s.loopDone
	defer s.closeRemotes()
	if err, ok := s.loopErr.Load().(error); ok {
		s.closeWAL()
		return nil, err
	}
	if !drain {
		// Clean shutdown still commits the tail and leaves a fresh
		// snapshot when one is possible.
		s.finalSnapshot()
		return nil, s.closeWAL()
	}
	// The loop has exited, so the Stop caller is the engine's owner now.
	// A sharded manual-mode daemon logs the drain barrier first, exactly
	// like the /v2/drain handler: the drain moves every shard's window
	// boundary, and recovery must re-execute it to reproduce the merged
	// order (single-shard and live-mode daemons no-op here).
	if s.cfg.Manual {
		_ = s.walBarrier(0, true)
	}
	res, err := s.online.Drain()
	// Whether the drain succeeded or aborted, anything still never
	// placed is now permanently unplaceable: settle its tracker entries
	// and quota slots (the loop has exited, so this caller owns the
	// engine).
	s.sweepUnplaced()
	if err != nil {
		s.closeWAL()
		return nil, err
	}
	s.finalSnapshot()
	return res, s.closeWAL()
}

// finalSnapshot writes a shutdown snapshot on a best-effort basis: a
// failure here only means the next boot replays more WAL tail.
func (s *Server) finalSnapshot() {
	if s.wal == nil || s.walBroken != nil {
		return
	}
	_ = s.writeSnapshot()
}

func (s *Server) closeWAL() error {
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}
