package sched

import (
	"fmt"
	"math"
	"time"

	"trustgrid/internal/dag"
	"trustgrid/internal/grid"
	"trustgrid/internal/metrics"
	"trustgrid/internal/obs"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched/kernel"
)

// FailureTiming selects when a sampled failure manifests during an
// execution attempt (the paper does not specify; DESIGN.md §2.1).
type FailureTiming int

const (
	// FailUniform detects the failure at a uniform fraction of the
	// attempt's execution time (default).
	FailUniform FailureTiming = iota
	// FailAtEnd detects the failure only when the attempt would have
	// completed, wasting the full execution time.
	FailAtEnd
)

// RunConfig describes one complete simulation.
type RunConfig struct {
	Jobs      []*grid.Job  // workload; the engine clones it, callers keep theirs
	Sites     []*grid.Site // platform
	Scheduler Scheduler    // algorithm under test
	// BatchInterval Δ: the periodic scheduling period of the Fig. 1
	// model. The queue is drained every Δ seconds.
	BatchInterval float64
	// Security is the Eq. 1 failure law. A zero value (λ = 0, which
	// would disable failures entirely) is replaced by the default λ.
	Security grid.SecurityModel
	// FailureTiming selects the failure-detection model.
	FailureTiming FailureTiming
	// Rand drives failure sampling; derive a dedicated stream.
	Rand *rng.Stream
	// OnEvent, when non-nil, receives every job lifecycle transition
	// (arrival, placement, failure, completion) synchronously on the
	// goroutine driving the simulation. Handlers must not call back into
	// the engine. See EngineEvent.
	OnEvent func(EngineEvent)
	// DiscardRecords disables per-job record retention: the engine
	// accumulates the §4.1 summary incrementally instead, so memory
	// stays bounded by in-flight jobs rather than total jobs served —
	// what an indefinitely running service needs. Result().Records is
	// empty; per-job data is still observable through OnEvent.
	DiscardRecords bool
	// Dynamics, when non-nil, enables the dynamic-grid extension: site
	// churn, ground-truth security divergence and online reputation
	// feedback (DESIGN.md §7). The engine clones the site list so churn
	// and trust updates never mutate the caller's platform. Nil is the
	// paper's original fixed-platform model, bit-identical to before the
	// extension existed.
	Dynamics *DynamicsConfig
	// Admission, when non-nil, bounds each Δ-round's batch and shares
	// the budget between tenants in weighted deficit-round-robin order
	// (DESIGN.md §9). Nil — or a zero RoundBudget — is the original
	// drain-everything behavior, bit-identical to before multi-tenancy
	// existed. The engine copies the config.
	Admission *AdmissionConfig
}

// jobFlags is what the engine remembers of a job across its attempts:
// whether a placement took a risk (SL < SD) or used the no-eligible-site
// fallback, whether an attempt failed, and how often a crash interrupted
// one.
type jobFlags struct {
	riskTaken, failed, fellBack bool
	interrupted                 int
}

// maxRetries bounds a job's security failures, and separately its churn
// interruptions, before the run aborts: a job that keeps failing means
// the platform is infeasible.
const maxRetries = 50

// check validates everything except the job list, which Run requires
// non-empty but the incremental Online engine accepts empty (jobs stream
// in later via Submit).
func (c *RunConfig) check() error {
	if err := grid.ValidateSites(c.Sites); err != nil {
		return err
	}
	if c.Scheduler == nil {
		return fmt.Errorf("sched: nil scheduler")
	}
	if c.BatchInterval <= 0 {
		return fmt.Errorf("sched: batch interval %v <= 0", c.BatchInterval)
	}
	if c.Rand == nil {
		return fmt.Errorf("sched: nil random stream")
	}
	for _, j := range c.Jobs {
		if err := j.Validate(); err != nil {
			return err
		}
	}
	// A closed-world workload must form a proper DAG; online submissions
	// are validated incrementally by the service layer instead.
	if err := dag.Validate(c.Jobs); err != nil {
		return err
	}
	if c.Dynamics != nil {
		if err := c.Dynamics.check(c.Sites); err != nil {
			return err
		}
	}
	if c.Admission != nil {
		if err := c.Admission.check(); err != nil {
			return err
		}
	}
	return nil
}

// Result is the outcome of a run.
type Result struct {
	Summary metrics.Summary
	Records []metrics.JobRecord
	// Batches is the number of scheduling rounds that dispatched jobs.
	Batches int
	// Events is the number of simulation events executed.
	Events uint64
	// SchedulerTime is the total wall-clock time spent inside
	// Scheduler.Schedule across all batches. The paper's case for the
	// STGA rests on the GA being cheap enough for online use; this field
	// quantifies that claim (see experiments.RunOverhead).
	SchedulerTime time.Duration
	// LargestBatch is the maximum batch size scheduled in one round.
	LargestBatch int
}

// engineState carries the mutable simulation state across events,
// the event queue itself included.
type engineState struct {
	cfg *RunConfig
	// events is the discrete-event queue, ordered by (at, seq); now is
	// the clock, seq the last sequence number handed out and executed
	// the count of events run so far. maxEvents is the runaway guard
	// (setGuard) and err the failure that stopped the loop for good.
	events    eventQueue
	now       float64
	seq       uint64
	executed  uint64
	maxEvents uint64
	err       error

	queue []*grid.Job // jobs awaiting dispatch
	// spare is the queue's second buffer: runBatch hands the queue to
	// the round and takes spare as the new queue, and the round's
	// batch comes back as spare, so a steady-state round allocates no
	// queue.
	spare   []*grid.Job
	ready   []float64 // per-site earliest free time
	busy    []float64 // per-site accumulated occupied time
	records []metrics.JobRecord
	// flags holds what the engine remembers of a job across its
	// attempts, by job ID, from the first thing worth remembering until
	// the job completes.
	flags map[int]jobFlags
	// dyn is the dynamic-grid state (nil on static runs).
	dyn *dynState
	// adm is the fair-share batch former (nil without RunConfig.Admission).
	adm *admState
	// deps is the dependency ready-set (always on; edge-free workloads
	// never block and never pay more than one empty loop per arrival).
	// ranks is the per-batch upward-rank scratch column.
	deps      *dag.Tracker
	ranks     []float64
	seen      int // jobs that have arrived so far
	remaining int // jobs not yet successfully completed
	// acc accumulates the §4.1 summary incrementally, in the same order
	// metrics.Compute folds the record list, so DiscardRecords mode
	// stays summary-complete without retaining per-job state.
	acc       metrics.Accumulator
	batches   int
	schedTime time.Duration
	largest   int
	failRand  *rng.Stream
	timeRand  *rng.Stream
	batchOpen bool // a batch event is already scheduled
	// slots holds the payload of every pending arrival and attempt
	// event, which the event names by its index (event.ref); free lists
	// the slots whose events have fired, for hold to reuse.
	slots []attempt
	free  []int32
	// kb rebuilds the columnar snapshot each round into reused storage,
	// and round is the State each round hands its scheduler.
	kb    kernel.Builder
	round State
	// phases holds one wall-clock histogram per round phase. It is
	// observability only: wall time never reaches an event or a WAL
	// record, so the determinism contract is untouched.
	phases [NumPhases]obs.Histogram
}

// Run executes the full simulation and aggregates metrics. It is the
// closed-world entry point: the whole workload is known up front. Under
// the hood it is a thin wrapper over the incremental Online engine, so
// the paper's batch experiments and the trustgridd service share one
// code path (and the trace-replay parity test holds by construction).
func Run(cfg RunConfig) (*Result, error) {
	if len(cfg.Jobs) == 0 {
		return nil, fmt.Errorf("sched: no jobs")
	}
	o, err := NewOnline(cfg)
	if err != nil {
		return nil, err
	}
	return o.Drain()
}

// arrive runs at a job's arrival timestamp: it grows the runaway guard
// to cover the job, enqueues it and opens the next scheduling round. A
// stale arrival stamp (before the current clock) is clamped to now —
// the job arrives "now" as far as the simulation is concerned.
func (st *engineState) arrive(j *grid.Job) {
	st.setGuard()
	if j.Arrival < st.now {
		j.Arrival = st.now
	}
	// A tenant-declared secure-only policy becomes the same per-job
	// constraint a prior failure imposes; downstream of this point the
	// scheduling core has a single safety flag.
	if j.SafeOnly {
		j.MustBeSafe = true
	}
	if st.adm != nil {
		st.adm.note(j.Tenant)
	}
	st.seen++
	st.remaining++
	ready := st.deps.Arrive(j)
	st.emit(EngineEvent{Kind: EventArrived, Time: st.now, Job: *j, Site: -1})
	if !ready {
		// The tracker holds the job until its parents complete; it enters
		// the queue (and DRR's view of the backlog) at release.
		return
	}
	st.queue = append(st.queue, j)
	st.ensureBatch()
}

// ensureBatch schedules the next periodic scheduling round if none is
// pending. Rounds fire on the Δ grid, matching the paper's periodic
// model: jobs accumulate and are scheduled in batches.
func (st *engineState) ensureBatch() {
	if st.batchOpen {
		return
	}
	st.batchOpen = true
	st.schedule(event{at: st.nextRound(st.now), kind: evBatch})
}

// nextRound returns the first Δ-grid instant float64(k)·Δ that lies
// strictly after the clock and at or after notBefore. It starts from
// k = ⌊now/Δ⌋+1 and steps k up, so the grid is the float grid: when Δ
// is not exact in binary, now/Δ at a rounded instant kΔ lands just
// below k, and without the step the "next" round would be armed at the
// current instant. At an integer Δ the step never runs.
func (st *engineState) nextRound(notBefore float64) float64 {
	delta := st.cfg.BatchInterval
	k := max(int(st.now/delta)+1, int(notBefore/delta))
	for t := float64(k) * delta; t <= st.now || t < notBefore; t = float64(k) * delta {
		k++
	}
	return float64(k) * delta
}

// holdUntilRejoin arms the round a total outage holds at the first
// Δ-grid point at or after the next pending rejoin, and fails the run
// when none is pending. That is the first
// round that finds a site alive, as re-arming every Δ would: churn is
// queued before any round, so a rejoin at a round's instant runs first.
// One event per outage, however long, where a round every Δ spent one
// per Δ against the runaway guard.
func (st *engineState) holdUntilRejoin() {
	next := math.Inf(1)
	for _, ev := range st.events {
		if ev.kind == evChurn && ev.at < next && st.dyn.cfg.Churn[ev.ref].Kind == grid.ChurnJoin {
			next = ev.at
		}
	}
	if math.IsInf(next, 1) {
		st.fail(fmt.Errorf("sched: every site departed with %d jobs queued and no rejoin pending", len(st.queue)))
		return
	}
	st.batchOpen = true
	st.schedule(event{at: st.nextRound(next), kind: evBatch})
}

// runBatch drains the queue through the scheduler and dispatches the
// assignments.
func (st *engineState) runBatch() {
	st.batchOpen = false
	if len(st.queue) == 0 {
		return
	}
	if st.dyn != nil && !st.dyn.anyAlive() {
		// A total outage: hold the queue until churn revives a site; with
		// no rejoin pending the jobs can never run.
		st.holdUntilRejoin()
		return
	}
	start := time.Now()
	queued := st.queue
	st.queue, st.spare = st.spare[:0], nil
	batch := queued
	if st.adm != nil {
		var leftover []*grid.Job
		batch, leftover = st.adm.form(queued)
		if len(leftover) > 0 {
			// Rationed round: the remainder stays queued and the next
			// Δ-round is armed now, so a saturated backlog keeps draining
			// at budget jobs per round even with no further arrivals.
			st.queue = append(st.queue, leftover...)
			st.ensureBatch()
		}
	}
	st.batches++

	if len(batch) > st.largest {
		st.largest = len(batch)
	}
	st.round = State{Now: st.now, Sites: st.cfg.Sites, Ready: st.ready, Alive: st.aliveVec()}
	state := &st.round
	formed := time.Now()
	// Build the columnar snapshot once per round; every scheduler
	// (including the online daemon path, which drives this same batch
	// loop) streams over it instead of re-deriving eligibility and
	// completion times per probe. The build is scheduling work, so it
	// stays inside the SchedulerTime window; the builder reuses its
	// storage, so steady-state rounds allocate nothing here.
	state.Kern = st.kb.Build(state.Now, state.Sites, state.Ready, state.Alive, batch)
	if st.deps.SawEdges() {
		st.installRanks(state.Kern, batch)
	}
	built := time.Now()
	as := st.cfg.Scheduler.Schedule(batch, state)
	scheduled := time.Now()
	st.schedTime += scheduled.Sub(formed)
	st.phases[PhaseForm].Observe(formed.Sub(start))
	st.phases[PhaseKernel].Observe(built.Sub(formed))
	st.phases[PhaseSchedule].Observe(scheduled.Sub(built))
	for _, a := range as {
		st.dispatch(a)
	}
	// The round is over and no scheduler retains its batch: the queue's
	// old buffer becomes the next round's spare.
	clear(queued)
	st.spare = queued[:0]
	st.phases[PhaseDispatch].Observe(time.Since(scheduled))
}

// The phases of a Δ-round that runBatch times: batch formation (queue
// hand-off and fair-share rationing), the kernel snapshot with any DAG
// ranks, the scheduler's Schedule call, and dispatch.
const (
	PhaseForm = iota
	PhaseKernel
	PhaseSchedule
	PhaseDispatch
	NumPhases
)

// PhaseNames labels the phases for exposition.
var PhaseNames = [NumPhases]string{"form", "kernel", "schedule", "dispatch"}

// installRanks fills the snapshot's rank column with the batch's HEFT
// upward ranks: each job's mean execution time over alive sites plus
// the heaviest chain of blocked successors waiting on it. Runs only
// once a workload has shown edges, so edge-free rounds skip it and
// rank-aware schedulers keep their historical behavior there.
func (st *engineState) installRanks(k *kernel.Snapshot, batch []*grid.Job) {
	inv, cnt := 0.0, 0
	for i := 0; i < k.M; i++ {
		if k.SiteAlive(i) {
			inv += 1 / k.Speed[i]
			cnt++
		}
	}
	if cnt == 0 {
		// runBatch holds the queue through total outages; defensive only.
		return
	}
	if cap(st.ranks) < len(batch) {
		st.ranks = make([]float64, len(batch))
	}
	r := st.ranks[:len(batch)]
	st.deps.BatchRanks(batch, inv/float64(cnt), r)
	k.SetRanks(r)
}

// dispatch starts one execution attempt: advance the site's FIFO queue,
// sample the Eq. 1 failure law, and schedule the completion or failure.
// On dynamic grids the failure law samples from the site's ground-truth
// security level, the attempt is tracked so a crash can interrupt it,
// and the outcome feeds the site's reputation.
func (st *engineState) dispatch(a Assignment) {
	job, site := a.Job, st.cfg.Sites[a.Site]
	if st.dyn != nil && !st.dyn.alive[a.Site] {
		st.fail(fmt.Errorf("sched: scheduler dispatched job %d to departed site %d", job.ID, a.Site))
		return
	}
	start := st.ready[a.Site]
	if st.now > start {
		start = st.now
	}
	exec := site.ExecTime(job)

	effSL := st.effectiveSL(a.Site)
	risky := st.cfg.Security.Risky(job.SecurityDemand, effSL)
	if a.FellBack || risky {
		f := st.flags[job.ID]
		f.fellBack = f.fellBack || a.FellBack
		f.riskTaken = f.riskTaken || risky
		st.flags[job.ID] = f
	}
	st.emit(EngineEvent{
		Kind: EventPlaced, Time: st.now, Job: *job, Site: a.Site,
		Start: start, Finish: start + exec, Risky: risky, FellBack: a.FellBack,
	})
	fails := risky && st.failRand.Bool(st.cfg.Security.FailProb(job.SecurityDemand, effSL))

	// The outcome is fully determined at dispatch: whether the attempt
	// fails, how long the site is occupied (the full execution on
	// success, the sampled detection point on failure), and when the
	// outcome event fires. The attempt carries all of it as plain data —
	// which is what lets a snapshot serialize in-flight work and a
	// restore re-schedule it bit-identically.
	busy := exec
	if fails && st.cfg.FailureTiming == FailUniform {
		busy = exec * st.timeRand.Float64()
	}
	at := start + busy
	st.ready[a.Site] = at
	st.busy[a.Site] += busy
	st.launch(st.hold(attempt{job: job, site: a.Site, start: start, busy: busy, fails: fails}), at)
}

// finishAttempt executes the outcome of the attempt in slot ref when its
// event fires: the Eq. 1 security failure when it fails, the completion
// otherwise.
func (st *engineState) finishAttempt(ref int32) {
	if !st.slots[ref].cancelled {
		st.untrack(ref)
	}
	att := st.release(ref)
	if att.cancelled {
		// The site crashed first; the job already re-queued.
		return
	}
	job := att.job

	if att.fails {
		f := st.flags[job.ID]
		f.failed = true
		st.flags[job.ID] = f
		job.Failures++
		if job.Failures > maxRetries {
			st.fail(fmt.Errorf("sched: job %d exceeded %d retries (site %d); platform likely infeasible",
				job.ID, maxRetries, att.site))
			return
		}
		// Fail-stop: restart from the beginning on a strictly safe
		// site at the next scheduling round (§2).
		job.MustBeSafe = true
		ev := EngineEvent{Kind: EventFailed, Time: st.now, Job: *job, Site: att.site}
		if level := st.observeOutcome(att.site, job.SecurityDemand, false); st.dyn != nil && st.dyn.reps != nil {
			ev.Level = level
		}
		st.emit(ev)
		st.queue = append(st.queue, job)
		st.ensureBatch()
		return
	}

	// The job is done, and so is its entry: kept, it would grow the map
	// without bound in a long-running online engine.
	f, flagged := st.flags[job.ID]
	if flagged {
		delete(st.flags, job.ID)
	}
	rec := metrics.JobRecord{
		ID:             job.ID,
		Tenant:         job.Tenant,
		Arrival:        job.Arrival,
		Start:          att.start,
		Completion:     st.now,
		Site:           att.site,
		TookRisk:       f.riskTaken,
		Failed:         f.failed,
		FellBack:       f.fellBack,
		Interrupted:    f.interrupted > 0,
		Deadline:       job.Deadline,
		MissedDeadline: job.Deadline > 0 && st.now > job.Deadline,
	}
	if !st.cfg.DiscardRecords {
		st.records = append(st.records, rec)
	}
	st.acc.Add(rec)
	st.remaining--
	ev := EngineEvent{
		Kind: EventCompleted, Time: st.now, Job: *job, Site: att.site,
		Start: att.start, Finish: st.now,
	}
	if level := st.observeOutcome(att.site, job.SecurityDemand, true); st.dyn != nil && st.dyn.reps != nil {
		ev.Level = level
	}
	st.emit(ev)

	// Unblock successors whose last incomplete parent this was. They
	// join the queue now (in arrival order) and the next Δ-round picks
	// them up — precedence feasibility by construction: a batch can
	// never contain both ends of an edge.
	released := st.deps.Complete(job.ID)
	for _, rj := range released {
		st.emit(EngineEvent{Kind: EventReady, Time: st.now, Job: *rj, Site: -1})
		st.queue = append(st.queue, rj)
	}
	if len(released) > 0 {
		st.ensureBatch()
	}
}
