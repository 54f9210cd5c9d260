package sched

import (
	"fmt"
	"sort"

	"trustgrid/internal/fuzzy"
	"trustgrid/internal/grid"
	"trustgrid/internal/idset"
	"trustgrid/internal/metrics"
	"trustgrid/internal/rng"
)

// EngineSnapshot is the complete serializable state of an Online
// engine at a quiescent point: everything needed to rebuild an engine
// whose future placements are byte-identical to the uninterrupted run's
// (DESIGN.md §10). "Quiescent" means no event at or before the clock is
// still pending — the state right after AdvanceTo(T) returns.
//
// The snapshot carries three kinds of state. Scalars and per-site
// vectors reproduce the visible simulation state (clock, ready/busy
// times, counters, incremental summary). The rng positions and the
// scheduler blob reproduce every future random draw and history-table
// lookup. The pending list reproduces the event queue itself: each
// not-yet-fired arrival, in-flight execution outcome, and the armed
// Δ-round, tagged with its original sequence number so a restore can
// re-schedule them in the exact (time, seq) order the saved run would
// have executed them.
type EngineSnapshot struct {
	// Scheduler is the algorithm's Name(); RestoreOnline refuses a
	// config whose scheduler reports a different one.
	Scheduler string  `json:"scheduler"`
	Now       float64 `json:"now"`
	Executed  uint64  `json:"executed"`
	Seen      int     `json:"seen"`
	Remaining int     `json:"remaining"`
	Batches   int     `json:"batches"`
	Largest   int     `json:"largest"`

	Ready []float64 `json:"ready"`
	Busy  []float64 `json:"busy"`

	// Queue is the scheduling backlog in exact queue order.
	Queue []grid.Job `json:"queue,omitempty"`
	// Pending is every live event still on the queue, ascending by Seq;
	// restore sorts by Seq.
	Pending []PendingItem `json:"pending,omitempty"`

	// Per-job flags for jobs still in the system (completed jobs shed
	// theirs), as sorted ID lists.
	RiskTaken   []int            `json:"risk_taken,omitempty"`
	Failed      []int            `json:"failed,omitempty"`
	FellBack    []int            `json:"fell_back,omitempty"`
	Interrupted []InterruptCount `json:"interrupted,omitempty"`

	Acc      metrics.AccumulatorState `json:"acc"`
	FailRand rng.State                `json:"fail_rand"`
	TimeRand rng.State                `json:"time_rand"`

	Admission *AdmissionSnapshot `json:"admission,omitempty"`
	Dynamics  *DynamicsSnapshot  `json:"dynamics,omitempty"`
	// DAG is the dependency tracker's state; present whenever any job
	// has completed (the done set resolves future dependency references)
	// or edges were seen.
	DAG *DAGSnapshot `json:"dag,omitempty"`

	// SchedState is the StatefulScheduler blob (STGA history table and
	// GA stream, Random's stream); nil for stateless heuristics.
	SchedState []byte `json:"sched_state,omitempty"`
}

// PendingItem is one event still on the engine's queue.
type PendingItem struct {
	// Kind is "arrival" (a scheduled, not-yet-admitted job), "attempt"
	// (an in-flight execution outcome) or "batch" (the armed Δ-round).
	Kind string `json:"kind"`
	// Seq is the event's original queue sequence; equal-timestamp events
	// execute in Seq order, so restore re-schedules ascending by it.
	Seq uint64  `json:"seq"`
	At  float64 `json:"at"`
	// Job is set for arrivals and attempts.
	Job *grid.Job `json:"job,omitempty"`
	// Attempt fields.
	Site  int     `json:"site,omitempty"`
	Start float64 `json:"start,omitempty"`
	Busy  float64 `json:"busy,omitempty"`
	Fails bool    `json:"fails,omitempty"`
}

// DAGSnapshot is the dependency ready-set's state: its horizon (every
// job handed to the engine with an ID at or below it has completed,
// unless it is still in flight in this snapshot), which jobs above the
// horizon have completed (a future arrival may depend on any of them),
// which arrived jobs are still waiting on parents (in arrival order —
// the order restore re-registers them, which reproduces release order),
// and whether the workload ever used edges (the sticky switch for
// rank-aware scheduling). Done is that completed-ID set as an idset byte
// column (base64 in the JSON payload), at a byte or two per ID; it
// holds the jobs completed above the lowest one still in flight, not
// every job ever completed (DESIGN.md §14.3). Horizon is absent until
// the first job completes, and in snapshots written before it existed,
// whose Done holds every completed ID.
type DAGSnapshot struct {
	Done     []byte     `json:"done,omitempty"`
	Horizon  *int       `json:"horizon,omitempty"`
	Blocked  []grid.Job `json:"blocked,omitempty"`
	SawEdges bool       `json:"saw_edges,omitempty"`

	// doneIDs is Done decoded; decoded says DecodeColumns has run.
	doneIDs []int
	decoded bool
}

// DecodeColumns decodes the snapshot's byte columns, failing on one
// that does not decode. A restore decodes them itself if this has not
// run; a caller that judges a snapshot before restoring it — the
// daemon's recovery counts a bad column as a damaged snapshot — calls
// it first, and the restore uses what it decoded.
func (s *EngineSnapshot) DecodeColumns() error {
	d := s.DAG
	if d == nil || d.decoded {
		return nil
	}
	done, err := idset.ParseColumn(d.Done)
	if err != nil {
		return fmt.Errorf("dag done set: %w", err)
	}
	d.doneIDs, d.decoded = done, true
	return nil
}

// InFlight calls fn with the ID of every job the snapshot holds in
// flight: queued, blocked on parents, arriving or executing.
func (s *EngineSnapshot) InFlight(fn func(id int)) {
	for i := range s.Queue {
		fn(s.Queue[i].ID)
	}
	for _, it := range s.Pending {
		if it.Job != nil {
			fn(it.Job.ID)
		}
	}
	if s.DAG != nil {
		for i := range s.DAG.Blocked {
			fn(s.DAG.Blocked[i].ID)
		}
	}
}

// InterruptCount is one job's churn-interruption count.
type InterruptCount struct {
	ID int `json:"id"`
	N  int `json:"n"`
}

// AdmissionSnapshot is the fair-share batch former's cross-round state:
// the deterministic tenant order, the DRR deficit balances, and the live
// weight vector (which SetTenantWeight may have changed since the
// config).
type AdmissionSnapshot struct {
	Order   []string           `json:"order,omitempty"`
	Deficit map[string]float64 `json:"deficit,omitempty"`
	Weights map[string]float64 `json:"weights,omitempty"`
}

// DynamicsSnapshot is the dynamic-grid state: site liveness, the
// scheduler-visible speed and trust vectors (churn and reputation mutate
// the cloned sites), and the per-site reputation evidence.
type DynamicsSnapshot struct {
	Alive   []bool    `json:"alive"`
	Crashed []bool    `json:"crashed"`
	Speed   []float64 `json:"speed"`
	Level   []float64 `json:"level"`
	// Reps is the per-site reputation evidence; nil without feedback.
	Reps []fuzzy.ReputationState `json:"reps,omitempty"`
}

// Snapshot captures the engine's complete state at a quiescent point.
// It requires DiscardRecords mode (per-job records are unbounded
// history, not state). Call it between calls on the loop goroutine —
// after AdvanceTo, Drain or Submit returns — never from an event
// handler. Loop goroutine only.
func (o *Online) Snapshot() (*EngineSnapshot, error) {
	st := o.st
	if !o.cfg.DiscardRecords {
		return nil, fmt.Errorf("sched: Snapshot requires DiscardRecords (per-job records are not snapshotted)")
	}
	snap := &EngineSnapshot{
		Scheduler: o.cfg.Scheduler.Name(),
		Now:       st.now,
		Executed:  st.executed,
		Seen:      st.seen,
		Remaining: st.remaining,
		Batches:   st.batches,
		Largest:   st.largest,
		Ready:     append([]float64(nil), st.ready...),
		Busy:      append([]float64(nil), st.busy...),
		Acc:       st.acc.State(),
		FailRand:  st.failRand.State(),
		TimeRand:  st.timeRand.State(),
	}
	for _, j := range st.queue {
		snap.Queue = append(snap.Queue, *j)
	}
	// Walk the queue. Churn is not state (the config re-queues what is
	// still ahead of the clock), and a cancelled attempt's event would
	// only no-op. Job copies are plain values, not Clone: Clone resets
	// the runtime state (Failures, MustBeSafe) that a snapshot exists to
	// preserve.
	for _, ev := range st.events {
		switch ev.kind {
		case evArrival:
			c := *st.slots[ev.ref].job
			snap.Pending = append(snap.Pending, PendingItem{
				Kind: "arrival", Seq: ev.seq, At: ev.at, Job: &c,
			})
		case evAttempt:
			if att := &st.slots[ev.ref]; !att.cancelled {
				c := *att.job
				snap.Pending = append(snap.Pending, PendingItem{
					Kind: "attempt", Seq: ev.seq, At: ev.at, Job: &c,
					Site: att.site, Start: att.start, Busy: att.busy, Fails: att.fails,
				})
			}
		case evBatch:
			snap.Pending = append(snap.Pending, PendingItem{
				Kind: "batch", Seq: ev.seq, At: ev.at,
			})
		}
	}
	sort.Slice(snap.Pending, func(i, k int) bool { return snap.Pending[i].Seq < snap.Pending[k].Seq })

	for id, f := range st.flags {
		if f.riskTaken {
			snap.RiskTaken = append(snap.RiskTaken, id)
		}
		if f.failed {
			snap.Failed = append(snap.Failed, id)
		}
		if f.fellBack {
			snap.FellBack = append(snap.FellBack, id)
		}
		if f.interrupted > 0 {
			snap.Interrupted = append(snap.Interrupted, InterruptCount{ID: id, N: f.interrupted})
		}
	}
	sort.Ints(snap.RiskTaken)
	sort.Ints(snap.Failed)
	sort.Ints(snap.FellBack)
	sort.Slice(snap.Interrupted, func(i, k int) bool { return snap.Interrupted[i].ID < snap.Interrupted[k].ID })

	if st.adm != nil {
		a := &AdmissionSnapshot{
			Order:   append([]string(nil), st.adm.order...),
			Deficit: make(map[string]float64, len(st.adm.deficit)),
			Weights: make(map[string]float64, len(st.adm.weights)),
		}
		for t, d := range st.adm.deficit {
			a.Deficit[t] = d
		}
		for t, w := range st.adm.weights {
			a.Weights[t] = w
		}
		snap.Admission = a
	}
	if d := st.dyn; d != nil {
		ds := &DynamicsSnapshot{
			Alive:   append([]bool(nil), d.alive...),
			Crashed: append([]bool(nil), d.crashed...),
			Speed:   make([]float64, len(o.cfg.Sites)),
			Level:   make([]float64, len(o.cfg.Sites)),
		}
		for i, s := range o.cfg.Sites {
			ds.Speed[i] = s.Speed
			ds.Level[i] = s.SecurityLevel
		}
		if d.reps != nil {
			ds.Reps = make([]fuzzy.ReputationState, len(d.reps))
			for i, r := range d.reps {
				ds.Reps[i] = r.State()
			}
		}
		snap.Dynamics = ds
	}
	h, hasHorizon := st.deps.Horizon()
	if done := st.deps.DoneIDs(); len(done) > 0 || hasHorizon || st.deps.SawEdges() {
		d := &DAGSnapshot{Done: idset.AppendColumn(nil, done), SawEdges: st.deps.SawEdges()}
		if hasHorizon {
			d.Horizon = &h
		}
		for _, j := range st.deps.Blocked() {
			d.Blocked = append(d.Blocked, *j)
		}
		snap.DAG = d
	}
	if ss, ok := o.cfg.Scheduler.(StatefulScheduler); ok {
		blob, err := ss.SaveState()
		if err != nil {
			return nil, fmt.Errorf("sched: Snapshot: scheduler state: %w", err)
		}
		snap.SchedState = blob
	}
	return snap, nil
}

// RestoreOnline rebuilds an engine from a snapshot. cfg must be the
// same configuration that produced it — same platform, scheduler
// construction (algorithm, seeds, training), batch interval, security
// model, dynamics and admission — with no preloaded jobs (the snapshot carries the live ones). The restored engine's
// future placements are byte-identical to what the snapshotted engine
// would have produced: same sites, same start/finish times, same
// failure draws, in the same event order.
func RestoreOnline(cfg RunConfig, snap *EngineSnapshot) (*Online, error) {
	if snap == nil {
		return nil, fmt.Errorf("sched: RestoreOnline with nil snapshot")
	}
	if len(cfg.Jobs) != 0 {
		return nil, fmt.Errorf("sched: RestoreOnline with %d preloaded jobs; the snapshot carries the workload", len(cfg.Jobs))
	}
	return newOnline(cfg, snap)
}

// restore loads snapshot state into a freshly constructed engine whose
// clock is already repositioned and whose still-pending churn is already
// queued. newOnline derives the runaway guard from the restored count of
// jobs seen afterwards, as the next arrival would.
func (o *Online) restore(snap *EngineSnapshot) error {
	st := o.st
	if name := o.cfg.Scheduler.Name(); name != snap.Scheduler {
		return fmt.Errorf("sched: restore: scheduler %q does not match snapshot's %q", name, snap.Scheduler)
	}
	if len(snap.Ready) != len(o.cfg.Sites) || len(snap.Busy) != len(o.cfg.Sites) {
		return fmt.Errorf("sched: restore: snapshot has %d/%d site vectors for %d sites",
			len(snap.Ready), len(snap.Busy), len(o.cfg.Sites))
	}
	st.seen = snap.Seen
	st.remaining = snap.Remaining
	st.batches = snap.Batches
	st.largest = snap.Largest
	copy(st.ready, snap.Ready)
	copy(st.busy, snap.Busy)
	st.acc.SetState(snap.Acc)
	st.failRand.SetState(snap.FailRand)
	st.timeRand.SetState(snap.TimeRand)
	flag := func(id int, set func(*jobFlags)) {
		f := st.flags[id]
		set(&f)
		st.flags[id] = f
	}
	for _, id := range snap.RiskTaken {
		flag(id, func(f *jobFlags) { f.riskTaken = true })
	}
	for _, id := range snap.Failed {
		flag(id, func(f *jobFlags) { f.failed = true })
	}
	for _, id := range snap.FellBack {
		flag(id, func(f *jobFlags) { f.fellBack = true })
	}
	for _, ic := range snap.Interrupted {
		flag(ic.ID, func(f *jobFlags) { f.interrupted = ic.N })
	}
	for i := range snap.Queue {
		j := snap.Queue[i]
		st.queue = append(st.queue, &j)
	}

	// Rebuild the dependency ready-set: the horizon and done IDs first,
	// then every job still in flight handed back (readiness checks
	// consult all three), then the queue (already released — must come
	// out ready), then the blocked pen in its recorded arrival order so
	// each parent's successor list, and with it every release order,
	// matches the interrupted run's.
	if err := snap.DecodeColumns(); err != nil {
		return fmt.Errorf("sched: restore: %w", err)
	}
	if snap.DAG != nil {
		st.deps.RestoreDone(snap.DAG.doneIDs)
		if snap.DAG.Horizon != nil {
			st.deps.RestoreHorizon(*snap.DAG.Horizon)
		}
		if snap.DAG.SawEdges {
			st.deps.MarkEdges()
		}
	}
	snap.InFlight(st.deps.Hand)
	for _, j := range st.queue {
		if !st.deps.Arrive(j) {
			return fmt.Errorf("sched: restore: queued job %d has incomplete dependencies", j.ID)
		}
	}
	if snap.DAG != nil {
		for i := range snap.DAG.Blocked {
			j := snap.DAG.Blocked[i]
			if st.deps.Arrive(&j) {
				return fmt.Errorf("sched: restore: blocked job %d has no incomplete dependencies", j.ID)
			}
		}
	}

	switch {
	case snap.Admission != nil && st.adm == nil:
		return fmt.Errorf("sched: restore: snapshot has admission state but config has no Admission")
	case snap.Admission != nil:
		a := snap.Admission
		st.adm.order = append([]string(nil), a.Order...)
		for _, t := range a.Order {
			st.adm.seen[t] = true
		}
		for t, d := range a.Deficit {
			st.adm.deficit[t] = d
		}
		for t, w := range a.Weights {
			st.adm.weights[t] = w
		}
	}

	switch {
	case snap.Dynamics != nil && st.dyn == nil:
		return fmt.Errorf("sched: restore: snapshot has dynamics state but config has no Dynamics")
	case snap.Dynamics == nil && st.dyn != nil:
		return fmt.Errorf("sched: restore: config has Dynamics but snapshot has no dynamics state")
	case snap.Dynamics != nil:
		d, ds := st.dyn, snap.Dynamics
		if len(ds.Alive) != len(o.cfg.Sites) {
			return fmt.Errorf("sched: restore: dynamics state for %d sites, platform has %d", len(ds.Alive), len(o.cfg.Sites))
		}
		copy(d.alive, ds.Alive)
		copy(d.crashed, ds.Crashed)
		for i, s := range o.cfg.Sites {
			s.Speed = ds.Speed[i]
			s.SecurityLevel = ds.Level[i]
		}
		if d.reps != nil {
			if len(ds.Reps) != len(d.reps) {
				return fmt.Errorf("sched: restore: %d reputation states for %d sites", len(ds.Reps), len(d.reps))
			}
			for i, r := range d.reps {
				if err := r.SetState(ds.Reps[i]); err != nil {
					return fmt.Errorf("sched: restore: site %d: %w", i, err)
				}
			}
		}
	}

	if ss, ok := o.cfg.Scheduler.(StatefulScheduler); ok {
		if snap.SchedState == nil {
			return fmt.Errorf("sched: restore: scheduler %q is stateful but snapshot carries no scheduler state", snap.Scheduler)
		}
		if err := ss.RestoreState(snap.SchedState); err != nil {
			return err
		}
	} else if snap.SchedState != nil {
		return fmt.Errorf("sched: restore: snapshot carries scheduler state but %q cannot restore it", snap.Scheduler)
	}

	// Re-queue the pending events in their original sequence order.
	// Still-pending churn is already queued (its original sequence
	// numbers precede every runtime event's), so ascending Seq here
	// reproduces the exact equal-timestamp tie-break order of the saved
	// run.
	items := append([]PendingItem(nil), snap.Pending...)
	sort.Slice(items, func(i, k int) bool { return items[i].Seq < items[k].Seq })
	for _, it := range items {
		if !(it.At >= st.now) {
			return fmt.Errorf("sched: restore: pending %s at t=%v, before the snapshot clock %v", it.Kind, it.At, st.now)
		}
		switch it.Kind {
		case "arrival":
			if it.Job == nil {
				return fmt.Errorf("sched: restore: pending arrival without a job")
			}
			c := *it.Job
			st.schedule(event{at: it.At, kind: evArrival, ref: st.hold(attempt{job: &c})})
		case "attempt":
			if it.Job == nil {
				return fmt.Errorf("sched: restore: pending attempt without a job")
			}
			if it.Site < 0 || it.Site >= len(o.cfg.Sites) {
				return fmt.Errorf("sched: restore: pending attempt on invalid site %d", it.Site)
			}
			c := *it.Job
			st.launch(st.hold(attempt{job: &c, site: it.Site, start: it.Start, busy: it.Busy, fails: it.Fails}), it.At)
		case "batch":
			if st.batchOpen {
				return fmt.Errorf("sched: restore: duplicate pending batch event")
			}
			// The round was armed before the clock moved to the cut, so
			// its time comes from the snapshot, not from ensureBatch.
			st.batchOpen = true
			st.schedule(event{at: it.At, kind: evBatch})
		default:
			return fmt.Errorf("sched: restore: unknown pending event kind %q", it.Kind)
		}
	}
	return nil
}

// NeverPlaced returns clones of every job accepted (or scheduled to
// arrive) that has not yet had a first placement: queued first-timers —
// no security failures, never interrupted — plus not-yet-admitted
// arrivals, sorted by job ID. After recovery the daemon rebuilds
// per-tenant queue occupancy and in-flight submit-latency entries from
// it, which track exactly "accepted but not yet placed". Loop goroutine
// only.
func (o *Online) NeverPlaced() []grid.Job {
	st := o.st
	var out []grid.Job
	for _, j := range st.queue {
		if j.Failures == 0 && st.flags[j.ID].interrupted == 0 {
			out = append(out, *j)
		}
	}
	// Blocked jobs are accepted and hold quota; by construction they have
	// never been placed.
	for _, j := range st.deps.Blocked() {
		out = append(out, *j)
	}
	for _, ev := range st.events {
		if ev.kind == evArrival {
			out = append(out, *st.slots[ev.ref].job)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}
