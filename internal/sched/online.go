package sched

import (
	"fmt"
	"math"
	"sort"

	"trustgrid/internal/dag"
	"trustgrid/internal/grid"
	"trustgrid/internal/metrics"
)

// Online is the incremental form of the simulation engine: the same
// batch loop Run drives to completion, promoted to an open-world API
// where jobs stream in while the clock advances. It backs the trustgridd
// service; Run is a thin wrapper over it, which is what makes recorded
// service traffic byte-replayable through the batch simulator.
//
// Concurrency contract: every method must be called from the single
// goroutine that owns the engine — the "loop goroutine" in service
// terms, or the test body in tests.
type Online struct {
	cfg RunConfig
	st  *engineState
}

// NewOnline builds an incremental engine. cfg.Jobs may be empty; any
// jobs present are pre-loaded exactly as Run would load them (cloned,
// stably sorted by arrival).
func NewOnline(cfg RunConfig) (*Online, error) { return newOnline(cfg, nil) }

// newOnline is the shared construction path of NewOnline and
// RestoreOnline: with snap == nil it starts a fresh run; with a snapshot
// it rebuilds the engine mid-run (clock repositioned, state restored,
// pending events re-queued in their original order).
func newOnline(cfg RunConfig, snap *EngineSnapshot) (*Online, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if cfg.Security.Lambda == 0 {
		cfg.Security = grid.NewSecurityModel()
	}
	o := &Online{cfg: cfg}
	if cfg.Admission != nil {
		// Copy so SetTenantWeight and later caller-side map mutation
		// cannot race or retroactively change a recorded run's config.
		c := *cfg.Admission
		o.cfg.Admission = &c
	}
	if cfg.Dynamics != nil {
		// Churn and reputation mutate site speed and security level;
		// clone the platform so the caller's sites stay pristine.
		sites := make([]*grid.Site, len(cfg.Sites))
		for i, s := range cfg.Sites {
			c := *s
			sites[i] = &c
		}
		o.cfg.Sites = sites
	}
	o.st = &engineState{
		cfg:         &o.cfg,
		ready:       make([]float64, len(cfg.Sites)),
		busy:        make([]float64, len(cfg.Sites)),
		records:     make([]metrics.JobRecord, 0, len(cfg.Jobs)),
		riskTaken:   make(map[int]bool, len(cfg.Jobs)),
		failed:      make(map[int]bool, len(cfg.Jobs)),
		fellBack:    make(map[int]bool, len(cfg.Jobs)),
		interrupted: make(map[int]int),
		deps:        dag.NewTracker(),
		failRand:    cfg.Rand.Derive("engine/failures"),
		timeRand:    cfg.Rand.Derive("engine/failtime"),
		events:      make(eventQueue, 0, 1024),
	}
	if o.cfg.Admission != nil {
		o.st.adm = newAdmState(o.cfg.Admission)
	}
	if snap != nil {
		// Position the (still empty) queue at the snapshot's clock so
		// everything re-queued below lands exactly where the saved run
		// stood.
		if math.IsNaN(snap.Now) || snap.Now < 0 {
			return nil, fmt.Errorf("sched: restore: snapshot clock at t=%v", snap.Now)
		}
		o.st.now, o.st.executed = snap.Now, snap.Executed
	}

	if o.cfg.Dynamics != nil {
		dyn, err := newDynState(o.cfg.Dynamics, o.cfg.Sites)
		if err != nil {
			return nil, err
		}
		o.st.dyn = dyn
		// Schedule churn ahead of the job preload so that at equal
		// timestamps churn applies before arrivals — the same relative
		// order the daemon path sees, where arrivals are always injected
		// after construction. On restore, only the churn still ahead of
		// the snapshot clock goes back on the queue; because churn is
		// scheduled before anything else ever is, its sequence numbers
		// are below every runtime event's and scheduling it first here
		// reproduces the original tie-break order.
		for i, ev := range o.cfg.Dynamics.Churn {
			if snap != nil && ev.Time <= snap.Now {
				continue
			}
			o.st.schedule(event{at: ev.Time, kind: evChurn, churn: int32(i)})
		}
	}

	if snap != nil {
		if err := o.restore(snap); err != nil {
			return nil, err
		}
	} else {
		jobs := grid.CloneAll(cfg.Jobs)
		sort.SliceStable(jobs, func(i, k int) bool { return jobs[i].Arrival < jobs[k].Arrival })
		for _, j := range jobs {
			o.st.deps.Hand(j.ID)
			o.st.schedule(event{at: j.Arrival, kind: evArrival, job: j})
		}
	}
	o.st.setGuard()
	return o, nil
}

// Submit clones j and puts its arrival on the engine's event queue.
// The job's Arrival is a lower bound: if the clock has passed it, the
// arrival is clamped to the clock. Arrivals execute in (timestamp,
// submission order). Loop goroutine only.
func (o *Online) Submit(j *grid.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	at := j.Arrival
	if at < o.st.now {
		at = o.st.now
	}
	o.st.deps.Hand(j.ID)
	o.st.schedule(event{at: at, kind: evArrival, job: j.Clone()})
	return nil
}

// SubmitLocal forwards to Submit; the benchmark harness's engine probe
// (bench/probes.go) still calls it by this name.
func (o *Online) SubmitLocal(j *grid.Job) error { return o.Submit(j) }

// AdvanceTo executes the simulation up to virtual time t, leaving the
// clock at t. Loop goroutine only.
func (o *Online) AdvanceTo(t float64) error { return o.st.run(t) }

// Drain runs the engine until everything submitted so far has
// completed, then returns the aggregated result. The engine stays
// usable: more jobs may be submitted and the clock advanced further
// afterwards. Loop goroutine only.
func (o *Online) Drain() (*Result, error) {
	if err := o.st.run(math.Inf(1)); err != nil {
		return nil, err
	}
	if o.st.remaining != 0 {
		if b := o.st.deps.BlockedCount(); b > 0 {
			return nil, fmt.Errorf("sched: simulation drained with %d jobs incomplete (%d blocked on dependencies that never completed)", o.st.remaining, b)
		}
		return nil, fmt.Errorf("sched: simulation drained with %d jobs incomplete", o.st.remaining)
	}
	return o.Result()
}

// Summary returns the incremental §4.1 summary over everything
// completed so far. O(sites) — cheap enough for a metrics endpoint to
// poll, and the only summary available under DiscardRecords. Loop
// goroutine only.
func (o *Online) Summary() metrics.Summary {
	return o.st.acc.Summarize(o.st.busy)
}

// Result aggregates the metrics over everything completed so far. Loop
// goroutine only.
func (o *Online) Result() (*Result, error) {
	var summary metrics.Summary
	if o.cfg.DiscardRecords {
		summary = o.Summary()
	} else {
		var err error
		summary, err = metrics.Compute(o.st.records, o.st.busy)
		if err != nil {
			return nil, err
		}
	}
	return &Result{
		Summary:       summary,
		Records:       o.st.records,
		Batches:       o.st.batches,
		Events:        o.st.executed,
		SchedulerTime: o.st.schedTime,
		LargestBatch:  o.st.largest,
	}, nil
}

// SetTenantWeight sets (or updates) a tenant's fair-share weight for
// deficit-round-robin batch formation. Loop goroutine only. Weights are
// part of the determinism contract: for a replayable run, set them
// before the tenant's first arrival is ingested (the daemon registers
// tenants up front, and the batch simulator takes the same vector in
// AdmissionConfig.Weights). A non-positive weight is treated as 1 at
// scheduling time. No-op on engines built without RunConfig.Admission —
// without a round budget there is nothing for a weight to share.
func (o *Online) SetTenantWeight(tenant string, weight float64) {
	if o.st.adm == nil {
		return
	}
	o.st.adm.weights[tenant] = weight
}

// SetEventSink installs (or replaces) the engine's event observer
// after construction — how the coordinator wires its per-shard
// remap-and-buffer closures. Events only fire while the engine
// executes, so calling this between construction and the next
// AdvanceTo/Drain on the driving goroutine is race-free. Loop goroutine
// only.
func (o *Online) SetEventSink(fn func(EngineEvent)) { o.cfg.OnEvent = fn }

// MetricsState exposes the incremental §4.1 accumulator state and the
// per-site busy vector for cross-shard aggregation (the returned slice
// is the engine's own — read only, loop goroutine only).
func (o *Online) MetricsState() (metrics.AccumulatorState, []float64) {
	return o.st.acc.State(), o.st.busy
}

// Now returns the current virtual time. Loop goroutine only.
func (o *Online) Now() float64 { return o.st.now }

// Seen returns how many jobs have arrived (been ingested) so far. Loop
// goroutine only.
func (o *Online) Seen() int { return o.st.seen }

// InFlight returns how many ingested jobs have not yet completed. Loop
// goroutine only.
func (o *Online) InFlight() int { return o.st.remaining }

// Batches returns the number of scheduling rounds that dispatched jobs.
// Loop goroutine only.
func (o *Online) Batches() int { return o.st.batches }

// LargestBatch returns the maximum batch size scheduled in one round.
// Loop goroutine only.
func (o *Online) LargestBatch() int { return o.st.largest }
