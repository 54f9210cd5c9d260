// Package sched implements the paper's on-line job scheduling system
// model (Fig. 1): jobs arrive over time into a queue, a batch scheduler
// runs periodically and maps the accumulated batch onto grid sites, sites
// execute their local queues, and failed jobs (per the Eq. 1 security
// model) are re-queued for strictly safe re-dispatch.
//
// The package defines the Scheduler contract that the heuristics and the
// STGA implement, and the discrete-event engine that drives a full
// simulation and collects metrics: one queue of plain-data events
// ordered by (time, scheduling sequence), which a snapshot serializes.
//
// With RunConfig.Dynamics the fixed platform becomes a dynamic grid
// (DESIGN.md §7): a churn trace drives sites crashing (interrupting and
// re-dispatching their running jobs), draining, rejoining and
// degrading; the Eq. 1 failure law may sample from ground-truth
// security levels that diverge from declarations; and reputation
// feedback re-derives the scheduler-visible trust vector from observed
// outcomes between batches.
//
// DESIGN.md §1.1 inventory row: the Fig. 1 online model: periodic batch scheduling, dispatch, Eq. 1 failure sampling, safe re-dispatch; defines the Scheduler contract, the discrete-event queue (§6.1), the incremental Online engine (§6.3) and the dynamic-grid extension (§7).
package sched
