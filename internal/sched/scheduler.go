package sched

import (
	"fmt"

	"trustgrid/internal/grid"
	"trustgrid/internal/obs"
	"trustgrid/internal/sched/kernel"
)

// State is the scheduler-visible grid state at a scheduling event.
type State struct {
	// Now is the current simulation time.
	Now float64
	// Sites is the site list. On static runs it is immutable; on dynamic
	// grids (RunConfig.Dynamics) the engine refreshes SecurityLevel and
	// Speed between batches, so schedulers always see the live trust and
	// capacity vectors.
	Sites []*grid.Site
	// Ready[i] is the earliest time site i becomes free given everything
	// dispatched so far. Schedulers read it; the Engine owns it.
	Ready []float64
	// Alive[i] reports whether site i is in service. Nil means every
	// site is up (static runs). Schedulers must not dispatch to a dead
	// site; use EligibleSites, which folds liveness into admission.
	Alive []bool
	// Kern is the columnar snapshot of the current batch. The engine
	// builds it once per Δ-round; schedulers obtain it through Snapshot,
	// which falls back to building one lazily when the state was
	// constructed by hand (tests, Train). The snapshot's eligibility
	// cache is shared by everything scheduling the same batch — the
	// STGA's Min-Min/Sufferage seeding reuses the sets the GA's allowed
	// genes are built from.
	Kern *kernel.Snapshot
}

// Snapshot returns the columnar view of this batch, building and
// caching it on first use. The batch must be the exact slice the
// engine passed to Scheduler.Schedule.
func (st *State) Snapshot(batch []*grid.Job) *kernel.Snapshot {
	if st.Kern == nil || !st.Kern.ForBatch(batch) {
		st.Kern = kernel.Build(st.Now, st.Sites, st.Ready, st.Alive, batch)
	}
	return st.Kern
}

// SiteAlive reports whether site i is in service.
func (st *State) SiteAlive(i int) bool { return st.Alive == nil || st.Alive[i] }

// EligibleSites returns the indices of in-service sites the policy
// admits for job j. If none qualify it falls back to the max-SL site
// among the live ones (fellBack = true); with no site alive at all —
// which the engine never lets a batch see — it degrades to the global
// max-SL site so the API stays total. Schedulers should call this
// rather than Policy.EligibleSites, which is liveness-blind.
func (st *State) EligibleSites(p grid.Policy, j *grid.Job) (idx []int, fellBack bool) {
	if st.Alive == nil {
		return p.EligibleSites(j, st.Sites)
	}
	idx = make([]int, 0, len(st.Sites))
	bestLive, bestLevel := -1, -1.0
	for i, s := range st.Sites {
		if !st.Alive[i] {
			continue
		}
		if s.SecurityLevel > bestLevel {
			bestLive, bestLevel = i, s.SecurityLevel
		}
		if p.Admits(j, s) {
			idx = append(idx, i)
		}
	}
	if len(idx) > 0 {
		return idx, false
	}
	if bestLive >= 0 {
		return []int{bestLive}, true
	}
	_, best := grid.MaxSecurityLevel(st.Sites)
	return []int{best}, true
}

// CompletionTime returns max(Now, Ready[site]) + ETC(job, site), the
// quantity Min-Min/Sufferage minimize — the paper's "expected time to
// complete" includes the site's availability.
func (st *State) CompletionTime(j *grid.Job, site int) float64 {
	start := st.Ready[site]
	if st.Now > start {
		start = st.Now
	}
	return start + st.Sites[site].ExecTime(j)
}

// Assignment maps one job to one site for immediate dispatch.
type Assignment struct {
	Job  *grid.Job
	Site int
	// FellBack records that no site satisfied the job's policy and the
	// max-SL fallback was used (cannot happen on feasible platforms).
	FellBack bool
}

// Scheduler maps a batch of queued jobs onto sites. Implementations must
// return exactly one assignment per job and must not mutate st.Ready
// (they may copy it to simulate their own dispatch sequence).
type Scheduler interface {
	// Name identifies the algorithm in reports (e.g. "Min-Min Secure").
	Name() string
	// Schedule assigns every job in the batch. The batch slice is owned
	// by the caller; implementations must not retain it.
	Schedule(batch []*grid.Job, st *State) []Assignment
}

// StatefulScheduler is a Scheduler whose decisions depend on mutable
// cross-batch state — the STGA's history table and GA stream, Random's
// stream. Online.Snapshot captures that state and RestoreOnline feeds
// it back, so a recovered engine's future placements match the
// uninterrupted run's. Stateless schedulers (Min-Min, Sufferage, MCT,
// MET, OLB) need not implement it.
type StatefulScheduler interface {
	Scheduler
	// SaveState serializes the cross-batch decision state.
	SaveState() ([]byte, error)
	// RestoreState replaces the cross-batch decision state with a saved
	// one. The scheduler must have been constructed with the same
	// configuration that produced the blob.
	RestoreState([]byte) error
}

// GAWork counts the work a GA scheduler has done since it was built:
// generations run, fitness decodes actually made (after carry-forward),
// and history-table lookups that returned a seed (hits) or none
// (misses), each round's last improving generation
// (ga.Result.LastImproved, observed with obs.Histogram.ObserveCount),
// the rounds that ended with their best on the span floor
// (ga.Result.FloorStop), and those that ended on a proof that their
// seeds' or initial population's best was optimal (ga.Result.ProvedStop).
// It is counted once per round, never per gene, and is observability
// only: nothing in it reaches an event or a WAL record.
type GAWork struct {
	Generations, Evaluations   uint64
	HistoryHits, HistoryMisses uint64
	LastImproved               obs.Counts
	FloorStops, ProvedStops    uint64
}

// Add folds o into w, as when summing shards.
func (w *GAWork) Add(o GAWork) {
	w.Generations += o.Generations
	w.Evaluations += o.Evaluations
	w.HistoryHits += o.HistoryHits
	w.HistoryMisses += o.HistoryMisses
	w.LastImproved.Add(o.LastImproved)
	w.FloorStops += o.FloorStops
	w.ProvedStops += o.ProvedStops
}

// GAWorker is a Scheduler that counts its GA work. GAWork must be safe
// from any goroutine.
type GAWorker interface {
	GAWork() GAWork
}

// ValidateAssignments checks the scheduling contract: every batch job
// assigned exactly once, site indices in range. Used by tests and the
// engine's debug mode.
func ValidateAssignments(batch []*grid.Job, as []Assignment, numSites int) error {
	if len(as) != len(batch) {
		return fmt.Errorf("sched: %d assignments for %d jobs", len(as), len(batch))
	}
	seen := make(map[int]bool, len(batch))
	inBatch := make(map[int]bool, len(batch))
	for _, j := range batch {
		inBatch[j.ID] = true
	}
	for _, a := range as {
		if a.Job == nil {
			return fmt.Errorf("sched: assignment with nil job")
		}
		if !inBatch[a.Job.ID] {
			return fmt.Errorf("sched: job %d not in batch", a.Job.ID)
		}
		if seen[a.Job.ID] {
			return fmt.Errorf("sched: job %d assigned twice", a.Job.ID)
		}
		seen[a.Job.ID] = true
		if a.Site < 0 || a.Site >= numSites {
			return fmt.Errorf("sched: job %d assigned to invalid site %d", a.Job.ID, a.Site)
		}
	}
	return nil
}
