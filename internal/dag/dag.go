package dag

import (
	"fmt"
	"math"
	"sort"

	"trustgrid/internal/grid"
	"trustgrid/internal/idset"
)

// Validate checks the dependency structure of a complete job list:
// every edge must reference a job in the list, no job may depend on
// itself, list the same parent twice, or sit on a cycle. It is the
// whole-workload check for batch configs and trace tooling; the online
// server enforces the same invariants incrementally at submission time
// (where cycles are impossible because edges can only point backward).
// Lists without any edges always pass, including ones with duplicate
// IDs — only a workload that actually uses references needs them to be
// unambiguous.
func Validate(jobs []*grid.Job) error {
	hasEdges := false
	for _, j := range jobs {
		if len(j.DependsOn) > 0 {
			hasEdges = true
			break
		}
	}
	if !hasEdges {
		return nil
	}

	idx := make(map[int]int, len(jobs))
	for i, j := range jobs {
		if prev, dup := idx[j.ID]; dup {
			return fmt.Errorf("dag: job ID %d appears at positions %d and %d (dependency references would be ambiguous)", j.ID, prev, i)
		}
		idx[j.ID] = i
	}

	// Kahn's algorithm over the known edges; a cycle leaves nodes with
	// positive in-degree unprocessed. Iterative on purpose: fuzzed and
	// generated workloads can be one very long chain.
	indeg := make([]int, len(jobs))
	children := make([][]int, len(jobs))
	for i, j := range jobs {
		seen := make(map[int]struct{}, len(j.DependsOn))
		for _, d := range j.DependsOn {
			if d == j.ID {
				return fmt.Errorf("dag: job %d depends on itself", j.ID)
			}
			if _, dup := seen[d]; dup {
				return fmt.Errorf("dag: job %d lists dependency %d twice", j.ID, d)
			}
			seen[d] = struct{}{}
			p, ok := idx[d]
			if !ok {
				return fmt.Errorf("dag: job %d depends on unknown job %d", j.ID, d)
			}
			children[p] = append(children[p], i)
			indeg[i]++
		}
	}
	ready := make([]int, 0, len(jobs))
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	processed := 0
	for len(ready) > 0 {
		i := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		processed++
		for _, c := range children[i] {
			if indeg[c]--; indeg[c] == 0 {
				ready = append(ready, c)
			}
		}
	}
	if processed != len(jobs) {
		for i, d := range indeg {
			if d > 0 {
				return fmt.Errorf("dag: job %d sits on a dependency cycle", jobs[i].ID)
			}
		}
	}
	return nil
}

// Tracker is the engine's deterministic ready-set: it decides at
// arrival time whether a job can enter the scheduling queue and, at
// completion time, which blocked successors that completion releases.
// A dependency on a job the tracker has never seen simply blocks until
// that ID completes — manual-mode replays may deliver parents after
// children — and a reference that never completes blocks forever,
// surfacing as an incomplete-jobs error at drain. All iteration orders
// are fixed by insertion order, never map order, so release sequences
// are reproducible run to run.
type Tracker struct {
	done     idset.Map[struct{}]
	blocked  map[int]*grid.Job
	unmet    map[int]int
	children map[int][]int // incomplete parent ID -> blocked successor IDs
	// order stamps each blocked job with its arrival sequence so
	// Blocked() can return the pen in arrival order — the order restore
	// must re-Arrive them in to reproduce the original release order.
	order   map[int]uint64
	nextOrd uint64

	sawEdges bool
}

// NewTracker returns an empty ready-set tracker.
func NewTracker() *Tracker {
	return &Tracker{
		blocked:  make(map[int]*grid.Job),
		unmet:    make(map[int]int),
		children: make(map[int][]int),
		order:    make(map[int]uint64),
	}
}

// SawEdges reports whether any job ever arrived with dependencies.
// Sticky: once a workload uses edges, rank-aware scheduling stays on
// for the rest of the run. Edge-free runs keep it false, which is the
// switch that preserves their bit-identical placement sequences.
func (t *Tracker) SawEdges() bool { return t.sawEdges }

// Arrive registers an arriving job and reports whether it is ready to
// be scheduled. A false return means the tracker holds the job in its
// blocked pen until Complete releases it; the caller must not queue it.
func (t *Tracker) Arrive(j *grid.Job) bool {
	if len(j.DependsOn) > 0 {
		t.sawEdges = true
	}
	unmet := 0
	for i, d := range j.DependsOn {
		dup := false
		for _, prev := range j.DependsOn[:i] {
			if prev == d {
				dup = true
				break
			}
		}
		if dup {
			// Duplicate edges are rejected at every validated entry point;
			// counting one here twice would leave the job blocked forever
			// after its parent completes, so tolerate the unchecked path.
			continue
		}
		if !t.done.Has(d) {
			unmet++
			t.children[d] = append(t.children[d], j.ID)
		}
	}
	if unmet == 0 {
		return true
	}
	t.blocked[j.ID] = j
	t.unmet[j.ID] = unmet
	t.nextOrd++
	t.order[j.ID] = t.nextOrd
	return false
}

// Complete records a job's completion and returns the blocked jobs it
// releases, in the order they originally arrived (the order their IDs
// were appended to the completed job's successor list).
func (t *Tracker) Complete(id int) []*grid.Job {
	t.done.Put(id, struct{}{})
	succ := t.children[id]
	if succ == nil {
		return nil
	}
	delete(t.children, id)
	var released []*grid.Job
	for _, c := range succ {
		if t.unmet[c]--; t.unmet[c] == 0 {
			released = append(released, t.blocked[c])
			delete(t.blocked, c)
			delete(t.unmet, c)
			delete(t.order, c)
		}
	}
	return released
}

// BlockedCount reports how many arrived jobs are waiting on parents.
func (t *Tracker) BlockedCount() int { return len(t.blocked) }

// Blocked returns the waiting jobs in arrival order. Snapshots persist
// this order, and restore re-Arrives the pen in it, so every parent's
// successor list — and with it every release order — is rebuilt exactly
// as the interrupted run had it.
func (t *Tracker) Blocked() []*grid.Job {
	out := make([]*grid.Job, 0, len(t.blocked))
	for _, j := range t.blocked {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return t.order[out[i].ID] < t.order[out[k].ID] })
	return out
}

// DoneIDs returns the completed-job ID set sorted ascending, for
// snapshots: the set's own ascending column, so nothing is copied,
// walked or sorted beyond the completions that arrived out of order
// since the last call (DESIGN.md §10.2). The slice belongs to the
// tracker: read it only, and only until the next Complete. The set grows
// without bound over a long-running service; a retention rule is
// ROADMAP item 2(a)'s open half.
func (t *Tracker) DoneIDs() []int {
	ids, _ := t.done.Columns()
	return ids
}

// RestoreDone reloads a snapshot's completed-ID set. Call before
// re-Arriving the queue and blocked pen so readiness decisions match
// the crashed run's. It deliberately does not touch SawEdges — every
// completion lands in the done set, edges or not, and turning rank
// mode on for a restored edge-free run would change its placements.
func (t *Tracker) RestoreDone(ids []int) {
	for _, id := range ids {
		t.done.Put(id, struct{}{}) // ascending: appends
	}
}

// MarkEdges restores the sticky edges-seen flag from a snapshot.
func (t *Tracker) MarkEdges() { t.sawEdges = true }

// BatchRanks fills out[i] with the HEFT-style upward rank of batch[i]:
// the job's mean execution time (workload × meanInv, the mean inverse
// speed over alive sites) plus the largest rank among the blocked
// successors waiting on it. Jobs with no waiting successors rank at
// their own mean execution time, so on edge-free batches the rank
// order degenerates to plain workload order. Results are memoized
// across the batch; a cycle among blocked jobs (only reachable through
// unchecked SubmitLocal use) contributes zero rather than recursing
// forever.
func (t *Tracker) BatchRanks(batch []*grid.Job, meanInv float64, out []float64) {
	memo := make(map[int]float64, len(batch))
	for i, j := range batch {
		out[i] = t.rank(j.ID, j.Workload, meanInv, memo)
	}
}

func (t *Tracker) rank(id int, workload, meanInv float64, memo map[int]float64) float64 {
	if v, ok := memo[id]; ok {
		if math.IsNaN(v) {
			return 0
		}
		return v
	}
	memo[id] = math.NaN()
	var best float64
	for _, c := range t.children[id] {
		j, ok := t.blocked[c]
		if !ok {
			continue
		}
		if r := t.rank(c, j.Workload, meanInv, memo); r > best {
			best = r
		}
	}
	v := workload*meanInv + best
	memo[id] = v
	return v
}
