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
// A dependency on a job the engine holds but has not seen arrive yet —
// manual-mode replays may deliver parents after children — blocks until
// that ID completes. All iteration orders are fixed by insertion order,
// never map order, so release sequences are reproducible run to run.
//
// The tracker keeps only what a future dependency can still ask about
// (DESIGN.md §14.3). Every job the engine is handed (Hand) is counted
// until it completes; each time the smallest such ID completes, the
// horizon rises to just below the smallest one still counted (to the
// largest ID handed, when none is), so every ID handed so far and at or
// below it has completed, and it only rises.
// Completed IDs at or below the horizon are dropped from the done set:
// a dependency on such an ID counts as satisfied unless the ID was
// handed after the horizon passed it and has not completed yet (the
// late set). The horizon is derived from the engine's own inputs, so a
// restored or replayed engine derives the same one. The contract this
// rests on: a dependency names a job handed to the engine before the
// dependent (the service validates that; a closed-world workload hands
// every job up front). A dependency on an ID at or below the horizon
// that was never handed counts as satisfied; one above it that is never
// handed blocks forever, surfacing as an incomplete-jobs error at drain.
type Tracker struct {
	done     idset.Map[struct{}] // completed IDs above the horizon
	blocked  map[int]*grid.Job
	unmet    map[int]int
	children map[int][]int // incomplete parent ID -> blocked successor IDs
	// order stamps each blocked job with its arrival sequence so
	// Blocked() can return the pen in arrival order — the order restore
	// must re-Arrive them in to reproduce the original release order.
	order   map[int]uint64
	nextOrd uint64

	// horizon is noHorizon until the first handed ID completes. The
	// handed IDs above the horizon that were not known to be done when
	// last looked at are live, ascending in hand order — IDs are handed
	// ascending but for explicit ones out of order — and liveHeap, a
	// min-heap of those handed below live's last; both are popped only at
	// their minimum. late counts the handed, incomplete IDs at or below
	// the horizon; maxHanded is the largest ID ever handed.
	horizon   int
	live      []int
	liveHeap  []int
	late      map[int]int
	maxHanded int
	// dropAt is the done set's size at which advance next drops what
	// lies at or below the horizon.
	dropAt int

	sawEdges bool
}

// noHorizon is the horizon before any handed job completes: below every ID.
const noHorizon = math.MinInt

// NewTracker returns an empty ready-set tracker.
func NewTracker() *Tracker {
	return &Tracker{
		blocked:   make(map[int]*grid.Job),
		unmet:     make(map[int]int),
		children:  make(map[int][]int),
		order:     make(map[int]uint64),
		horizon:   noHorizon,
		late:      make(map[int]int),
		maxHanded: noHorizon,
	}
}

// SawEdges reports whether any job ever arrived with dependencies.
// Sticky: once a workload uses edges, rank-aware scheduling stays on
// for the rest of the run. Edge-free runs keep it false, which is the
// switch that preserves their bit-identical placement sequences.
func (t *Tracker) SawEdges() bool { return t.sawEdges }

// Hand counts a job the engine has taken on, at submission — before its
// arrival, which may be later — until Complete sees its ID.
func (t *Tracker) Hand(id int) {
	if id <= t.horizon {
		t.late[id]++
		return
	}
	if n := len(t.live); n == 0 || id >= t.live[n-1] {
		t.live = append(t.live, id)
	} else {
		t.pushHeap(id)
	}
	t.maxHanded = max(t.maxHanded, id)
}

// Horizon returns the tracker's horizon and whether it has one yet.
func (t *Tracker) Horizon() (int, bool) { return t.horizon, t.horizon != noHorizon }

// isDone reports whether the job with ID id has completed, as far as a
// dependency on it can tell (see Tracker).
func (t *Tracker) isDone(id int) bool {
	if id <= t.horizon {
		return t.late[id] == 0
	}
	return t.done.Has(id)
}

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
		if !t.isDone(d) {
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
	if id <= t.horizon {
		if n := t.late[id]; n > 1 {
			t.late[id] = n - 1
		} else {
			delete(t.late, id)
		}
	} else {
		t.done.Put(id, struct{}{})
		if m, ok := t.minLive(); ok && m == id {
			// Only the smallest live ID holds the horizon back.
			t.advance()
		}
	}
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

// advance raises the horizon to just below the smallest live ID — to the
// largest handed ID when none is live — and drops the done IDs it
// passes. Each handed ID is popped once; handed in ascending order, as
// the service and the batch preload hand them, a pop is O(1).
func (t *Tracker) advance() {
	for {
		m, ok := t.minLive()
		if !ok || !t.done.Has(m) {
			break
		}
		if len(t.live) > 0 && t.live[0] == m {
			t.live = t.live[1:]
		} else {
			t.popHeap()
		}
	}
	h := t.maxHanded
	if m, ok := t.minLive(); ok {
		h = m - 1
	}
	if h > t.horizon {
		t.horizon = h
		// The done IDs at or below the horizon are never read again; they
		// go once they are as many as the set held after the last drop.
		if t.done.Len() >= t.dropAt {
			t.done.DropThrough(h)
			t.dropAt = 2*t.done.Len() + minDrop
		}
	}
}

// minDrop is the least number of done IDs a drop waits for.
const minDrop = 64

// minLive returns the smallest live ID.
func (t *Tracker) minLive() (int, bool) {
	switch {
	case len(t.live) == 0 && len(t.liveHeap) == 0:
		return 0, false
	case len(t.liveHeap) == 0:
		return t.live[0], true
	case len(t.live) == 0:
		return t.liveHeap[0], true
	}
	return min(t.live[0], t.liveHeap[0]), true
}

// pushHeap and popHeap keep t.liveHeap a binary min-heap.
func (t *Tracker) pushHeap(id int) {
	t.liveHeap = append(t.liveHeap, id)
	for i := len(t.liveHeap) - 1; i > 0; {
		p := (i - 1) / 2
		if t.liveHeap[p] <= t.liveHeap[i] {
			break
		}
		t.liveHeap[p], t.liveHeap[i] = t.liveHeap[i], t.liveHeap[p]
		i = p
	}
}

func (t *Tracker) popHeap() {
	h := t.liveHeap
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	t.liveHeap = h
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

// DoneIDs returns the completed IDs above the horizon, ascending, for
// snapshots: the set's own ascending column, so nothing is copied,
// walked or sorted beyond the completions that arrived out of order
// since the last call (DESIGN.md §10.2). The slice belongs to the
// tracker: read it only, and only until the next Complete. Its length
// follows the jobs in flight, not the jobs ever completed.
func (t *Tracker) DoneIDs() []int {
	if t.horizon != noHorizon {
		t.done.DropThrough(t.horizon)
	}
	ids, _ := t.done.Columns()
	return ids
}

// RestoreDone reloads a snapshot's completed-ID set, and RestoreHorizon
// its horizon. Call both before handing the snapshot's in-flight jobs
// back (Hand) and re-Arriving the queue and blocked pen, so readiness
// decisions match the interrupted run's. RestoreDone deliberately does
// not touch SawEdges — every completion lands in the done set, edges or
// not, and turning rank mode on for a restored edge-free run would
// change its placements. A snapshot written before the horizon existed
// carries every completed ID and no horizon; the first completion after
// the restore derives one.
func (t *Tracker) RestoreDone(ids []int) {
	for _, id := range ids {
		t.done.Put(id, struct{}{}) // ascending: appends
		t.maxHanded = max(t.maxHanded, id)
	}
}

// RestoreHorizon reloads a snapshot's horizon; see RestoreDone.
func (t *Tracker) RestoreHorizon(h int) {
	t.horizon = h
	t.maxHanded = max(t.maxHanded, h)
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
// unchecked Online.Submit use) contributes zero rather than recursing
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
