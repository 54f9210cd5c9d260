package heuristics

import (
	"fmt"
	"math"
	"sort"

	"trustgrid/internal/grid"
	"trustgrid/internal/sched"
)

// RankMinMin is the critical-path-aware greedy variant for dependent
// workloads (DESIGN.md §14): a HEFT-style list scheduler. Jobs are
// ordered by descending upward rank — a job's mean execution time plus
// the heaviest chain of blocked successors waiting on it, installed by
// the engine on DAG rounds — and each takes the policy-eligible site
// with the earliest completion time. Scheduling the longest remaining
// chains first shortens the paths that bound a DAG's makespan, where
// plain Min-Min defers exactly those heavy jobs to the end.
//
// On batches without engine-installed ranks the column defaults to the
// mean ETC row (workload × mean inverse speed), so the order degrades
// to largest-job-first — a Max-Min-flavored independent-job heuristic.
// A RankMinMin value reuses its arenas across Schedule calls and is
// not safe for concurrent use.
type RankMinMin struct {
	Policy grid.Policy
	order  []int32
	start  []float64
}

// NewRankMinMin builds a RankMinMin scheduler under the given policy.
func NewRankMinMin(p grid.Policy) *RankMinMin { return &RankMinMin{Policy: p} }

// Name implements sched.Scheduler.
func (r *RankMinMin) Name() string { return fmt.Sprintf("Rank-Min-Min %s", r.Policy.Name()) }

// Schedule implements sched.Scheduler.
func (r *RankMinMin) Schedule(batch []*grid.Job, st *sched.State) []sched.Assignment {
	n := len(batch)
	if n == 0 {
		return nil
	}
	k := st.Snapshot(batch)
	ranks := k.Ranks()

	r.order = grow(r.order, n)
	order := r.order[:n]
	for i := range order {
		order[i] = int32(i)
	}
	// Descending rank; ties break on batch position (arrival order) so
	// the schedule is deterministic for equal-rank jobs.
	sort.SliceStable(order, func(a, b int) bool { return ranks[order[a]] > ranks[order[b]] })

	r.start = growF64(r.start, k.M)
	start := r.start[:k.M]
	for s := 0; s < k.M; s++ {
		v := k.Ready[s]
		if k.Now > v {
			v = k.Now
		}
		start[s] = v
	}

	etc := k.ETC()
	out := make([]sched.Assignment, 0, n)
	for _, oi := range order {
		i := int(oi)
		elig := k.Eligible(r.Policy, i)
		row := etc[i*k.M : (i+1)*k.M]
		best, bestCT := -1, math.Inf(1)
		for _, site := range elig.Sites() {
			if ct := start[site] + row[site]; ct < bestCT {
				best, bestCT = site, ct
			}
		}
		start[best] = bestCT
		out = append(out, sched.Assignment{Job: batch[i], Site: best, FellBack: elig.FellBack})
	}
	return out
}
