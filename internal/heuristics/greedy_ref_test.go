package heuristics

import (
	"math"
	"testing"

	"trustgrid/internal/grid"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
)

// referenceGreedy is a frozen copy of the pre-kernel greedyBatch: every
// round recomputes every unscheduled job's best and second-best
// completion times from scratch. The incremental implementation must
// reproduce it assignment-for-assignment — including every tie — on any
// input, which TestGreedyMatchesReference checks over randomized
// instances. Keep this in sync with nothing: it is the oracle.
func referenceGreedy(batch []*grid.Job, st *sched.State, policy grid.Policy, rule string) []sched.Assignment {
	type cand struct {
		jobIdx   int
		bestSite int
		bestCT   float64
		secondCT float64
		fellBack bool
	}
	pick := func(cands []cand) int {
		best := 0
		switch rule {
		case "minmin":
			for i := 1; i < len(cands); i++ {
				if cands[i].bestCT < cands[best].bestCT {
					best = i
				}
			}
		case "maxmin":
			for i := 1; i < len(cands); i++ {
				if cands[i].bestCT > cands[best].bestCT {
					best = i
				}
			}
		case "sufferage":
			bestVal := cands[0].secondCT - cands[0].bestCT
			for i := 1; i < len(cands); i++ {
				if v := cands[i].secondCT - cands[i].bestCT; v > bestVal {
					best, bestVal = i, v
				}
			}
		}
		return best
	}

	n := len(batch)
	out := make([]sched.Assignment, 0, n)
	if n == 0 {
		return out
	}
	ready := make([]float64, len(st.Ready))
	copy(ready, st.Ready)
	work := sched.State{Now: st.Now, Sites: st.Sites, Ready: ready}

	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	eligible := make([][]int, n)
	fellBack := make([]bool, n)
	for i, j := range batch {
		eligible[i], fellBack[i] = st.EligibleSites(policy, j)
	}

	var cands []cand
	for len(remaining) > 0 {
		cands = cands[:0]
		for _, jobIdx := range remaining {
			j := batch[jobIdx]
			c := cand{jobIdx: jobIdx, bestSite: -1,
				bestCT: math.Inf(1), secondCT: math.Inf(1), fellBack: fellBack[jobIdx]}
			for _, site := range eligible[jobIdx] {
				ct := work.CompletionTime(j, site)
				switch {
				case ct < c.bestCT:
					c.secondCT = c.bestCT
					c.bestCT = ct
					c.bestSite = site
				case ct < c.secondCT:
					c.secondCT = ct
				}
			}
			cands = append(cands, c)
		}
		winner := cands[pick(cands)]
		j := batch[winner.jobIdx]
		out = append(out, sched.Assignment{Job: j, Site: winner.bestSite, FellBack: winner.fellBack})
		work.Ready[winner.bestSite] = winner.bestCT
		for k, idx := range remaining {
			if idx == winner.jobIdx {
				remaining = append(remaining[:k], remaining[k+1:]...)
				break
			}
		}
	}
	return out
}

// randomGreedyInstance mirrors the kernel property tests' generator:
// duplicate SLs and speeds (real ties), impossible demands, dead sites.
// m is the site count; large values exercise the bucket and lazy-heap
// paths at the scale where the old rescan implementation's pile-on
// pathology lived.
func randomGreedyInstance(r *rng.Stream, m int) ([]*grid.Job, *sched.State) {
	levels := []float64{0.3, 0.5, 0.5, 0.8, 1.0}
	speeds := []float64{10, 10, 20, 40, 80}
	sites := make([]*grid.Site, m)
	for k := range sites {
		sites[k] = &grid.Site{ID: k, Speed: speeds[r.Intn(len(speeds))], Nodes: 1,
			SecurityLevel: levels[r.Intn(len(levels))]}
	}
	n := 1 + r.Intn(25)
	jobs := make([]*grid.Job, n)
	workloads := []float64{100, 100, 5000, 5000, 90000}
	for i := range jobs {
		jobs[i] = &grid.Job{ID: i, Workload: workloads[r.Intn(len(workloads))], Nodes: 1,
			SecurityDemand: r.Float64(), MustBeSafe: r.Bool(0.2)}
	}
	ready := make([]float64, m)
	for k := range ready {
		// Coarse grid so ready-time ties actually occur.
		ready[k] = float64(r.Intn(4)) * 100
	}
	var alive []bool
	if r.Bool(0.4) {
		alive = make([]bool, m)
		for k := range alive {
			alive[k] = r.Bool(0.8)
		}
		alive[r.Intn(m)] = true // the engine never hands a batch a dead grid
	}
	return jobs, &sched.State{Now: float64(r.Intn(3)) * 150, Sites: sites, Ready: ready, Alive: alive}
}

// wideGreedyInstance is the m = 1024 family: the shape of the wide live
// rounds, which randomGreedyInstance's five-value grids never produce.
// Security levels and demands are continuous, so every job is its own
// admission class and f-risky verdicts fall anywhere around the cut;
// ready times and the clock are non-zero and mix a coarse grid (ties
// across sites) with continuous values; and workloads are distinct but
// include neighbours one ulp apart, whose quotients collide on the
// sites whose speed rounds them together and differ on the others — the
// equal-ETC runs Min-Min now finds by dividing rather than by reading
// the matrix.
func wideGreedyInstance(t *testing.T, r *rng.Stream) ([]*grid.Job, *sched.State) {
	const m = 1024
	speeds := []float64{3, 7, 10, 30, 64, 100}
	sites := make([]*grid.Site, m)
	ready := make([]float64, m)
	for k := range sites {
		sites[k] = &grid.Site{ID: k, Speed: speeds[r.Intn(len(speeds))], Nodes: 1,
			SecurityLevel: r.Uniform(0.4, 1)}
		ready[k] = float64(r.Intn(4)) * 100
		if r.Bool(0.5) {
			ready[k] = r.Float64() * 400
		}
	}
	// collides reports whether w and its neighbour towards to share a
	// quotient on some speed; on the power-of-two speed they never do.
	collides := func(w, to float64) bool {
		for _, sp := range speeds {
			if w/sp == math.Nextafter(w, to)/sp {
				return true
			}
		}
		return false
	}
	n := 20 + r.Intn(20)
	jobs := make([]*grid.Job, n)
	pairs := 0
	for i := range jobs {
		// The neighbour goes below as often as above: only then does a run
		// hold a lower batch index behind a higher one.
		w, to := 1000+r.Float64()*200000, math.Inf(1-2*r.Intn(2))
		switch {
		case i > 0 && collides(jobs[i-1].Workload, to) && r.Bool(0.5):
			w = math.Nextafter(jobs[i-1].Workload, to)
			pairs++
		case r.Bool(0.5):
			for !collides(w, to) {
				w = 1000 + r.Float64()*200000
			}
		}
		jobs[i] = &grid.Job{ID: i, Workload: w, Nodes: 1,
			SecurityDemand: r.Uniform(0.6, 0.9), MustBeSafe: r.Bool(0.1)}
	}
	if pairs == 0 {
		t.Fatal("instance has no distinct workloads whose quotients collide")
	}
	var alive []bool
	if r.Bool(0.3) {
		alive = make([]bool, m)
		for k := range alive {
			alive[k] = r.Bool(0.9)
		}
	}
	return jobs, &sched.State{Now: 50 + r.Float64()*200, Sites: sites, Ready: ready, Alive: alive}
}

// TestGreedyMatchesReference pins the incremental greedyBatch to the
// full-recompute oracle, bit for bit, across random instances designed
// to hit ties, fallbacks and dead sites.
func TestGreedyMatchesReference(t *testing.T) {
	r := rng.New(20260730)
	rules := []struct {
		name string
		mk   func(grid.Policy) sched.Scheduler
	}{
		{"minmin", func(p grid.Policy) sched.Scheduler { return NewMinMin(p) }},
		{"maxmin", func(p grid.Policy) sched.Scheduler { return NewMaxMin(p) }},
		{"sufferage", func(p grid.Policy) sched.Scheduler { return NewSufferage(p) }},
	}
	for trial := 0; trial < 400; trial++ {
		// Most trials stay small (dense tie coverage); every tenth runs
		// large — up to, and twice exactly, m=1024 — so the candidate
		// structures are pinned to the oracle at the scale they were
		// built for.
		m := 1 + r.Intn(10)
		switch {
		case trial == 100 || trial == 300:
			m = 1024
		case trial%10 == 5:
			m = 1 + r.Intn(1024)
		}
		jobs, st := randomGreedyInstance(r, m)
		// Every twentieth trial is the wide continuous family instead.
		if trial%20 == 10 {
			jobs, st = wideGreedyInstance(t, r)
		}
		var policy grid.Policy
		switch r.Intn(3) {
		case 0:
			policy = grid.SecurePolicy()
		case 1:
			policy = grid.RiskyPolicy()
		default:
			policy = grid.FRiskyPolicy(r.Float64())
		}
		for _, rule := range rules {
			want := referenceGreedy(jobs, st, policy, rule.name)
			// Fresh state per run: Schedule caches the snapshot on it.
			got := rule.mk(policy).Schedule(jobs, &sched.State{
				Now: st.Now, Sites: st.Sites, Ready: st.Ready, Alive: st.Alive,
			})
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: %d assignments, want %d", trial, rule.name, len(got), len(want))
			}
			for i := range want {
				if got[i].Job.ID != want[i].Job.ID || got[i].Site != want[i].Site ||
					got[i].FellBack != want[i].FellBack {
					t.Fatalf("trial %d %s: assignment %d = (job %d, site %d, fb %v), want (job %d, site %d, fb %v)",
						trial, rule.name, i,
						got[i].Job.ID, got[i].Site, got[i].FellBack,
						want[i].Job.ID, want[i].Site, want[i].FellBack)
				}
			}
		}
	}
}
