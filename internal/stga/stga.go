package stga

import (
	"math"
	"sort"
	"sync/atomic"

	"trustgrid/internal/ga"
	"trustgrid/internal/grid"
	"trustgrid/internal/heuristics"
	"trustgrid/internal/obs"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
)

// Config holds the STGA parameters (Table 1 defaults via DefaultConfig).
type Config struct {
	// GA holds the evolutionary hyper-parameters (population 200,
	// 100 generations, crossover 0.8, mutation 0.01).
	GA ga.Config
	// HistorySize is the lookup-table capacity (Table 1: 150).
	HistorySize int
	// SimilarityThreshold gates seeding (Table 1: 0.8).
	SimilarityThreshold float64
	// UseEq2Literal selects the paper's literal Eq. 2 similarity instead
	// of the normalized default (DESIGN.md §2.3).
	UseEq2Literal bool
	// DisableHistory turns the STGA into the conventional cold-start GA
	// baseline (the "GA" curve of the paper's Fig. 5 comparison).
	DisableHistory bool
	// Policy is the site admission rule. The default is f-risky at the
	// paper's operating point f = 0.5, where Fig. 7(a) puts the optimal
	// admission threshold (0.5–0.6). It keeps the moderately unsafe
	// sites that Secure idles, so queues do not build on the few safe
	// ones, and it refuses the near-certain failures Risky admits, whose
	// rework concentrates on those same safe sites and drags the tail.
	// It does not make the STGA dominate the heuristics: on NAS it is
	// level with its own f-risky Min-Min seed and ranks 3rd in Table 2,
	// well ahead of both Secure rows (DESIGN.md §2.4). Must-be-safe
	// rescheduled jobs are always restricted regardless.
	Policy grid.Policy
	// RecordTrajectories accumulates every batch's best-fitness curve in
	// Scheduler.AllTrajectories (used by the Fig. 5 convergence
	// experiment). Off by default to save memory on long runs.
	RecordTrajectories bool
	// SeedHeuristics adds the current batch's Min-Min and Sufferage
	// schedules to the initial population (on by default). The paper
	// bootstraps the population from heuristic schedules via the history
	// table; seeding the current batch directly makes that bootstrap
	// robust even when no stored entry clears the similarity threshold,
	// and with elitism it guarantees the STGA never returns a batch
	// schedule worse than either heuristic.
	SeedHeuristics bool
}

// DefaultConfig returns the Table 1 configuration.
func DefaultConfig() Config {
	return Config{
		GA:                  ga.DefaultConfig(),
		HistorySize:         150,
		SimilarityThreshold: 0.8,
		Policy:              grid.FRiskyPolicy(0.5),
		SeedHeuristics:      true,
	}
}

// Scheduler is the Space-Time GA batch scheduler. It implements
// sched.Scheduler. Not safe for concurrent use (it owns a random stream
// and the history table).
type Scheduler struct {
	cfg   Config
	table *HistoryTable
	rand  *rng.Stream
	batch int
	// Persistent seeding heuristics: MinMin and Sufferage carry arena
	// state (candidate buckets, lazy heaps) that is expensive to grow
	// from nothing, so one instance of each lives as long as the
	// scheduler instead of being rebuilt every batch.
	minmin    *heuristics.MinMin
	sufferage *heuristics.Sufferage
	// dec is the fitness decode's scratch, reused across rounds, and
	// prover the optimality proof's.
	dec    decoder
	prover prover

	// LastTrajectory is the best-fitness-per-generation curve of the most
	// recent batch (index 0 = initial population). The convergence
	// experiments (Figs. 5 and 7(b)) read it.
	LastTrajectory []float64
	// AllTrajectories holds one trajectory per batch when
	// Config.RecordTrajectories is set, AllFloors each batch's span
	// floor beside it (ga.Problem.Floor: 0 when the round had none), and
	// AllProved whether the prover certified the batch's initial best
	// (where a Stall > 0 run stops at generation 0).
	AllTrajectories [][]float64
	AllFloors       []float64
	AllProved       []bool

	// Work counters (GAWork), added to once per round. Atomic so a
	// metrics scrape can read them while a round runs.
	generations, evaluations, hits, misses, floorStops, provedStops atomic.Uint64
	lastImproved                                                    obs.Histogram
}

// GAWork implements sched.GAWorker.
func (s *Scheduler) GAWork() sched.GAWork {
	return sched.GAWork{
		Generations:   s.generations.Load(),
		Evaluations:   s.evaluations.Load(),
		HistoryHits:   s.hits.Load(),
		HistoryMisses: s.misses.Load(),
		LastImproved:  s.lastImproved.Load(),
		FloorStops:    s.floorStops.Load(),
		ProvedStops:   s.provedStops.Load(),
	}
}

// New creates an STGA scheduler. r must be a dedicated stream.
func New(cfg Config, r *rng.Stream) *Scheduler {
	table := NewHistoryTable(cfg.HistorySize)
	table.UseEq2Literal = cfg.UseEq2Literal
	return &Scheduler{cfg: cfg, table: table, rand: r,
		minmin:    heuristics.NewMinMin(cfg.Policy),
		sufferage: heuristics.NewSufferage(cfg.Policy),
	}
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string {
	if s.cfg.DisableHistory {
		return "GA (cold start)"
	}
	return "STGA"
}

// Table exposes the history table for inspection (tests, ablations).
func (s *Scheduler) Table() *HistoryTable { return s.table }

// batchInputs builds the three Eq. 2 parameter vectors for a batch from
// the columnar snapshot. The ETC matrix and SD vector are the
// snapshot's own columns (Snapshot.ETC fills the matrix with exactly
// grid.ETCMatrix's layout and arithmetic); history entries keep copies,
// because a Builder reuses the storage next round.
func batchInputs(batch []*grid.Job, st *sched.State) (ready, etc, sd []float64) {
	k := st.Snapshot(batch)
	ready = make([]float64, len(k.Ready))
	for i, r := range k.Ready {
		rel := r - k.Now
		if rel < 0 {
			rel = 0
		}
		ready[i] = rel
	}
	return ready, k.ETC(), k.SD
}

// fitnessBase returns max(Now, Ready) per site — the availability
// offsets the fitness decode adds loads to.
func fitnessBase(st *sched.State) []float64 {
	base := make([]float64, len(st.Ready))
	for i, r := range st.Ready {
		if st.Now > r {
			base[i] = st.Now
		} else {
			base[i] = r
		}
	}
	return base
}

// spanFloor returns the round's span floor: a lower bound on the span
// fitness of every legal chromosome, the largest over jobs j of j's
// cheapest base[s]+etc[j·m+s] over its allowed sites s. Both decodes
// score a chromosome at least base[s]+l for each job j it puts on site
// s, where l is a load of s that includes etc[j·m+s] (the running load
// in the scalar decode, the final one in decode4). With every allowed
// ETC > 0 a load only rises, and rounding is monotone, so l ≥
// etc[j·m+s] and base[s]+l ≥ base[s]+etc[j·m+s] ≥ j's minimum. The
// floor is built from the decodes' own additions, so the comparison
// is exact. ok is false, and the round has no floor, when an allowed
// ETC is ≤ 0 or not finite, or a base or the floor is not finite.
func spanFloor(m int, allowed [][]int, base, etc []float64) (floor float64, ok bool) {
	for _, b := range base {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return 0, false
		}
	}
	floor = math.Inf(-1)
	for j, sites := range allowed {
		row := etc[j*m : (j+1)*m]
		cheapest := math.Inf(1)
		for _, site := range sites {
			e := row[site]
			if !(e > 0 && e <= math.MaxFloat64) {
				return 0, false
			}
			cheapest = min(cheapest, base[site]+e)
		}
		floor = max(floor, cheapest)
	}
	return floor, !math.IsInf(floor, 0)
}

// makespanFitness returns the GA fitness function: the batch makespan of
// the encoded schedule given the current ready vector (§3: "the fitness
// value ... is the completion time of the schedule").
//
// The decode — the GA's hottest loop — is fused: the span
// is the running maximum of base[site]+load taken as the loads
// accumulate. ETCs are non-negative, so each site's partial sums rise
// to its final load and the running maximum equals the separate
// final-pass maximum bit-for-bit (same candidate floats, same per-site
// addition order). Fusing removes the O(m) finishing scan — at m=1024,
// batch 200, the old decode spent 5/6 of its time visiting sites the
// chromosome never touches. The scratch zeroing stays (Go's memclr of
// 8 KB is ~60 ns); an epoch-stamp variant that avoids it was measured
// 2-3x slower at m ∈ {256, 1024} because its per-gene first-touch
// branch is data-dependent and mispredicts constantly. The l > 0 guard
// preserves the scan version's semantics for the zero-ETC edge: a site
// whose assigned jobs all have zero ETC contributes no candidate, and
// partial sums of an eventually-positive site are dominated by that
// site's own final value. Rounds that pass decoder.stage's gate score
// four chromosomes per pass with decode4 instead, to the same bits;
// this loop stays the reference and the portable path.
func makespanFitness(nSites int, base, etc []float64) ga.Fitness {
	loads := make([]float64, nSites) // scratch, reused across calls
	return func(c ga.Chromosome) float64 {
		for i := range loads {
			loads[i] = 0
		}
		span := 0.0
		off := 0
		for _, site := range c {
			l := loads[site] + etc[off+site]
			loads[site] = l
			if l > 0 {
				if f := base[site] + l; f > span {
					span = f
				}
			}
			off += nSites
		}
		return span
	}
}

// adaptSeed transfers a stored schedule onto the current batch by rank
// matching: jobs on both sides are sorted by (workload surrogate,
// security demand) and paired in order, so a recurring job spec inherits
// the site its twin was assigned last time. Positional tiling — the
// naive adaptation — scrambles the mapping whenever batch boundaries
// drift relative to the recurring submission pattern; rank matching is
// exact for identical spec multisets and graceful otherwise. The GA's
// Repair clamps any gene the current policy disallows.
func adaptSeed(e *Entry, etc, sd []float64, nSites, length int) ga.Chromosome {
	if len(e.SD) == 0 {
		return make(ga.Chromosome, length)
	}
	return adaptSeedOrdered(e, rankOrder(etc, sd, nSites, length), length)
}

// adaptSeedOrdered is adaptSeed with the new batch's rank order already
// computed: it is identical for every match of one lookup, and the
// stored side's order is cached on the entry at Insert, so adapting a
// full complement of seeds costs one sort instead of two per seed.
func adaptSeedOrdered(e *Entry, newOrder []int, length int) ga.Chromosome {
	storedLen := len(e.SD)
	if storedLen == 0 {
		return make(ga.Chromosome, length)
	}
	storedOrder := e.rankOrd
	if storedOrder == nil {
		storedOrder = rankOrder(e.ETC, e.SD, len(e.ETC)/storedLen, storedLen)
	}
	out := make(ga.Chromosome, length)
	for rank, newIdx := range newOrder {
		storedIdx := storedOrder[rank*storedLen/length]
		out[newIdx] = e.Best[storedIdx]
	}
	return out
}

// rankOrder returns job indices sorted by (first-site ETC, SD). The
// first ETC column is a workload surrogate: with fixed sites every row
// is proportional to the job's workload.
func rankOrder(etc, sd []float64, nSites, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ea, eb := etc[order[a]*nSites], etc[order[b]*nSites]
		if ea != eb {
			return ea < eb
		}
		return sd[order[a]] < sd[order[b]]
	})
	return order
}

// heuristicChromosome encodes a batch heuristic's schedule as a GA seed.
func heuristicChromosome(h sched.Scheduler, batch []*grid.Job, st *sched.State) ga.Chromosome {
	pos := make(map[int]int, len(batch))
	for i, j := range batch {
		pos[j.ID] = i
	}
	c := make(ga.Chromosome, len(batch))
	for _, a := range h.Schedule(batch, st) {
		c[pos[a.Job.ID]] = a.Site
	}
	return c
}

// Schedule implements sched.Scheduler: seed the GA population from the
// history table, evolve, record the result back into the table, and
// return the best assignment.
func (s *Scheduler) Schedule(batch []*grid.Job, st *sched.State) []sched.Assignment {
	if len(batch) == 0 {
		return nil
	}
	s.batch++
	runRand := s.rand.DeriveIndexed("batch", s.batch)

	kern := st.Snapshot(batch)
	allowed := make([][]int, len(batch))
	fellBack := make([]bool, len(batch))
	for i := range batch {
		// Liveness-aware: a departed site never enters a gene's allowed
		// set, so the GA cannot evolve placements onto it. The snapshot's
		// eligibility classes are shared with the heuristic seeding below.
		elig := kern.Eligible(s.cfg.Policy, i)
		allowed[i], fellBack[i] = elig.Sites(), elig.FellBack
	}
	ready, etc, sd := batchInputs(batch, st)
	nSites := len(st.Sites)

	// One scorer per evaluation worker: the 4-way decode kernel when
	// the round passes its gate, else the scalar decode, whose closure
	// keeps a per-instance scratch buffer. The span floor ends the run
	// once its best is trivially optimal, and the prover once it can
	// show it optimal (a Stall > 0 run only).
	base := fitnessBase(st)
	problem := &ga.Problem{
		Length:    len(batch),
		Allowed:   allowed,
		NewScorer: s.dec.scorers(nSites, base, etc),
	}
	pr := &s.prover
	if floor, ok := pr.reset(nSites, allowed, base, etc); ok {
		problem.Floor, problem.Prove = floor, pr.prove
	}

	var seeds []ga.Chromosome
	// proved: the Min-Min seed is already optimal, so the run returns it
	// whatever else the population holds (seeds come first, and Run
	// returns the first minimum). The Sufferage seed and the history
	// matches are then not built; the lookup still runs, for the LRU
	// stamps and hit statistics later rounds depend on.
	proved := false
	if s.cfg.SeedHeuristics {
		seeds = append(seeds, heuristicChromosome(s.minmin, batch, st))
		if problem.Prove != nil && s.cfg.GA.Stall > 0 {
			span, legal := pr.score(seeds[0])
			proved = legal && pr.prove(span)
		}
		if !proved {
			seeds = append(seeds, heuristicChromosome(s.sufferage, batch, st))
		}
	}
	if !s.cfg.DisableHistory {
		// At most half the population comes from history; the random
		// remainder keeps it diverse (§3).
		if matches := s.table.Lookup(ready, etc, sd, s.cfg.SimilarityThreshold, s.cfg.GA.PopulationSize/2); len(matches) > 0 {
			s.hits.Add(1)
			if !proved {
				newOrder := rankOrder(etc, sd, nSites, len(batch))
				for _, m := range matches {
					seeds = append(seeds, adaptSeedOrdered(m.Entry, newOrder, len(batch)))
				}
			}
		} else {
			s.misses.Add(1)
		}
	}

	res, err := ga.Run(problem, s.cfg.GA, seeds, runRand)
	if err != nil {
		// The problem construction above is total (allowed sets are never
		// empty thanks to the policy fallback), so an error here is a
		// programming bug, not an input condition.
		panic("stga: GA run failed: " + err.Error())
	}
	s.generations.Add(uint64(res.Generations))
	s.evaluations.Add(uint64(res.Evaluations))
	s.lastImproved.ObserveCount(res.LastImproved)
	if res.FloorStop {
		s.floorStops.Add(1)
	}
	if res.ProvedStop {
		s.provedStops.Add(1)
	}
	s.LastTrajectory = res.Trajectory
	if s.cfg.RecordTrajectories {
		s.AllTrajectories = append(s.AllTrajectories, res.Trajectory)
		s.AllFloors = append(s.AllFloors, problem.Floor)
		s.AllProved = append(s.AllProved, pr.prove(res.Trajectory[0]))
	}

	if !s.cfg.DisableHistory {
		// The ETC/SD slices alias the round's snapshot, whose storage the
		// engine reuses next round; the table outlives it, so copy.
		s.table.Insert(&Entry{
			Ready: ready,
			ETC:   append([]float64(nil), etc...),
			SD:    append([]float64(nil), sd...),
			Best:  res.Best.Clone(),
		})
	}

	// Emit each site's jobs shortest-first (SPT). The per-site job sets —
	// and therefore the batch makespan the GA optimized — are unchanged,
	// but serving short jobs first minimizes the mean completion time
	// within each site's queue, which is what the response-time and
	// slowdown metrics reward.
	//
	// On DAG rounds (engine-installed ranks) the per-site fold instead
	// processes jobs in descending upward rank — the precedence-feasible
	// decode of DESIGN.md §14: jobs heading the heaviest blocked chains
	// run first within their site, releasing successors as early as
	// possible. The batch itself can never contain both ends of an edge
	// (ready-release batch formation), so feasibility needs only this
	// ordering choice. The switch keys on HasDAGRanks, which is false on
	// every edge-free round — those keep the historical SPT key and thus
	// bit-identical emission. Neither key changes the GA's draw sequence.
	type emit struct {
		a sched.Assignment
		// key sorts ascending within a site: ETC for SPT, negated upward
		// rank on DAG rounds.
		key float64
	}
	useRank := kern.HasDAGRanks()
	var ranks []float64
	if useRank {
		ranks = kern.Ranks()
	}
	emits := make([]emit, len(batch))
	for i, j := range batch {
		site := res.Best[i]
		key := etc[i*nSites+site]
		if useRank {
			key = -ranks[i]
		}
		emits[i] = emit{
			a:   sched.Assignment{Job: j, Site: site, FellBack: fellBack[i]},
			key: key,
		}
	}
	sort.SliceStable(emits, func(a, b int) bool {
		if emits[a].a.Site != emits[b].a.Site {
			return emits[a].a.Site < emits[b].a.Site
		}
		return emits[a].key < emits[b].key
	})
	out := make([]sched.Assignment, len(batch))
	for i, e := range emits {
		out[i] = e.a
	}
	return out
}

// Train pre-populates the history table by scheduling training jobs in
// fixed-size batches with the Min-Min and Sufferage heuristics
// (alternating), as the paper does with 500 training jobs before
// measurement (§3, Table 1). The training dispatches advance a private
// copy of the ready vector so successive entries see realistic site
// availability; the real simulation state is untouched.
func (s *Scheduler) Train(jobs []*grid.Job, sites []*grid.Site, batchSize int) {
	if s.cfg.DisableHistory || batchSize <= 0 {
		return
	}
	minmin, sufferage := s.minmin, s.sufferage
	ready := make([]float64, len(sites))
	for start, b := 0, 0; start < len(jobs); start, b = start+batchSize, b+1 {
		end := start + batchSize
		if end > len(jobs) {
			end = len(jobs)
		}
		batch := jobs[start:end]
		st := &sched.State{Now: 0, Sites: sites, Ready: ready}
		var as []sched.Assignment
		if b%2 == 0 {
			as = minmin.Schedule(batch, st)
		} else {
			as = sufferage.Schedule(batch, st)
		}
		readyVec, etc, sd := batchInputs(batch, st)
		best := make(ga.Chromosome, len(batch))
		pos := make(map[int]int, len(batch))
		for i, j := range batch {
			pos[j.ID] = i
		}
		for _, a := range as {
			best[pos[a.Job.ID]] = a.Site
			ready[a.Site] = st.CompletionTime(a.Job, a.Site)
		}
		// Copy the snapshot-aliased slices for the same reason Schedule
		// does: entries outlive the batch.
		s.table.Insert(&Entry{
			Ready: readyVec,
			ETC:   append([]float64(nil), etc...),
			SD:    append([]float64(nil), sd...),
			Best:  best,
		})
	}
}
