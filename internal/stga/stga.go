package stga

import (
	"sort"

	"trustgrid/internal/ga"
	"trustgrid/internal/grid"
	"trustgrid/internal/heuristics"
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
	// MaxSeeds caps how many historical schedules enter the initial
	// population; the remainder is random to guarantee diversity (§3).
	// Zero means population/2.
	MaxSeeds int
	// UseEq2Literal selects the paper's literal Eq. 2 similarity instead
	// of the normalized default (DESIGN.md §2.3).
	UseEq2Literal bool
	// DisableHistory turns the STGA into the conventional cold-start GA
	// baseline (the "GA" curve of the paper's Fig. 5 comparison).
	DisableHistory bool
	// Policy is the site admission rule. The default is f-risky at the
	// paper's operating point f = 0.5: the Fig. 7(a) analysis shows the
	// optimal admission threshold lies at 0.5–0.6, and the STGA adopting
	// it is what lets it dominate every heuristic while remaining a heavy
	// risk-taker (its balanced schedules spread load across moderately
	// unsafe sites, so its N_risk stays among the highest). A pure Risky
	// policy admits near-certain-failure placements whose rework
	// concentrates on the few strictly safe sites and drags the tail.
	// Must-be-safe rescheduled jobs are always restricted regardless.
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
	// RiskPenalty κ makes the fitness security-aware: a placement's cost
	// is ETC × (1 + κ·P(fail)), charging the expected rework of risky
	// dispatches. The risk-penalty ablation shows this *hurts*: inflating
	// the ETCs misleads the load balancing, and a hard admission
	// threshold (Policy) beats every κ > 0. Default 0 (fitness on true
	// completion times, as in the paper).
	RiskPenalty float64
	// Security is the failure law used by RiskPenalty (Eq. 1).
	Security grid.SecurityModel
	// LoadWeight is the coefficient of an optional secondary total-load
	// fitness term (see makespanFitness). Default 0: with the f-risky
	// admission threshold in place, the pure completion-time fitness of
	// the paper wins; the ablations show the load term only helps when
	// the policy is fully Risky on wide-speed-spread platforms.
	LoadWeight float64
}

// DefaultConfig returns the Table 1 configuration.
func DefaultConfig() Config {
	return Config{
		GA:                  ga.DefaultConfig(),
		HistorySize:         150,
		SimilarityThreshold: 0.8,
		Policy:              grid.FRiskyPolicy(0.5),
		SeedHeuristics:      true,
		RiskPenalty:         0,
		Security:            grid.NewSecurityModel(),
		LoadWeight:          0,
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

	// LastTrajectory is the best-fitness-per-generation curve of the most
	// recent batch (index 0 = initial population). The convergence
	// experiments (Figs. 5 and 7(b)) read it.
	LastTrajectory []float64
	// AllTrajectories holds one trajectory per batch when
	// Config.RecordTrajectories is set.
	AllTrajectories [][]float64
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

// makespanFitness returns the GA fitness function: the batch makespan of
// the encoded schedule given the current ready vector (§3: "the fitness
// value ... is the completion time of the schedule"), plus an optional
// total-load term (loadWeight × mean consumed execution time). The load
// term exists for Risky-policy configurations on wide-speed-spread
// platforms, where pure makespan treats every placement below the batch
// maximum as free; under the default f-risky policy it is disabled
// (loadWeight = 0), matching the paper's fitness exactly.
//
// The zero-weight decode — the GA's hottest loop — is fused: the span
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
// site's own final value.
func makespanFitness(nSites int, base, etc []float64, loadWeight float64) ga.Fitness {
	loads := make([]float64, nSites) // scratch, reused across calls
	if loadWeight == 0 {
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
	return func(c ga.Chromosome) float64 {
		for i := range loads {
			loads[i] = 0
		}
		total := 0.0
		for jobIdx, site := range c {
			e := etc[jobIdx*nSites+site]
			loads[site] += e
			total += e
		}
		span := 0.0
		for i, l := range loads {
			if l == 0 {
				continue
			}
			if f := base[i] + l; f > span {
				span = f
			}
		}
		return span + loadWeight*total/float64(nSites)
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

	var seeds []ga.Chromosome
	if s.cfg.SeedHeuristics {
		seeds = append(seeds, heuristicChromosome(s.minmin, batch, st))
		seeds = append(seeds, heuristicChromosome(s.sufferage, batch, st))
	}
	if !s.cfg.DisableHistory {
		maxSeeds := s.cfg.MaxSeeds
		if maxSeeds == 0 {
			maxSeeds = s.cfg.GA.PopulationSize / 2
		}
		nSites := len(st.Sites)
		if matches := s.table.Lookup(ready, etc, sd, s.cfg.SimilarityThreshold, maxSeeds); len(matches) > 0 {
			newOrder := rankOrder(etc, sd, nSites, len(batch))
			for _, m := range matches {
				seeds = append(seeds, adaptSeedOrdered(m.Entry, newOrder, len(batch)))
			}
		}
	}

	fitEtc := etc
	if s.cfg.RiskPenalty > 0 {
		fitEtc = make([]float64, len(etc))
		nSites := len(st.Sites)
		for i, j := range batch {
			for k, site := range st.Sites {
				p := s.cfg.Security.FailProb(j.SecurityDemand, site.SecurityLevel)
				fitEtc[i*nSites+k] = etc[i*nSites+k] * (1 + s.cfg.RiskPenalty*p)
			}
		}
	}
	// The fitness closure keeps a per-instance scratch buffer, so the
	// parallel evaluator gets a factory producing one instance per
	// worker; the bare Fitness covers the serial path.
	base := fitnessBase(st)
	nSites := len(st.Sites)
	problem := &ga.Problem{
		Length:  len(batch),
		Allowed: allowed,
		Fitness: makespanFitness(nSites, base, fitEtc, s.cfg.LoadWeight),
		NewFitness: func() ga.Fitness {
			return makespanFitness(nSites, base, fitEtc, s.cfg.LoadWeight)
		},
	}
	res, err := ga.Run(problem, s.cfg.GA, seeds, runRand)
	if err != nil {
		// The problem construction above is total (allowed sets are never
		// empty thanks to the policy fallback), so an error here is a
		// programming bug, not an input condition.
		panic("stga: GA run failed: " + err.Error())
	}
	s.LastTrajectory = res.Trajectory
	if s.cfg.RecordTrajectories {
		s.AllTrajectories = append(s.AllTrajectories, res.Trajectory)
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
