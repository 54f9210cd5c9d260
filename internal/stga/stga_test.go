package stga

import (
	"math"
	"testing"
	"testing/quick"

	"trustgrid/internal/ga"
	"trustgrid/internal/grid"
	"trustgrid/internal/heuristics"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
)

// --- similarity ---

func TestSimilarityIdentical(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	if s := Similarity(v, v); s != 1 {
		t.Fatalf("Similarity(v,v) = %v, want 1", s)
	}
	if s := SimilarityEq2(v, v); s != 1 {
		t.Fatalf("SimilarityEq2(v,v) = %v, want 1", s)
	}
}

func TestSimilarityEmpty(t *testing.T) {
	if s := Similarity(nil, nil); s != 1 {
		t.Fatalf("both empty should be 1, got %v", s)
	}
	if s := Similarity([]float64{1}, nil); s != 0 {
		t.Fatalf("one empty should be 0, got %v", s)
	}
}

func TestSimilarityAllZero(t *testing.T) {
	if s := Similarity([]float64{0, 0}, []float64{0, 0}); s != 1 {
		t.Fatalf("all-zero vectors are identical, got %v", s)
	}
}

func TestSimilarityKnownValue(t *testing.T) {
	a := []float64{10, 20}
	b := []float64{10, 10}
	// Eq2 literal: 1 - 10/20 = 0.5. Normalized: 1 - 10/(2*20) = 0.75.
	if s := SimilarityEq2(a, b); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("Eq2 = %v, want 0.5", s)
	}
	if s := Similarity(a, b); math.Abs(s-0.75) > 1e-12 {
		t.Fatalf("normalized = %v, want 0.75", s)
	}
}

func TestEq2GoesNegativeOnLongVectors(t *testing.T) {
	// The documented pathology: many moderate element-wise differences
	// push the literal Eq. 2 below zero while the normalized variant
	// stays high. This is why the scheduler defaults to normalized.
	a := make([]float64, 50)
	b := make([]float64, 50)
	for i := range a {
		a[i] = 100
		b[i] = 90
	}
	if s := SimilarityEq2(a, b); s >= 0 {
		t.Fatalf("Eq2 literal should be negative here, got %v", s)
	}
	if s := Similarity(a, b); s < 0.85 {
		t.Fatalf("normalized should stay high, got %v", s)
	}
}

func TestSimilaritySymmetricAndBounded(t *testing.T) {
	r := rng.New(42)
	check := func(n uint8) bool {
		k := int(n%20) + 1
		a := make([]float64, k)
		b := make([]float64, k)
		for i := range a {
			a[i] = r.Float64() * 100
			b[i] = r.Float64() * 100
		}
		sab, sba := Similarity(a, b), Similarity(b, a)
		if math.Abs(sab-sba) > 1e-12 {
			return false
		}
		// Normalized similarity of same-length vectors with non-negative
		// entries is within [−1, 1]; each |aᵢ−bᵢ| ≤ max.
		return sab <= 1+1e-12 && sab >= -1-1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSimilarityLengthPenalty(t *testing.T) {
	a := []float64{5, 5, 5, 5}
	b := []float64{5, 5}
	s := Similarity(a, b)
	// Identical prefix, but only half the length: penalty 2/4.
	if math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("length-mismatch similarity = %v, want 0.5", s)
	}
}

// --- history table ---

func TestHistoryInsertLookup(t *testing.T) {
	tb := NewHistoryTable(10)
	e := &Entry{Ready: []float64{0, 0}, ETC: []float64{1, 2}, SD: []float64{0.7}, Best: ga.Chromosome{1}}
	tb.Insert(e)
	matches := tb.Lookup([]float64{0, 0}, []float64{1, 2}, []float64{0.7}, 0.8, 10)
	if len(matches) != 1 || matches[0].Similarity < 0.999 {
		t.Fatalf("exact entry not found: %+v", matches)
	}
}

func TestHistoryThreshold(t *testing.T) {
	tb := NewHistoryTable(10)
	tb.Insert(&Entry{Ready: []float64{100}, ETC: []float64{100}, SD: []float64{0.9}, Best: ga.Chromosome{0}})
	matches := tb.Lookup([]float64{1}, []float64{1}, []float64{0.1}, 0.8, 10)
	if len(matches) != 0 {
		t.Fatalf("dissimilar entry matched: %+v", matches)
	}
}

func TestHistoryLRUEviction(t *testing.T) {
	tb := NewHistoryTable(2)
	mk := func(v float64) *Entry {
		return &Entry{Ready: []float64{v}, ETC: []float64{v}, SD: []float64{0.5}, Best: ga.Chromosome{0}}
	}
	tb.Insert(mk(1))
	tb.Insert(mk(2))
	// Touch entry 1 so entry 2 becomes the LRU victim.
	if got := tb.Lookup([]float64{1}, []float64{1}, []float64{0.5}, 0.99, 10); len(got) != 1 {
		t.Fatalf("expected to touch entry 1, got %d matches", len(got))
	}
	tb.Insert(mk(3)) // must evict entry 2
	if got := tb.Lookup([]float64{1}, []float64{1}, []float64{0.5}, 0.99, 10); len(got) != 1 {
		t.Fatal("entry 1 was wrongly evicted")
	}
	if got := tb.Lookup([]float64{2}, []float64{2}, []float64{0.5}, 0.99, 10); len(got) != 0 {
		t.Fatal("entry 2 should have been evicted")
	}
	if tb.Len() != 2 {
		t.Fatalf("table len %d, want capacity 2", tb.Len())
	}
}

// TestHistoryLookupMatchesReference pins the optimized Lookup path
// (cached maxima, ETC early-exit) to the reference entrySimilarity: every
// entry at or above the threshold is returned with the bit-identical
// score, and nothing below it leaks through — under both similarity
// variants and with mismatched vector lengths in the mix.
func TestHistoryLookupMatchesReference(t *testing.T) {
	for _, eq2 := range []bool{false, true} {
		r := rng.New(411)
		tb := NewHistoryTable(64)
		tb.UseEq2Literal = eq2
		vec := func(n int, scale float64) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = r.Float64() * scale
			}
			return v
		}
		for i := 0; i < 40; i++ {
			tb.Insert(&Entry{
				Ready: vec(4+r.Intn(3), 10),
				ETC:   vec(12+r.Intn(5), 100),
				SD:    vec(4+r.Intn(3), 1),
				Best:  ga.Chromosome{0},
			})
		}
		for trial := 0; trial < 25; trial++ {
			ready, etc, sd := vec(5, 10), vec(14, 100), vec(5, 1)
			threshold := r.Float64()*1.6 - 0.4
			want := map[*Entry]float64{}
			for _, e := range tb.entries {
				if s := tb.entrySimilarity(e, ready, etc, sd); s >= threshold {
					want[e] = s
				}
			}
			got := tb.Lookup(ready, etc, sd, threshold, 0)
			if len(got) != len(want) {
				t.Fatalf("eq2=%v threshold=%v: Lookup returned %d matches, reference %d",
					eq2, threshold, len(got), len(want))
			}
			for _, m := range got {
				if s, ok := want[m.Entry]; !ok || s != m.Similarity {
					t.Fatalf("eq2=%v: match score %v, reference %v (found=%v)",
						eq2, m.Similarity, s, ok)
				}
			}
		}
	}
}

func TestHistoryLookupCapAndOrdering(t *testing.T) {
	tb := NewHistoryTable(10)
	for _, v := range []float64{10, 1, 5} {
		tb.Insert(&Entry{Ready: []float64{v}, ETC: []float64{v}, SD: []float64{0.5}, Best: ga.Chromosome{0}})
	}
	matches := tb.Lookup([]float64{1}, []float64{1}, []float64{0.5}, 0.0, 2)
	if len(matches) != 2 {
		t.Fatalf("maxSeeds not applied: %d", len(matches))
	}
	if matches[0].Similarity < matches[1].Similarity {
		t.Fatal("matches not sorted by similarity descending")
	}
}

func TestHistoryHitRate(t *testing.T) {
	tb := NewHistoryTable(5)
	tb.Insert(&Entry{Ready: []float64{1}, ETC: []float64{1}, SD: []float64{0.5}, Best: ga.Chromosome{0}})
	tb.Lookup([]float64{1}, []float64{1}, []float64{0.5}, 0.9, 5)   // hit
	tb.Lookup([]float64{99}, []float64{99}, []float64{0.1}, 0.9, 5) // miss
	if hr := tb.HitRate(); math.Abs(hr-0.5) > 1e-12 {
		t.Fatalf("hit rate %v, want 0.5", hr)
	}
}

// --- STGA scheduler ---

func testSites() []*grid.Site {
	return []*grid.Site{
		{ID: 0, Speed: 10, Nodes: 1, SecurityLevel: 0.97},
		{ID: 1, Speed: 20, Nodes: 1, SecurityLevel: 0.65},
		{ID: 2, Speed: 40, Nodes: 1, SecurityLevel: 0.45},
	}
}

func testBatch(n int, seed uint64) []*grid.Job {
	r := rng.New(seed)
	jobs := make([]*grid.Job, n)
	for i := range jobs {
		jobs[i] = &grid.Job{
			ID: i, Workload: 100 + r.Float64()*900, Nodes: 1,
			SecurityDemand: r.Uniform(0.6, 0.9),
		}
	}
	return jobs
}

func freshState(sites []*grid.Site) *sched.State {
	return &sched.State{Now: 0, Sites: sites, Ready: make([]float64, len(sites))}
}

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.GA.PopulationSize = 40
	cfg.GA.Generations = 30
	return cfg
}

func TestSTGAContract(t *testing.T) {
	sites := testSites()
	batch := testBatch(15, 7)
	s := New(fastConfig(), rng.New(1))
	as := s.Schedule(batch, freshState(sites))
	if err := sched.ValidateAssignments(batch, as, len(sites)); err != nil {
		t.Fatal(err)
	}
	if gens := s.GAWork().Generations; gens != 30 || len(s.LastTrajectory) != int(gens)+1 {
		t.Fatalf("trajectory length %d over %d generations, want 30+1", len(s.LastTrajectory), gens)
	}
}

// TestStallKeepsRoundsIndependent: each round draws from its own
// stream, so where the stall rule ended round 1 cannot move a draw of
// round 2. Two cold, unseeded schedulers (no history, so round 1's
// result cannot reach round 2 through the table either) run different first rounds
// that stop at different generations, then the same second round, and
// must return the same schedule and trajectory for it.
func TestStallKeepsRoundsIndependent(t *testing.T) {
	cfg := fastConfig()
	cfg.GA.Generations = 200
	cfg.GA.Stall = 4
	cfg.DisableHistory = true
	cfg.SeedHeuristics = false // start from random schedules, which improve
	sites := testSites()
	second := testBatch(14, 21)
	var gens []uint64
	var schedules [][]sched.Assignment
	var curves [][]float64
	for _, first := range []int{5, 17} {
		s := New(cfg, rng.New(3))
		s.Schedule(testBatch(first, uint64(first)), freshState(sites))
		gens = append(gens, s.GAWork().Generations)
		schedules = append(schedules, s.Schedule(second, freshState(sites)))
		curves = append(curves, s.LastTrajectory)
	}
	if gens[0] == gens[1] {
		t.Fatalf("both first rounds stopped after %d generations: the test exercises nothing", gens[0])
	}
	for i := range schedules[0] {
		if schedules[0][i] != schedules[1][i] {
			t.Fatalf("round 2 placement %d differs after first rounds of %d and %d generations", i, gens[0], gens[1])
		}
	}
	if len(curves[0]) != len(curves[1]) {
		t.Fatalf("round 2 ran %d and %d generations", len(curves[0])-1, len(curves[1])-1)
	}
	for g := range curves[0] {
		if curves[0][g] != curves[1][g] {
			t.Fatalf("round 2 trajectories differ at generation %d", g)
		}
	}
}

func TestSTGABeatsOrMatchesMinMinOnBatchMakespan(t *testing.T) {
	// Under the same admission policy, the heuristic-seeded elitist GA
	// can only improve on Min-Min's fitness. The fitness carries a small
	// load-efficiency term, so allow the raw span a few percent of slack.
	sites := testSites()
	st := freshState(sites)
	wins := 0
	const trials = 10
	for i := 0; i < trials; i++ {
		batch := testBatch(20, uint64(100+i))
		cfg := fastConfig()
		mm := heuristics.NewMinMin(cfg.Policy).Schedule(batch, st)
		s := New(cfg, rng.New(uint64(i)))
		as := s.Schedule(batch, st)
		if batchMakespan(as, st) <= batchMakespan(mm, st)*1.05 {
			wins++
		}
	}
	if wins < trials-1 {
		t.Fatalf("STGA matched/beat Min-Min only %d/%d times", wins, trials)
	}
}

func batchMakespan(as []sched.Assignment, st *sched.State) float64 {
	ready := append([]float64(nil), st.Ready...)
	for _, a := range as {
		start := ready[a.Site]
		if st.Now > start {
			start = st.Now
		}
		ready[a.Site] = start + st.Sites[a.Site].ExecTime(a.Job)
	}
	span := 0.0
	for _, r := range ready {
		if r > span {
			span = r
		}
	}
	return span
}

func TestSTGARecordsHistory(t *testing.T) {
	s := New(fastConfig(), rng.New(2))
	sites := testSites()
	if s.Table().Len() != 0 {
		t.Fatal("table should start empty")
	}
	s.Schedule(testBatch(10, 1), freshState(sites))
	if s.Table().Len() != 1 {
		t.Fatalf("table len %d after one batch, want 1", s.Table().Len())
	}
}

func TestSTGAWarmStartBeatsColdStartAtGenZero(t *testing.T) {
	// Schedule the same batch twice: the second run must start from a
	// far better initial population thanks to the history seed (the
	// Fig. 5 phenomenon).
	sites := testSites()
	batch := testBatch(25, 3)
	st := freshState(sites)
	s := New(fastConfig(), rng.New(3))
	s.Schedule(batch, st)
	firstStart := s.LastTrajectory[0]
	firstEnd := s.LastTrajectory[len(s.LastTrajectory)-1]
	s.Schedule(batch, st)
	secondStart := s.LastTrajectory[0]
	if secondStart > firstEnd*1.001 {
		t.Fatalf("warm start %v should begin near prior best %v (cold start was %v)",
			secondStart, firstEnd, firstStart)
	}
}

func TestConvGAIgnoresHistory(t *testing.T) {
	cfg := fastConfig()
	cfg.DisableHistory = true
	s := New(cfg, rng.New(4))
	sites := testSites()
	s.Schedule(testBatch(10, 1), freshState(sites))
	if s.Table().Len() != 0 {
		t.Fatal("cold-start GA must not populate the table")
	}
	if s.Name() != "GA (cold start)" {
		t.Fatalf("name = %q", s.Name())
	}
}

func TestSTGAEmptyBatch(t *testing.T) {
	s := New(fastConfig(), rng.New(5))
	if got := s.Schedule(nil, freshState(testSites())); got != nil {
		t.Fatal("empty batch must return nil")
	}
}

func TestSTGAMustBeSafeRestriction(t *testing.T) {
	sites := testSites() // only site 0 (SL .97) is strictly safe for SD .9
	batch := testBatch(8, 9)
	for _, j := range batch {
		j.SecurityDemand = 0.9
		j.MustBeSafe = true
	}
	s := New(fastConfig(), rng.New(6))
	as := s.Schedule(batch, freshState(sites))
	for _, a := range as {
		if a.Site != 0 {
			t.Fatalf("must-be-safe job placed on unsafe site %d", a.Site)
		}
	}
}

func TestSTGADeterministic(t *testing.T) {
	sites := testSites()
	batch := testBatch(12, 11)
	a := New(fastConfig(), rng.New(7)).Schedule(batch, freshState(sites))
	b := New(fastConfig(), rng.New(7)).Schedule(batch, freshState(sites))
	for i := range a {
		if a[i].Site != b[i].Site {
			t.Fatal("STGA not deterministic under equal seeds")
		}
	}
}

func TestTrainPopulatesTable(t *testing.T) {
	s := New(fastConfig(), rng.New(8))
	jobs := testBatch(100, 13)
	s.Train(jobs, testSites(), 20)
	if s.Table().Len() != 5 {
		t.Fatalf("training with 100 jobs / batch 20 should insert 5 entries, got %d", s.Table().Len())
	}
}

func TestTrainNoopWhenDisabled(t *testing.T) {
	cfg := fastConfig()
	cfg.DisableHistory = true
	s := New(cfg, rng.New(9))
	s.Train(testBatch(50, 1), testSites(), 10)
	if s.Table().Len() != 0 {
		t.Fatal("training must be a no-op for the cold-start GA")
	}
}

// TestMakespanFitnessMatchesSimulation holds the GA's span decode,
// through MakespanScorer on each decode path (portable and, where the
// CPU has it, the AVX2 kernel), to the makespan a sequential dispatch
// of the same schedule reaches.
func TestMakespanFitnessMatchesSimulation(t *testing.T) {
	sites := testSites()
	batch := testBatch(10, 17)
	st := freshState(sites)
	st.Ready[0] = 50
	etc := grid.ETCMatrix(batch, sites)
	r := rng.New(18)
	pop := make([]ga.Chromosome, 9) // two full groups of four and a tail
	idx := make([]int, len(pop))
	for k := range pop {
		pop[k] = make(ga.Chromosome, len(batch))
		for i := range pop[k] {
			pop[k][i] = r.Intn(len(sites))
		}
		idx[k] = k
	}
	forEachDecodePath(t, func(t *testing.T) {
		fit := make([]float64, len(pop))
		MakespanScorer(len(sites), fitnessBase(st), etc).Score(pop, idx, fit)
		for k, c := range pop {
			as := make([]sched.Assignment, len(batch))
			for i, j := range batch {
				as[i] = sched.Assignment{Job: j, Site: c[i]}
			}
			if want := batchMakespan(as, st); math.Abs(fit[k]-want) > 1e-9*want {
				t.Fatalf("chromosome %v: fitness %v != simulated makespan %v", c, fit[k], want)
			}
		}
	})
}

// TestMakespanFitnessRejectsLoadWeight: the exported decode has no load
// term, so a non-zero weight is a caller's bug and panics.
func TestMakespanFitnessRejectsLoadWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MakespanFitness accepted loadWeight 0.1")
		}
	}()
	MakespanFitness(3, make([]float64, 3), make([]float64, 3), 0.1)
}

func BenchmarkHistoryLookup(b *testing.B) {
	tb := NewHistoryTable(150)
	r := rng.New(1)
	// draw makes one round's inputs. The probe is drawn like the
	// entries, so its differences take both signs and the pre-bound
	// passes entries through to the ETC scan, as on a real table.
	draw := func() (ready, etc, sd []float64) {
		ready = make([]float64, 20)
		etc = make([]float64, 50*20)
		sd = make([]float64, 50)
		for k := range ready {
			ready[k] = r.Float64() * 1000
		}
		for k := range etc {
			etc[k] = r.Float64() * 1000
		}
		for k := range sd {
			sd[k] = r.Uniform(0.6, 0.9)
		}
		return ready, etc, sd
	}
	for i := 0; i < 150; i++ {
		ready, etc, sd := draw()
		tb.Insert(&Entry{Ready: ready, ETC: etc, SD: sd, Best: make(ga.Chromosome, 50)})
	}
	probeR, probeE, probeS := draw()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup(probeR, probeE, probeS, 0.8, 100)
	}
}

func BenchmarkSTGABatch(b *testing.B) {
	sites := testSites()
	batch := testBatch(50, 1)
	st := freshState(sites)
	s := New(DefaultConfig(), rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(batch, st)
	}
}
