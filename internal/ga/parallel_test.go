package ga

import (
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"trustgrid/internal/rng"
)

// statefulProblem mimics the STGA's fitness shape: each instance keeps a
// scratch buffer, so sharing one instance across goroutines would race
// (the race detector guards this property).
func statefulProblem(length, sites int) *Problem {
	allowed := make([][]int, length)
	for i := range allowed {
		for v := 0; v < sites; v++ {
			if (i+v)%3 != 0 || v == 0 {
				allowed[i] = append(allowed[i], v)
			}
		}
	}
	mk := func() Fitness {
		loads := make([]float64, sites)
		return func(c Chromosome) float64 {
			for i := range loads {
				loads[i] = 0
			}
			for jobIdx, site := range c {
				loads[site] += float64(jobIdx%7) + 1.5
			}
			span := 0.0
			for _, l := range loads {
				if l > span {
					span = l
				}
			}
			return span
		}
	}
	return &Problem{Length: length, Allowed: allowed, Fitness: mk(),
		NewScorer: func() Scorer { return mk() }}
}

func TestParallelMatchesSerial(t *testing.T) {
	p := statefulProblem(40, 12)
	cfg := DefaultConfig()
	cfg.PopulationSize = 60
	cfg.Generations = 30

	run := func(workers int) Result {
		c := cfg
		c.Workers = workers
		res, err := Run(p, c, []Chromosome{p.RandomChromosome(rng.New(9))}, rng.New(42))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}

	serial := run(1)
	for _, w := range []int{0, 2, 3, 5, 8, 64} {
		got := run(w)
		if !reflect.DeepEqual(got.Best, serial.Best) {
			t.Fatalf("workers=%d: best chromosome diverged from serial", w)
		}
		if got.BestFitness != serial.BestFitness {
			t.Fatalf("workers=%d: best fitness %v != %v", w, got.BestFitness, serial.BestFitness)
		}
		if !reflect.DeepEqual(got.Trajectory, serial.Trajectory) {
			t.Fatalf("workers=%d: fitness trajectory diverged from serial", w)
		}
	}
}

func TestParallelMatchesSerialAcrossSelections(t *testing.T) {
	p := statefulProblem(25, 8)
	for _, sel := range []SelectionMethod{RouletteSelection, TournamentSelection, RankSelection} {
		cfg := DefaultConfig()
		cfg.PopulationSize = 30
		cfg.Generations = 15
		cfg.Selection = sel

		cfg.Workers = 1
		serial, err := Run(p, cfg, nil, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 4
		par, err := Run(p, cfg, nil, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par, serial) {
			t.Fatalf("selection %v: parallel result diverged from serial", sel)
		}
	}
}

func TestNewScorerOnly(t *testing.T) {
	p := statefulProblem(10, 4)
	p.Fitness = nil // NewScorer alone must satisfy validation and the serial path
	cfg := DefaultConfig()
	cfg.PopulationSize = 8
	cfg.Generations = 5
	cfg.Workers = 1
	res, err := Run(p, cfg, nil, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.BestFitness, 0) || res.BestFitness <= 0 {
		t.Fatalf("unexpected best fitness %v", res.BestFitness)
	}
}

func TestNegativeWorkersDegradeToSerial(t *testing.T) {
	// Worker counts can arrive straight from user input (benchsuite
	// -gaworkers); a bad value must degrade, not error mid-simulation.
	if w := (Config{Workers: -1}).effectiveWorkers(); w != 1 {
		t.Fatalf("Workers=-1 resolved to %d, want serial", w)
	}
}

func TestPopulationSmallerThanPool(t *testing.T) {
	p := statefulProblem(6, 3)
	cfg := DefaultConfig()
	cfg.PopulationSize = 2 // fewer chromosomes than workers
	cfg.Generations = 3
	cfg.Workers = 16
	par, err := Run(p, cfg, nil, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	serial, err := Run(p, cfg, nil, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, serial) {
		t.Fatal("tiny population diverged between pool and serial")
	}
}

func TestEffectiveWorkers(t *testing.T) {
	if w := (Config{}).effectiveWorkers(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers=0 resolved to %d, want GOMAXPROCS=%d", w, runtime.GOMAXPROCS(0))
	}
	if w := (Config{Workers: 3}).effectiveWorkers(); w != 3 {
		t.Fatalf("Workers=3 resolved to %d", w)
	}
}

// groupScorer scores its indices four at a time, padding a short last
// group with its final index as a vectorized scorer does, and counts
// the distinct chromosomes it was handed.
type groupScorer struct {
	f    Fitness
	seen *atomic.Int64
}

func (g groupScorer) Score(pop []Chromosome, idx []int, fit []float64) {
	for lo := 0; lo < len(idx); lo += 4 {
		grp := idx[lo:min(lo+4, len(idx))]
		var out [4]float64
		for l := range out {
			out[l] = g.f(pop[grp[min(l, len(grp)-1)]])
		}
		for l, i := range grp {
			fit[i] = out[l]
		}
		g.seen.Add(int64(len(grp)))
	}
}

// TestBatchScorerMatchesFitness: the evaluator gives identical fit
// vectors and scored counts through a batch scorer at Workers 1, 2 and
// 3 as through the per-chromosome Fitness, every index scored exactly
// once and clean indices left alone.
func TestBatchScorerMatchesFitness(t *testing.T) {
	p := statefulProblem(21, 12)
	r := rng.New(8)
	pop := make([]Chromosome, 37)
	for i := range pop {
		pop[i] = p.RandomChromosome(r)
	}
	dirty := make([]bool, len(pop))
	for i := range dirty {
		dirty[i] = r.Intn(3) != 0
	}
	fresh := func() []float64 {
		fit := make([]float64, len(pop))
		for i := range fit {
			fit[i] = -1
		}
		return fit
	}
	scratch := make([]int, len(pop))
	serial := newEvaluator(&Problem{Fitness: p.Fitness}, Config{Workers: 1}, p.Fitness)
	want := fresh()
	wantN := serial.evaluate(pop, want, dirty, scratch)
	for _, w := range []int{1, 2, 3} {
		var seen atomic.Int64
		batch := &Problem{NewScorer: func() Scorer { return groupScorer{f: p.NewScorer().(Fitness), seen: &seen} }}
		e := newEvaluator(batch, Config{Workers: w}, batch.NewScorer())
		got := fresh()
		n := e.evaluate(pop, got, dirty, scratch)
		e.close()
		if n != wantN || seen.Load() != int64(wantN) || !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: scored %d (scorer saw %d), fit %v; per-chromosome path scored %d, fit %v",
				w, n, seen.Load(), got, wantN, want)
		}
	}
}
