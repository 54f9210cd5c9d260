// Parallel fitness evaluation.
//
// Fitness evaluation is the GA's hot path — Table 1 runs score 200
// chromosomes per generation for 100 generations per batch — and it is
// the only stage with no sequential dependency: each chromosome's score
// is a pure function of the chromosome. The evaluator below partitions
// the population across a persistent pool of worker goroutines, one
// fitness instance per worker (Problem.NewFitness), writing into
// disjoint slices of the shared fitness vector. Because the scores are
// bit-identical to the serial path and selection/crossover/mutation
// still consume the single master rng.Stream, the whole run is
// reproducible at any worker count.
package ga

import (
	"runtime"
	"sync"
)

// effectiveWorkers resolves Config.Workers: 0 → GOMAXPROCS, negative →
// serial (mirroring experiments.Setup.Workers, so a worker count wired
// through from user input never turns into a run error).
func (c Config) effectiveWorkers() int {
	if c.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

// evalTask is one contiguous population slice to score.
type evalTask struct {
	pop   []Chromosome
	fit   []float64
	dirty []bool
	lo    int // first index of the slice within the population
	hi    int // one past the last index
}

// evaluator scores populations, serially or on a worker pool. It is
// created once per Run and reused every generation so pool start-up is
// amortized across the whole evolution.
type evaluator struct {
	fit     Fitness       // serial path (nil when the pool is active)
	tasks   chan evalTask // nil when serial
	workers int
	wg      sync.WaitGroup
}

// newEvaluator picks the execution strategy. The pool requires both
// Workers > 1 (after GOMAXPROCS resolution) and a NewFitness factory —
// a bare Fitness closure may carry scratch state, so it is never shared
// across goroutines.
func newEvaluator(p *Problem, cfg Config) *evaluator {
	w := cfg.effectiveWorkers()
	if w > 1 && p.NewFitness != nil {
		e := &evaluator{tasks: make(chan evalTask), workers: w}
		for k := 0; k < w; k++ {
			f := p.NewFitness()
			go func() {
				for t := range e.tasks {
					for i := t.lo; i < t.hi; i++ {
						if t.dirty[i] {
							t.fit[i] = f(t.pop[i])
						}
					}
					e.wg.Done()
				}
			}()
		}
		return e
	}
	f := p.Fitness
	if f == nil {
		f = p.NewFitness()
	}
	return &evaluator{fit: f}
}

// evaluate fills fit[i] with the score of pop[i] where dirty[i] is set.
// Indices marked clean keep their existing fit value: fitness
// is a pure function of the chromosome, so an individual the operators
// did not touch still has the score selection carried over for it
// (fitness carry-forward — as the population converges, crossover
// between identical parents and value-preserving mutations leave a
// growing share of each generation clean). It returns the number of
// individuals it scored.
func (e *evaluator) evaluate(pop []Chromosome, fit []float64, dirty []bool) (scored int) {
	for _, d := range dirty {
		if d {
			scored++
		}
	}
	if e.tasks == nil {
		for i, c := range pop {
			if dirty[i] {
				fit[i] = e.fit(c)
			}
		}
		return scored
	}
	// One contiguous chunk per worker; workers pull chunks as they free
	// up. Which worker scores which chunk is non-deterministic, but
	// every fitness instance computes the same function over disjoint
	// index ranges, so the resulting vector is identical regardless.
	n := len(pop)
	chunk := (n + e.workers - 1) / e.workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		e.wg.Add(1)
		e.tasks <- evalTask{pop: pop, fit: fit, dirty: dirty, lo: lo, hi: hi}
	}
	e.wg.Wait()
	return scored
}

// close shuts the worker pool down; the evaluator must not be used
// afterwards. A serial evaluator's close is a no-op.
func (e *evaluator) close() {
	if e.tasks != nil {
		close(e.tasks)
	}
}
