// Parallel fitness evaluation.
//
// Fitness evaluation is the GA's hot path — Table 1 runs score 200
// chromosomes per generation for 100 generations per batch — and it is
// the only stage with no sequential dependency: each chromosome's score
// is a pure function of the chromosome. The evaluator below collects a
// generation's dirty indices and hands them to a Scorer in one batch:
// serially all of them, or split into contiguous shares across a
// persistent pool of worker goroutines, one scorer per worker
// (Problem.NewScorer), writing disjoint elements of the shared fitness
// vector. Because the scores are bit-identical to the serial path and
// selection/crossover/mutation still consume the single master
// rng.Stream, the whole run is reproducible at any worker count.
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

// evalTask is one worker's share of a generation's dirty indices.
type evalTask struct {
	pop []Chromosome
	idx []int
	fit []float64
}

// evaluator scores populations, serially or on a worker pool. It is
// created once per Run and reused every generation so pool start-up is
// amortized across the whole evolution.
type evaluator struct {
	score   Scorer        // serial path (nil when the pool is active)
	tasks   chan evalTask // nil when serial
	workers int
	wg      sync.WaitGroup
}

// newEvaluator picks the execution strategy. The pool requires both
// Workers > 1 (after GOMAXPROCS resolution) and a NewScorer factory —
// a bare Fitness closure may carry scratch state, so it is never shared
// across goroutines. first is the scorer Run built for the seeds (a
// NewScorer instance when the problem has the factory): the serial path
// uses it, and the pool hands it to its first worker.
func newEvaluator(p *Problem, cfg Config, first Scorer) *evaluator {
	w := cfg.effectiveWorkers()
	if p.NewScorer == nil || w == 1 {
		return &evaluator{score: first}
	}
	e := &evaluator{tasks: make(chan evalTask), workers: w}
	for k := 0; k < w; k++ {
		sc := first
		if k > 0 {
			sc = p.NewScorer()
		}
		go func() {
			for t := range e.tasks {
				sc.Score(t.pop, t.idx, t.fit)
				e.wg.Done()
			}
		}()
	}
	return e
}

// evaluate fills fit[i] with the score of pop[i] where dirty[i] is set.
// Indices marked clean keep their existing fit value: fitness
// is a pure function of the chromosome, so an individual the operators
// did not touch still has the score selection carried over for it
// (fitness carry-forward — as the population converges, crossover
// between identical parents and value-preserving mutations leave a
// growing share of each generation clean). scratch (len(pop)) receives
// the dirty indices, the batch the scorers are handed. It returns the
// number of individuals it scored.
func (e *evaluator) evaluate(pop []Chromosome, fit []float64, dirty []bool, scratch []int) (scored int) {
	idx := scratch[:0]
	for i, d := range dirty {
		if d {
			idx = append(idx, i)
		}
	}
	if e.tasks == nil {
		e.score.Score(pop, idx, fit)
		return len(idx)
	}
	// One contiguous share of the dirty indices per worker; workers pull
	// shares as they free up. Which worker scores which share is
	// non-deterministic, but every scorer computes the same function
	// over disjoint indices, so the resulting vector is identical
	// regardless.
	chunk := (len(idx) + e.workers - 1) / e.workers
	for lo := 0; lo < len(idx); lo += chunk {
		e.wg.Add(1)
		e.tasks <- evalTask{pop: pop, idx: idx[lo:min(lo+chunk, len(idx))], fit: fit}
	}
	e.wg.Wait()
	return len(idx)
}

// close shuts the worker pool down; the evaluator must not be used
// afterwards. A serial evaluator's close is a no-op.
func (e *evaluator) close() {
	if e.tasks != nil {
		close(e.tasks)
	}
}
