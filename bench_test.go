// Benchmarks regenerating every table and figure of the paper (scaled
// down so the suite completes in minutes; `cmd/benchsuite -scale paper`
// runs the full Table 1 sizes). One benchmark per artifact:
//
//	BenchmarkFig7a   — makespan vs f-risky threshold (Fig. 7a)
//	BenchmarkFig7b   — STGA makespan vs iteration budget (Fig. 7b)
//	BenchmarkFig5    — warm vs cold GA convergence (Fig. 5)
//	BenchmarkFig8    — NAS seven-algorithm comparison (Fig. 8)
//	BenchmarkFig9    — per-site utilization view of the same run (Fig. 9)
//	BenchmarkTable2  — α/β ratios and ranking (Table 2)
//	BenchmarkFig10   — PSA scaling in N (Fig. 10)
//	BenchmarkClusterExt — A5 space-shared substrate validation
//
// plus micro-benchmarks of the scheduling kernels, the
// parallel-vs-serial comparisons (BenchmarkGAParallel,
// BenchmarkFig7bFanOut) that quantify the worker-pool evaluator and the
// experiment fan-out, and the service-layer throughput axis
// (BenchmarkOnlineEngine, BenchmarkServiceSubmit): the incremental
// arrival-channel engine alone and the full trustgridd HTTP submission
// path, both reporting jobs/s.
package trustgrid_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"trustgrid/internal/experiments"
	"trustgrid/internal/grid"
	"trustgrid/internal/heuristics"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
	"trustgrid/internal/sched/kernel"
	"trustgrid/internal/server"
	"trustgrid/internal/stga"
)

// benchSetup is the scaled-down configuration shared by the figure
// benchmarks.
func benchSetup() experiments.Setup {
	s := experiments.TestSetup()
	s.NASJobs = 1000
	s.NASSpan = 4 * 24 * 3600
	s.Population = 50
	s.Generations = 30
	s.TrainingJobs = 120
	return s
}

func BenchmarkFig7a(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7a(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.F) != 11 {
			b.Fatalf("expected 11 sweep points, got %d", len(res.F))
		}
	}
}

func BenchmarkFig7b(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7b(s, []int{5, 25, 50, 100})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Makespan) != 4 {
			b.Fatal("sweep incomplete")
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig5(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunNAS(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Algorithms) != 7 {
			b.Fatal("missing algorithms")
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunNAS(s)
		if err != nil {
			b.Fatal(err)
		}
		if res.RenderFig9() == "" {
			b.Fatal("empty Fig. 9 view")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunNAS(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Table2()) != 7 {
			b.Fatal("incomplete Table 2")
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig10(s, []int{250, 500, 1000})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Sizes) != 3 {
			b.Fatal("sweep incomplete")
		}
	}
}

func BenchmarkClusterExt(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunClusterExtension(s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the scheduling kernels ---

func benchBatch(n int) ([]*grid.Job, *sched.State) {
	r := rng.New(1)
	sites, err := grid.PSAPlatform().Generate(r.Derive("sites"))
	if err != nil {
		panic(err)
	}
	jobs := make([]*grid.Job, n)
	for i := range jobs {
		jobs[i] = &grid.Job{
			ID: i, Workload: 1000 + r.Float64()*200000, Nodes: 1,
			SecurityDemand: r.Uniform(0.6, 0.9),
		}
	}
	return jobs, &sched.State{Sites: sites, Ready: make([]float64, len(sites))}
}

// freshBenchState rebuilds the state each iteration the way the engine
// does per round: a fresh State carrying a Builder-rebuilt columnar
// snapshot (reused arenas), so the benchmark includes the per-round
// snapshot cost at its production price rather than hiding it behind
// the per-State cache or inflating it with one-shot allocation.
func freshBenchState(kb *kernel.Builder, st *sched.State, jobs []*grid.Job) *sched.State {
	out := &sched.State{Now: st.Now, Sites: st.Sites, Ready: st.Ready, Alive: st.Alive}
	out.Kern = kb.Build(out.Now, out.Sites, out.Ready, out.Alive, jobs)
	return out
}

func BenchmarkMinMinBatch50(b *testing.B) {
	jobs, st := benchBatch(50)
	s := heuristics.NewMinMin(grid.FRiskyPolicy(0.5))
	var kb kernel.Builder
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(jobs, freshBenchState(&kb, st, jobs))
	}
}

func BenchmarkSufferageBatch50(b *testing.B) {
	jobs, st := benchBatch(50)
	s := heuristics.NewSufferage(grid.FRiskyPolicy(0.5))
	var kb kernel.Builder
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(jobs, freshBenchState(&kb, st, jobs))
	}
}

func BenchmarkKernelBuild(b *testing.B) {
	jobs, st := benchBatch(50)
	var kb kernel.Builder
	p := grid.FRiskyPolicy(0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := kb.Build(st.Now, st.Sites, st.Ready, st.Alive, jobs)
		for j := range jobs {
			_ = s.Eligible(p, j)
		}
	}
}

func BenchmarkSTGABatch50(b *testing.B) {
	jobs, st := benchBatch(50)
	cfg := stga.DefaultConfig() // full Table 1 GA: pop 200 × 100 gens
	s := stga.New(cfg, rng.New(2))
	var kb kernel.Builder
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(jobs, freshBenchState(&kb, st, jobs))
	}
}

// BenchmarkSTGASchedule is the canonical end-to-end STGA benchmark of
// the columnar-kernel refactor: one Schedule call on the full Table 1
// GA, at the small and large batch sizes the paper's workloads produce.
// The GA's rng draw sequence is pinned by the determinism suite (about
// one Bool per gene per individual per generation), which bounds how
// far this end-to-end number can drop; the FitnessPath/full-decode
// cases of internal/benchkit isolate the fitness path itself.
func BenchmarkSTGASchedule(b *testing.B) {
	for _, n := range []int{50, 200} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			jobs, st := benchBatch(n)
			s := stga.New(stga.DefaultConfig(), rng.New(2))
			var kb kernel.Builder
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Schedule(jobs, freshBenchState(&kb, st, jobs))
			}
		})
	}
}

// BenchmarkGAParallel pits the serial fitness path against the worker
// pool on the full Table 1 GA (population 200 × 100 generations over a
// 200-job batch). Both produce bit-identical schedules; the ratio of
// the two timings is the evaluator speedup.
func BenchmarkGAParallel(b *testing.B) {
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			jobs, st := benchBatch(200)
			cfg := stga.DefaultConfig()
			cfg.GA.Workers = w
			s := stga.New(cfg, rng.New(2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Schedule(jobs, st)
			}
		})
	}
}

// BenchmarkFig7bFanOut measures the experiment-level fan-out: the same
// iteration sweep run serially and with every sweep point concurrent.
func BenchmarkFig7bFanOut(b *testing.B) {
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			s := benchSetup()
			s.Workers = w
			s.GAWorkers = 1 // isolate the sweep-level parallelism
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunFig7b(s, []int{5, 25, 50, 100})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Makespan) != 4 {
					b.Fatal("sweep incomplete")
				}
			}
		})
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	// End-to-end simulation throughput with a cheap scheduler: measures
	// the event engine + dispatch path, ~1000 jobs per iteration.
	s := benchSetup()
	w, err := s.PSAWorkload(3, 1000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sched.Run(sched.RunConfig{
			Jobs: w.Jobs, Sites: w.Sites,
			Scheduler:     heuristics.NewMCT(grid.FRiskyPolicy(0.5)),
			BatchInterval: 5000,
			Rand:          rng.New(uint64(i)),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Summary.Jobs != 1000 {
			b.Fatal("incomplete run")
		}
	}
}

// BenchmarkOnlineEngine measures the incremental engine on the same
// workload BenchmarkEngineThroughput runs closed-world: jobs submitted
// one by one through the arrival channel, then drained. The jobs/s
// metric is the service layer's scheduling-throughput ceiling before
// any HTTP overhead.
func BenchmarkOnlineEngine(b *testing.B) {
	s := benchSetup()
	w, err := s.PSAWorkload(3, 1000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := sched.NewOnline(sched.RunConfig{
			Sites:         w.Sites,
			Scheduler:     heuristics.NewMCT(grid.FRiskyPolicy(0.5)),
			BatchInterval: 5000,
			Rand:          rng.New(uint64(i)),
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, j := range w.Jobs {
			if err := o.Submit(j); err != nil {
				b.Fatal(err)
			}
		}
		res, err := o.Drain()
		if err != nil {
			b.Fatal(err)
		}
		if res.Summary.Jobs != 1000 {
			b.Fatal("incomplete run")
		}
	}
	b.ReportMetric(float64(b.N)*1000/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkServiceSubmit measures the full daemon path — HTTP JSON
// submission through the arrival channel into a scheduled drain — in
// manual-clock mode so wall-clock ticks don't gate throughput.
func BenchmarkServiceSubmit(b *testing.B) {
	s := benchSetup()
	w, err := s.PSAWorkload(1, 10)
	if err != nil {
		b.Fatal(err)
	}
	const jobs, chunk = 1000, 100
	specs := make([]server.JobSpec, chunk)
	r := rng.New(11)
	for i := range specs {
		specs[i] = server.JobSpec{Workload: 15000 * float64(r.Level(20)), SD: r.Uniform(0.6, 0.9)}
	}
	body, err := json.Marshal(map[string]any{"jobs": specs})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv, err := server.New(server.Config{
			Sites: w.Sites, Algo: "minmin", Seed: uint64(i), Setup: s,
			BatchInterval: 5000, Manual: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		for k := 0; k < jobs/chunk; k++ {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("submit: %s", resp.Status)
			}
		}
		resp, err := http.Post(ts.URL+"/v1/drain", "application/json", bytes.NewReader([]byte("{}")))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		ts.Close()
		if _, err := srv.Stop(false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*jobs/b.Elapsed().Seconds(), "jobs/s")
}
