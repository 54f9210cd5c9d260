// Benchmarks that neither internal/benchkit (the BENCH_*.json
// trajectory) nor cmd/benchsuite (which runs and times every figure and
// table) records: the serial-vs-parallel comparisons that quantify the
// GA's worker-pool evaluator (BenchmarkGAParallel) and the experiment
// fan-out (BenchmarkFig7bFanOut), and the full trustgridd HTTP
// submission path (BenchmarkServiceSubmit), reporting jobs/s.
package trustgrid_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"trustgrid/internal/api"
	"trustgrid/internal/experiments"
	"trustgrid/internal/grid"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
	"trustgrid/internal/server"
	"trustgrid/internal/stga"
)

// benchSetup is the scaled-down experiment configuration the
// benchmarks share.
func benchSetup() experiments.Setup {
	s := experiments.TestSetup()
	s.NASJobs = 1000
	s.NASSpan = 4 * 24 * 3600
	s.Population = 50
	s.Generations = 30
	s.TrainingJobs = 120
	return s
}

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

// BenchmarkServiceSubmit measures the full daemon path — HTTP JSON
// submission through the loop goroutine's ingest into a scheduled
// drain — in manual-clock mode so wall-clock ticks don't gate
// throughput.
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
		submit := ts.URL + "/v2/tenants/" + api.DefaultTenant + "/jobs"
		for k := 0; k < jobs/chunk; k++ {
			resp, err := http.Post(submit, "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("submit: %s", resp.Status)
			}
		}
		resp, err := http.Post(ts.URL+"/v2/drain", "application/json", bytes.NewReader([]byte("{}")))
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
