package benchkit

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"trustgrid/internal/api"
	"trustgrid/internal/client"
	"trustgrid/internal/dag"
	"trustgrid/internal/experiments"
	"trustgrid/internal/ga"
	"trustgrid/internal/grid"
	"trustgrid/internal/heuristics"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
	"trustgrid/internal/sched/kernel"
	"trustgrid/internal/server"
	"trustgrid/internal/stga"
	"trustgrid/internal/trace"
	"trustgrid/internal/wal"
)

// Case is one benchmark of the suite.
type Case struct {
	// Name follows go-test sub-benchmark convention (slash-separated).
	Name string
	// Smoke marks the CI subset: quick cases whose JSON is compared
	// against the committed baseline on every PR.
	Smoke bool
	F     func(b *testing.B)
}

// benchBatch mirrors the root bench_test.go generator: the PSA platform
// with n uniform jobs.
func benchBatch(n int) ([]*grid.Job, []*grid.Site) {
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
	return jobs, sites
}

// scaleBatch generates the m-site scale-axis workload: a synthetic
// platform of m single-node sites with cycling speeds (the PSA
// platform stops at its fixed site count, so the scale axis needs its
// own generator) and n uniform jobs drawn exactly like benchBatch.
func scaleBatch(n, m int) ([]*grid.Job, []*grid.Site) {
	r := rng.New(1)
	speeds := make([]float64, m)
	nodes := make([]int, m)
	for i := range speeds {
		speeds[i] = float64(i%10+1) * 10
		nodes[i] = 1
	}
	pc := grid.PlatformConfig{Speeds: speeds, Nodes: nodes, SLMin: 0.4, SLMax: 1.0, GuaranteeSafeSL: 0.95}
	sites, err := pc.Generate(r.Derive("sites"))
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
	return jobs, sites
}

func freshState(sites []*grid.Site) *sched.State {
	return &sched.State{Sites: sites, Ready: make([]float64, len(sites))}
}

// onlineEngineJobs is OnlineEngine/jobs=1000's workload: benchBatch's
// jobs and platform, one arrival every 300 s.
func onlineEngineJobs() ([]*grid.Job, []*grid.Site) {
	jobs, sites := benchBatch(1000)
	for i := range jobs {
		jobs[i].Arrival = float64(i) * 300
	}
	return jobs, sites
}

// onlineEngineDAGJobs is the DAG row's workload on the same platform: a
// layered graph of 1000 jobs, 50 a layer, arriving one per 300 s on
// average, with workloads on benchBatch's scale.
func onlineEngineDAGJobs() ([]*grid.Job, []*grid.Site) {
	_, sites := benchBatch(1)
	jobs, err := dag.Generate(rng.New(3), dag.GenConfig{
		Jobs: 1000, Width: 50, EdgeProb: 0.1, Rate: 1.0 / 300,
		WorkloadStep: 10000, Levels: 20,
	})
	if err != nil {
		panic(err)
	}
	return jobs, sites
}

// onlineEngineCase times one engine from construction to drain over
// the workload's jobs, submitted in order, under MCT, whose rounds are
// cheap enough that the loop itself is what is timed.
func onlineEngineCase(workload func() ([]*grid.Job, []*grid.Site)) func(b *testing.B) {
	return func(b *testing.B) {
		jobs, sites := workload()
		slab := make([]grid.Job, len(jobs))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := runOnlineEngine(jobs, slab, sites, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// runOnlineEngine is one op of the OnlineEngine cases. Submit takes
// ownership of the jobs it is handed, so each op copies the workload
// into slab first: the previous op's engine, and its hold on the slab,
// are gone by then, and the op's allocations are the engine's own.
func runOnlineEngine(jobs []*grid.Job, slab []grid.Job, sites []*grid.Site, seed uint64) error {
	o, err := sched.NewOnline(sched.RunConfig{
		Sites:         sites,
		Scheduler:     heuristics.NewMCT(grid.FRiskyPolicy(0.5)),
		BatchInterval: 5000,
		Rand:          rng.New(seed),
	})
	if err != nil {
		return err
	}
	for k, j := range jobs {
		slab[k] = *j
		if err := o.Submit(&slab[k]); err != nil {
			return err
		}
	}
	_, err = o.Drain()
	return err
}

// dagScaleBatch generates the DAG-mode scale-axis workload: the m-site
// scaleBatch platform, a layered dependent batch of n jobs, and the
// upward-rank column exactly as the engine computes it (every
// successor still blocked in the tracker, so layer-0 ranks carry their
// whole chains).
func dagScaleBatch(n, m int) ([]*grid.Job, []*grid.Site, []float64) {
	_, sites := scaleBatch(1, m)
	jobs, err := dag.Generate(rng.New(3), dag.GenConfig{
		Jobs: n, Width: max(n/4, 1), EdgeProb: 0.3, Rate: 1,
		WorkloadStep: 15000, Levels: 20,
	})
	if err != nil {
		panic(err)
	}
	tr := dag.NewTracker()
	for _, j := range jobs {
		tr.Arrive(j)
	}
	meanInv := 0.0
	for _, s := range sites {
		meanInv += 1 / s.Speed
	}
	meanInv /= float64(len(sites))
	ranks := make([]float64, len(jobs))
	tr.BatchRanks(jobs, meanInv, ranks)
	return jobs, sites, ranks
}

// rankScaleCase benchmarks Rank-Min-Min per engine round on a DAG
// batch: snapshot rebuild, rank-column install, then the Schedule call.
func rankScaleCase(n, m int) func(b *testing.B) {
	return func(b *testing.B) {
		jobs, sites, ranks := dagScaleBatch(n, m)
		s := heuristics.NewRankMinMin(grid.FRiskyPolicy(0.5))
		var kb kernel.Builder
		ready := make([]float64, len(sites))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st := freshState(sites)
			st.Kern = kb.Build(0, sites, ready, nil, jobs)
			st.Kern.SetRanks(ranks)
			s.Schedule(jobs, st)
		}
	}
}

// stgaDAGScaleCase is stgaScaleCase with the rank column installed, so
// the GA decodes in rank-keyed (precedence-feasible) order.
func stgaDAGScaleCase(n, m int) func(b *testing.B) {
	return func(b *testing.B) {
		jobs, sites, ranks := dagScaleBatch(n, m)
		cfg := stga.DefaultConfig()
		var kb kernel.Builder
		ready := make([]float64, len(sites))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := stga.New(cfg, rng.New(2))
			st := freshState(sites)
			st.Kern = kb.Build(0, sites, ready, nil, jobs)
			st.Kern.SetRanks(ranks)
			s.Schedule(jobs, st)
		}
	}
}

// greedyCase benchmarks one greedy heuristic the way the engine runs
// it: a Builder-rebuilt snapshot (reused arenas) plus the Schedule
// call, per round.
func greedyCase(n int, mk func(grid.Policy) sched.Scheduler) func(b *testing.B) {
	return greedyCaseOn(func() ([]*grid.Job, []*grid.Site) { return benchBatch(n) }, mk)
}

// greedyScaleCase is greedyCase on the m-site scale-axis platform.
func greedyScaleCase(n, m int, mk func(grid.Policy) sched.Scheduler) func(b *testing.B) {
	return greedyCaseOn(func() ([]*grid.Job, []*grid.Site) { return scaleBatch(n, m) }, mk)
}

// retryScaleCase is greedyScaleCase with a share of the batch marked
// must-be-safe, the strictly-safe retries of failed jobs: on the live
// wide workload about 30 % of a round's jobs are retries.
func retryScaleCase(n, m int, safe float64, mk func(grid.Policy) sched.Scheduler) func(b *testing.B) {
	return greedyCaseOn(func() ([]*grid.Job, []*grid.Site) {
		jobs, sites := scaleBatch(n, m)
		r := rng.New(2)
		for _, j := range jobs {
			j.MustBeSafe = r.Bool(safe)
		}
		return jobs, sites
	}, mk)
}

// greedyCaseOn defers workload generation into the benchmark body:
// Suite() is also called just to enumerate names (Find, the smoke
// filter), and must not pay for 1024-site platforms there.
func greedyCaseOn(gen func() ([]*grid.Job, []*grid.Site), mk func(grid.Policy) sched.Scheduler) func(b *testing.B) {
	return func(b *testing.B) {
		jobs, sites := gen()
		s := mk(grid.FRiskyPolicy(0.5))
		var kb kernel.Builder
		ready := make([]float64, len(sites))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st := freshState(sites)
			st.Kern = kb.Build(0, sites, ready, nil, jobs)
			s.Schedule(jobs, st)
		}
	}
}

// stgaScaleCase benchmarks one STGA Schedule call on the m-site
// scale-axis platform.
func stgaScaleCase(n, m int) func(b *testing.B) {
	return stgaCaseOn(func() ([]*grid.Job, []*grid.Site) { return scaleBatch(n, m) })
}

// stgaNASCase benchmarks one STGA Schedule call in replay-nas-stga's
// round shape: the 12-site NAS platform and the first n jobs of the
// synthetic NAS trace at the Table 1 density.
func stgaNASCase(n int) func(b *testing.B) {
	return stgaCaseOn(func() ([]*grid.Job, []*grid.Site) {
		r := rng.New(1)
		sites, err := grid.NASPlatform().Generate(r.Derive("sites"))
		if err != nil {
			panic(err)
		}
		jobs, err := trace.DefaultNASConfig().Generate(r.Derive("nas"))
		if err != nil {
			panic(err)
		}
		return jobs[:n], sites
	})
}

// stgaCaseOn benchmarks one Table 1 STGA Schedule call per op on the
// generated batch. A fresh scheduler per iteration keeps the history
// table empty and the per-op work independent of b.N: a shared
// scheduler's table grows with every call, which would make the
// measured time depend on how long the harness happened to run the
// case.
func stgaCaseOn(gen func() ([]*grid.Job, []*grid.Site)) func(b *testing.B) {
	return func(b *testing.B) {
		jobs, sites := gen()
		cfg := stga.DefaultConfig()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := stga.New(cfg, rng.New(2))
			s.Schedule(jobs, freshState(sites))
		}
	}
}

// stgaDaemonCase runs the GA a default daemon runs:
// experiments.DefaultSetup()'s STGA (Table 1's population and
// generation cap, the stall rule, the span floor), trained on the
// setup's 500-job NAS prefix, over the jobs that arrive in the first
// day of the Table 1 NAS trace. One op is that day's consecutive
// hourly rounds on one scheduler, so the history table and the ready
// vector evolve as in a replay; building and training the scheduler is
// not timed.
func stgaDaemonCase(b *testing.B) {
	setup := experiments.DefaultSetup()
	w, err := setup.NASWorkload(setup.Seed)
	if err != nil {
		b.Fatal(err)
	}
	var day []*grid.Job
	for _, j := range w.Jobs {
		if j.Arrival < 24*3600 {
			day = append(day, j)
		}
	}
	policy := setup.Policy(grid.FRisky, setup.F)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sc, err := setup.SchedulerByName("stga", policy, rng.New(2), w.Training, w.Sites)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := sched.Run(sched.RunConfig{
			Jobs: day, Sites: w.Sites, Scheduler: sc, BatchInterval: w.Batch,
			Security: setup.Model(), Rand: rng.New(5), DiscardRecords: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// mutationMaskCase times one generation's v2 mutation hit mask over pop
// chromosomes of genes genes at Table 1's mutation probability: the
// FillBernoulli call ga.Run makes per generation, on the path this CPU
// runs (rng.MaskKernel).
func mutationMaskCase(pop, genes int) func(b *testing.B) {
	return func(b *testing.B) {
		count := pop * genes
		d := rng.NewDrawsV2(rng.New(5))
		bn := rng.NewBernoulli(ga.DefaultConfig().MutationProb)
		mask := make([]uint64, (count+63)/64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.MutBit.FillBernoulli(mask, count, bn)
		}
	}
}

// gaSelectionCase times one generation's parent sampling, the stage Run
// runs before crossover, over a population of pop makespans clustered
// within 5 % as a converging run's are.
func gaSelectionCase(method ga.SelectionMethod, pop int) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := ga.DefaultConfig()
		cfg.PopulationSize, cfg.Selection = pop, method
		sel := ga.NewSelection(cfg)
		r := rng.New(4)
		fit := make([]float64, pop)
		for i := range fit {
			fit[i] = 1e5 * (1 + 0.05*r.Float64())
		}
		picks := make([]int, pop)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sel(fit, picks, r)
		}
	}
}

// fitnessPathCase builds the steady-state fitness-path benchmark: a
// converged population receiving Table 1 mutation traffic, evaluated
// every generation with the full decode (the access pattern inside
// ga.Run).
func fitnessPathCase(n, m, pop int) func(b *testing.B) {
	return func(b *testing.B) {
		r := rng.New(7)
		base := make([]float64, m)
		etc := make([]float64, n*m)
		for i := range base {
			base[i] = r.Float64() * 1e4
		}
		for i := range etc {
			etc[i] = r.Float64() * 1e3 * float64(1+r.Intn(1000))
		}
		full := stga.MakespanFitness(m, base, etc, 0)
		const gens = 16
		type edit struct{ idx, gene, val int }
		script := make([][]edit, gens)
		er := r.Derive("script")
		for g := range script {
			for idx := 0; idx < pop; idx++ {
				for gene := 0; gene < n; gene++ {
					if er.Bool(0.01) {
						script[g] = append(script[g], edit{idx, gene, er.Intn(m)})
					}
				}
			}
		}
		incumbent := make(ga.Chromosome, n)
		for i := range incumbent {
			incumbent[i] = r.Intn(m)
		}
		chroms := make([]ga.Chromosome, pop)
		for i := range chroms {
			chroms[i] = incumbent.Clone()
		}
		sink := 0.0
		b.ResetTimer()
		for it := 0; it < b.N; it++ {
			for _, e := range script[it%gens] {
				chroms[e.idx][e.gene] = e.val
			}
			for i := range chroms {
				sink += full(chroms[i])
			}
		}
		_ = sink
	}
}

// fitnessEvalCase times one generation's scoring of pop NAS-shaped
// chromosomes — the first n jobs of the synthetic NAS trace on the
// 12-site platform, genes drawn over every site — through the batch
// scorer ga.Run's evaluator calls, on the path this CPU runs
// (stga.DecodeKernel).
func fitnessEvalCase(n, pop int) func(b *testing.B) {
	return func(b *testing.B) {
		r := rng.New(1)
		sites, err := grid.NASPlatform().Generate(r.Derive("sites"))
		if err != nil {
			panic(err)
		}
		jobs, err := trace.DefaultNASConfig().Generate(r.Derive("nas"))
		if err != nil {
			panic(err)
		}
		m := len(sites)
		base := make([]float64, m)
		for i := range base {
			base[i] = r.Float64() * 1e4
		}
		chroms := make([]ga.Chromosome, pop)
		idx := make([]int, pop)
		for i := range chroms {
			chroms[i] = make(ga.Chromosome, n)
			for g := range chroms[i] {
				chroms[i][g] = r.Intn(m)
			}
			idx[i] = i
		}
		fit := make([]float64, pop)
		sc := stga.MakespanScorer(m, base, grid.ETCMatrix(jobs[:n], sites))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc.Score(chroms, idx, fit)
		}
	}
}

// placedEvent is the event the stream, the journal and the client see
// most of: a placement with its tenant and both times.
var placedEvent = api.Event{Seq: 48213, Kind: "placed", Time: 615000, Job: 20417, Site: 7,
	Tenant: "gold", Start: 615000, Finish: 627412.3812, Risky: true}

// post serves one JSON request through the handler in process and fails
// the benchmark on a non-2xx answer.
func post(b testing.TB, hd http.Handler, path string, body any) {
	raw, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	rw := httptest.NewRecorder()
	hd.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
	if rw.Code/100 != 2 {
		b.Fatalf("POST %s: status %d: %s", path, rw.Code, rw.Body)
	}
}

// snapshotWriteCase measures one server snapshot of a durable daemon
// of the given shard count whose event ring holds at least events
// events: an op is a one-job durable submission under SnapshotEvery 1,
// so the snapshot it triggers — journal flush, payload, the fsyncs,
// rotate, GC — is all but a few microseconds of it. What the snapshot
// costs must follow what changed since the last one (one event here),
// not the ring. A sharded daemon's jobs go to three tenants that route
// to its three shards, so every shard log takes arrivals.
func snapshotWriteCase(events, shards int) func(b *testing.B) {
	return func(b *testing.B) {
		dir, err := os.MkdirTemp("", "benchkit-snapshot-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		_, sites := benchBatch(0)
		cfg := server.Config{
			Sites: sites, Algo: "minmin", Manual: true, BatchInterval: 5000,
			WALDir: dir, SnapshotEvery: 1, EventBuffer: 2 * events, Shards: shards,
		}
		tenants := []string{api.DefaultTenant}
		if shards > 1 {
			tenants = []string{"gold", "silver", "iron"} // FNV-1a routes them to shards 0-2 of 3
			for _, id := range tenants {
				cfg.Tenants = append(cfg.Tenants, api.TenantSpec{ID: id})
			}
		}
		srv, err := server.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Stop(false)
		hd := srv.Handler()
		// Every job leaves at least arrived, placed and completed behind.
		const chunk = 512
		r := rng.New(5)
		at := 0.0
		for n := 0; 3*n < events; n += chunk {
			specs := make([]api.JobSpec, chunk)
			for i := range specs {
				specs[i] = api.JobSpec{Arrival: &at, Workload: 1000 + r.Float64()*200000, Nodes: 1, SD: r.Uniform(0.6, 0.9)}
			}
			post(b, hd, "/v2/tenants/"+tenants[(n/chunk)%len(tenants)]+"/jobs", api.SubmitRequest{Jobs: specs})
			at += 5000
			post(b, hd, "/v2/advance", api.AdvanceRequest{To: at})
		}
		at += 1e7 // everything placed has completed
		post(b, hd, "/v2/advance", api.AdvanceRequest{To: at})
		one := api.SubmitRequest{Jobs: []api.JobSpec{{Arrival: &at, Workload: 50000, Nodes: 1, SD: 0.7}}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, hd, "/v2/tenants/"+tenants[i%len(tenants)]+"/jobs", one)
		}
	}
}

// journalRestoreCase measures the recovery of a flat durable daemon
// whose retained event window — at least events events, all journaled
// before its final snapshot — is the bulk of what recovery reads: an op
// is one server.New over a fresh copy of the directory (the copy, and
// the shutdown snapshot of the recovered daemon, off the clock).
func journalRestoreCase(events int) func(b *testing.B) {
	return func(b *testing.B) {
		root, err := os.MkdirTemp("", "benchkit-journal-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(root)
		_, sites := benchBatch(0)
		// The default snapshot cadence and retention: GC leaves the log a
		// few thousand records, recovery replays none of them, and the
		// journal files of every snapshot stay, since all share event_base
		// 0 with a ring that evicts nothing.
		cfg := server.Config{
			Sites: sites, Algo: "minmin", Manual: true, BatchInterval: 5000,
			WALDir: filepath.Join(root, "wal"), EventBuffer: 2 * events,
		}
		srv, err := server.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		hd := srv.Handler()
		const chunk = 512
		r := rng.New(5)
		at := 0.0
		for n := 0; 3*n < events; n += chunk {
			specs := make([]api.JobSpec, chunk)
			for i := range specs {
				specs[i] = api.JobSpec{Arrival: &at, Workload: 1000 + r.Float64()*200000, Nodes: 1, SD: r.Uniform(0.6, 0.9)}
			}
			post(b, hd, "/v2/tenants/"+api.DefaultTenant+"/jobs", api.SubmitRequest{Jobs: specs})
			at += 5000
			post(b, hd, "/v2/advance", api.AdvanceRequest{To: at})
		}
		post(b, hd, "/v2/advance", api.AdvanceRequest{To: at + 1e9}) // everything placed has completed
		if _, err := srv.Stop(false); err != nil {
			b.Fatal(err)
		}
		pristine := os.DirFS(cfg.WALDir)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cfg.WALDir = filepath.Join(root, fmt.Sprint("copy-", i))
			if err := os.CopyFS(cfg.WALDir, pristine); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			srv, err := server.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if _, err := srv.Stop(false); err != nil {
				b.Fatal(err)
			}
			if err := os.RemoveAll(cfg.WALDir); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// registrySnapshotCase measures one server snapshot of a flat durable
// daemon that has accepted and completed jobs jobs, their IDs dealt to
// the tenants in turn as the benchmark's replay-psa-durable workload
// deals them, so every tenant's request but a round's first claims IDs
// below ones already taken: an
// op is a one-job durable submission under SnapshotEvery 1, whose
// snapshot carries the job-ID registry and the DAG done-set of every job
// (DESIGN.md §10.2). The history is built once per run by a daemon that
// never snapshots before its shutdown; the measured one recovers from
// that final snapshot.
func registrySnapshotCase(jobs, tenants int) func(b *testing.B) {
	return func(b *testing.B) {
		dir, err := os.MkdirTemp("", "benchkit-registry-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		_, sites := benchBatch(0)
		cfg := server.Config{Sites: sites, Algo: "minmin", Manual: true, BatchInterval: 5000, WALDir: dir, SnapshotEvery: 1 << 30}
		for t := 0; t < tenants; t++ {
			cfg.Tenants = append(cfg.Tenants, api.TenantSpec{ID: fmt.Sprint("t", t)})
		}
		srv, err := server.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		hd := srv.Handler()
		const perTenant = 128 // jobs per tenant per round
		r := rng.New(5)
		at := 0.0
		for first := 0; first < jobs; first += perTenant * tenants {
			for t := 0; t < tenants; t++ {
				var specs []api.JobSpec
				for id := first + 1 + t; id <= min(first+perTenant*tenants, jobs); id += tenants {
					specs = append(specs, api.JobSpec{ID: &id, Arrival: &at, Workload: 1000 + r.Float64()*20000, Nodes: 1, SD: r.Uniform(0.6, 0.9)})
				}
				post(b, hd, "/v2/tenants/"+cfg.Tenants[t].ID+"/jobs", api.SubmitRequest{Jobs: specs})
			}
			at += 5000
			post(b, hd, "/v2/advance", api.AdvanceRequest{To: at})
		}
		at += 1e7 // everything placed has completed
		post(b, hd, "/v2/advance", api.AdvanceRequest{To: at})
		if _, err := srv.Stop(false); err != nil {
			b.Fatal(err)
		}
		cfg.SnapshotEvery = 1
		if srv, err = server.New(cfg); err != nil {
			b.Fatal(err)
		}
		defer srv.Stop(false)
		hd = srv.Handler()
		one := api.SubmitRequest{Jobs: []api.JobSpec{{Arrival: &at, Workload: 50000, Nodes: 1, SD: 0.7}}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, hd, "/v2/tenants/t0/jobs", one)
		}
	}
}

// walAppendCase measures one arrival record appended to a warm flat
// log, as the daemon appends each accepted job: framing, the
// hand-rendered payload and the buffered write, no commit. The log is
// replaced every 1<<16 records, off the clock, so the disk it fills
// stays a few megabytes whatever b.N is.
func walAppendCase(b *testing.B) {
	dir, err := os.MkdirTemp("", "benchkit-wal-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	rec := wal.Record{Kind: wal.KindArrival, At: 615000, Arrival: &api.TraceRecord{
		ID: 20417, Arrival: 614950.25, Workload: 183071.5528, Nodes: 1, SD: 0.7243, Tenant: "gold",
	}}
	var l *wal.Log
	defer func() { l.Close() }()
	logDir := filepath.Join(dir, "log")
	for i := 0; i < b.N; i++ {
		if i%(1<<16) == 0 {
			b.StopTimer()
			if l != nil {
				l.Close()
				if err := os.RemoveAll(logDir); err != nil {
					b.Fatal(err)
				}
			}
			if l, err = wal.Open(logDir); err != nil {
				b.Fatal(err)
			}
			if _, err := l.Append(rec); err != nil { // warm the frame buffer
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// walReplayCase measures wal.DecodeAll over one segment of records
// records as a shard log of the sharded daemon holds them: a churn
// prefix, then arrivals, each with its clock and global sequence
// number — the decode every recovery runs over every log.
func walReplayCase(records int) func(b *testing.B) {
	return func(b *testing.B) {
		events, err := grid.DefaultChurnConfig(1e6).Generate(rng.New(5), 20)
		if err != nil {
			b.Fatal(err)
		}
		r := rng.New(6)
		tenants := []string{"gold", "silver", "bronze", "iron"}
		var seg []byte
		for i := 0; i < records; i++ {
			rec := wal.Record{Seq: uint64(i + 1), G: uint64(3*i + 1)}
			if i < len(events) && i < records/64 {
				rec.Kind, rec.Churn = wal.KindChurn, &events[i]
			} else {
				at := 5000 * float64(i/160)
				rec.Kind, rec.At = wal.KindArrival, at+5000
				rec.Arrival = &api.TraceRecord{ID: 3*i + 1, Arrival: at + 5000*r.Float64(), Workload: 1000 + r.Float64()*200000,
					Nodes: 1, SD: r.Uniform(0.6, 0.9), Tenant: tenants[i%len(tenants)]}
			}
			line, err := wal.EncodeRecord(rec)
			if err != nil {
				b.Fatal(err)
			}
			seg = append(seg, line...)
		}
		b.SetBytes(int64(len(seg)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if recs, n := wal.DecodeAll(seg, 1); len(recs) != records || n != len(seg) {
				b.Fatalf("decoded %d of %d records", len(recs), records)
			}
		}
	}
}

// churnReadCase measures grid.ReadChurnTrace over a generated trace of
// events events, as a daemon reads its -churn-trace file at boot.
func churnReadCase(events int) func(b *testing.B) {
	return func(b *testing.B) {
		trace, err := grid.DefaultChurnConfig(1e6).Generate(rng.New(7), events/2)
		if err != nil || len(trace) < events {
			b.Fatalf("generated %d churn events, want %d (%v)", len(trace), events, err)
		}
		var file bytes.Buffer
		if err := grid.WriteChurnTrace(&file, trace[:events]); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(file.Len()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got, err := grid.ReadChurnTrace(bytes.NewReader(file.Bytes())); err != nil || len(got) != events {
				b.Fatalf("read %d of %d events (%v)", len(got), events, err)
			}
		}
	}
}

// submitDecodeCase measures api.DecodeSubmitRequest on a body of jobs
// jobs in the form the typed client sends, with the explicit ID and
// arrival a manual-clock replay stamps on every job.
func submitDecodeCase(jobs int) func(b *testing.B) {
	return func(b *testing.B) {
		r := rng.New(9)
		specs := make([]api.JobSpec, jobs)
		for i := range specs {
			id, at := 40000+i, 5000*float64(i/10)
			specs[i] = api.JobSpec{ID: &id, Arrival: &at, Workload: 1000 + r.Float64()*200000, Nodes: 1, SD: r.Uniform(0.6, 0.9)}
		}
		body, err := json.Marshal(api.SubmitRequest{Jobs: specs})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var req api.SubmitRequest
			if err := api.DecodeSubmitRequest(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// eventStreamCase measures one page of the event stream end to end: a
// manual daemon's handler behind a loopback httptest server renders a
// 560-event page — a replay-psa-durable round — and client.EventStream
// reads it back. The records row is what the typed client gets from the
// daemon; the NDJSON row takes the Accept header off before the handler
// sees it, so the same client reads the lines a daemon without frames
// would serve.
func eventStreamCase(records bool) func(b *testing.B) {
	return func(b *testing.B) {
		c, stop := eventStreamDaemon(b, records)
		defer stop()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := readEventPage(c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// eventPage is the EventStream cases' page size.
const eventPage = 560

// eventStreamDaemon serves the EventStream cases' daemon on a loopback
// listener, its log holding at least a page of events from four
// tenants, and returns a client for it. Without records, the daemon
// ignores the client's Accept header and answers NDJSON.
func eventStreamDaemon(tb testing.TB, records bool) (*client.Client, func()) {
	_, sites := benchBatch(0)
	tenants := []string{"gold", "silver", "bronze", "iron"}
	cfg := server.Config{Sites: sites, Algo: "minmin", Manual: true, BatchInterval: 5000}
	for _, id := range tenants {
		cfg.Tenants = append(cfg.Tenants, api.TenantSpec{ID: id})
	}
	srv, err := server.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	hd := srv.Handler()
	// Each job leaves arrived, placed and completed behind.
	r := rng.New(6)
	at := 0.0
	for n := 0; 3*n < eventPage; n += 40 {
		specs := make([]api.JobSpec, 40)
		for i := range specs {
			specs[i] = api.JobSpec{Arrival: &at, Workload: 1000 + r.Float64()*200000, Nodes: 1, SD: r.Uniform(0.6, 0.9)}
		}
		post(tb, hd, "/v2/tenants/"+tenants[n/40%len(tenants)]+"/jobs", api.SubmitRequest{Jobs: specs})
		at += 5000
		post(tb, hd, "/v2/advance", api.AdvanceRequest{To: at})
	}
	post(tb, hd, "/v2/advance", api.AdvanceRequest{To: at + 1e7})
	if !records {
		daemon := hd
		hd = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			req.Header.Del("Accept")
			daemon.ServeHTTP(w, req)
		})
	}
	ts := httptest.NewServer(hd)
	return client.New(ts.URL).WithHTTPClient(ts.Client()), func() {
		ts.Close()
		srv.Stop(false)
	}
}

// readEventPage reads one page of eventPage events through c.
func readEventPage(c *client.Client) error {
	es := c.Events(context.Background(), client.EventsOptions{Max: eventPage})
	n := 0
	for {
		if _, err := es.Next(); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		n++
	}
	if n != eventPage {
		return fmt.Errorf("read %d events, want a page of %d", n, eventPage)
	}
	return nil
}

// Suite returns the benchmark cases: the kernel path, then the event
// codec and the event page on the wire, the WAL record and submit body
// codecs, the WAL and churn trace readers and the snapshot writer of
// the service around it.
func Suite() []Case {
	return []Case{
		{Name: "KernelBuild/batch=50", Smoke: true, F: func(b *testing.B) {
			jobs, sites := benchBatch(50)
			ready := make([]float64, len(sites))
			var kb kernel.Builder
			p := grid.FRiskyPolicy(0.5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := kb.Build(0, sites, ready, nil, jobs)
				// Touch the eligibility cache the way schedulers do.
				for j := range jobs {
					_ = s.Eligible(p, j)
				}
			}
		}},
		{Name: "GreedyMinMin/batch=50", Smoke: true,
			F: greedyCase(50, func(p grid.Policy) sched.Scheduler { return heuristics.NewMinMin(p) })},
		{Name: "GreedyMinMin/batch=200", Smoke: true,
			F: greedyCase(200, func(p grid.Policy) sched.Scheduler { return heuristics.NewMinMin(p) })},
		{Name: "GreedySufferage/batch=50", Smoke: true,
			F: greedyCase(50, func(p grid.Policy) sched.Scheduler { return heuristics.NewSufferage(p) })},
		{Name: "STGASchedule/batch=50", Smoke: true, F: func(b *testing.B) {
			jobs, sites := benchBatch(50)
			cfg := stga.DefaultConfig()
			cfg.GA.PopulationSize = 50
			cfg.GA.Generations = 30
			s := stga.New(cfg, rng.New(2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Schedule(jobs, freshState(sites))
			}
		}},
		{Name: "STGASchedule/batch=200", Smoke: false, F: func(b *testing.B) {
			jobs, sites := benchBatch(200)
			s := stga.New(stga.DefaultConfig(), rng.New(2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Schedule(jobs, freshState(sites))
			}
		}},
		// The m scale axis: batch=200 against synthetic platforms of 64,
		// 256, and 1024 sites. m=256 is the smoke point CI gates on, and
		// so is Min-Min at m=1024 — the round the benchmark's
		// live-wide-minmin workload runs every tick; the other 64/1024
		// endpoints ride the full runs so the trajectory keeps the
		// scaling curve without inflating every PR's benchmark job. The
		// safe=30 point adds the must-be-safe retries the live rounds
		// carry.
		{Name: "GreedyMinMin/m=64/batch=200", Smoke: false,
			F: greedyScaleCase(200, 64, func(p grid.Policy) sched.Scheduler { return heuristics.NewMinMin(p) })},
		{Name: "GreedyMinMin/m=256/batch=200", Smoke: true,
			F: greedyScaleCase(200, 256, func(p grid.Policy) sched.Scheduler { return heuristics.NewMinMin(p) })},
		{Name: "GreedyMinMin/m=1024/batch=200", Smoke: true,
			F: greedyScaleCase(200, 1024, func(p grid.Policy) sched.Scheduler { return heuristics.NewMinMin(p) })},
		{Name: "GreedyMinMin/m=1024/batch=200/safe=30", Smoke: true,
			F: retryScaleCase(200, 1024, 0.3, func(p grid.Policy) sched.Scheduler { return heuristics.NewMinMin(p) })},
		{Name: "GreedySufferage/m=256/batch=200", Smoke: false,
			F: greedyScaleCase(200, 256, func(p grid.Policy) sched.Scheduler { return heuristics.NewSufferage(p) })},
		// The DAG axis: Rank-Min-Min pays a sort plus the rank-column
		// install on top of Min-Min's greedy loop, and the STGA decodes
		// in rank-keyed order. m=256 is the smoke point CI gates on.
		{Name: "GreedyRankMinMin/m=64/batch=200", Smoke: false, F: rankScaleCase(200, 64)},
		{Name: "GreedyRankMinMin/m=256/batch=200", Smoke: true, F: rankScaleCase(200, 256)},
		{Name: "GreedyRankMinMin/m=1024/batch=200", Smoke: false, F: rankScaleCase(200, 1024)},
		// The rng=v2 names predate v1's removal and stay so that older
		// BENCH files still pair with them.
		{Name: "STGASchedule/dag=on/m=256/batch=200", Smoke: true, F: stgaDAGScaleCase(200, 256)},
		{Name: "STGASchedule/rng=v2/m=64/batch=200", Smoke: false, F: stgaScaleCase(200, 64)},
		{Name: "STGASchedule/rng=v2/m=256/batch=200", Smoke: true, F: stgaScaleCase(200, 256)},
		{Name: "STGASchedule/rng=v2/m=1024/batch=200", Smoke: false, F: stgaScaleCase(200, 1024)},
		// replay-nas-stga's round (12 sites, 21 jobs) under Table 1's
		// fixed 100 generations, a day of its rounds under the GA shape
		// the daemon runs, and the GA's selection stage on its own.
		{Name: "STGASchedule/nas/batch=21", Smoke: true, F: stgaNASCase(21)},
		{Name: "STGASchedule/nas/daemon/rounds=24", Smoke: true, F: stgaDaemonCase},
		{Name: "MutationMask/bits=4200", Smoke: true, F: mutationMaskCase(200, 21)},
		{Name: "GASelection/roulette/pop=200", Smoke: true, F: gaSelectionCase(ga.RouletteSelection, 200)},
		{Name: "GASelection/rank/pop=200", Smoke: true, F: gaSelectionCase(ga.RankSelection, 200)},
		{Name: "KernelBuild/m=1024/batch=5000", Smoke: false, F: func(b *testing.B) {
			jobs, sites := scaleBatch(5000, 1024)
			ready := make([]float64, len(sites))
			var kb kernel.Builder
			p := grid.FRiskyPolicy(0.5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := kb.Build(0, sites, ready, nil, jobs)
				for j := range jobs {
					_ = s.Eligible(p, j)
				}
			}
		}},
		{Name: "FitnessEval/nas/pop=200", Smoke: true, F: fitnessEvalCase(21, 200)},
		{Name: "FitnessPath/full-decode/batch=50", Smoke: true, F: fitnessPathCase(50, 20, 200)},
		{Name: "FitnessPath/full-decode/batch=200", Smoke: false, F: fitnessPathCase(200, 20, 200)},
		{Name: "OnlineEngine/jobs=1000", Smoke: true, F: onlineEngineCase(onlineEngineJobs)},
		// The same engine loop on a layered DAG: the dependency tracker's
		// edge path (hold, release, upward ranks) on every round.
		{Name: "OnlineEngine/dag/jobs=1000", Smoke: true, F: onlineEngineCase(onlineEngineDAGJobs)},
		// The event line's codec (DESIGN.md §9): both directions are gated
		// on allocations — encode at zero into a warm buffer, decode at
		// the two strings it has to copy.
		{Name: "EventCodec/encode", Smoke: true, F: func(b *testing.B) {
			ev := placedEvent
			buf := make([]byte, 0, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = ev.AppendJSON(buf[:0])
			}
		}},
		{Name: "EventCodec/decode", Smoke: true, F: func(b *testing.B) {
			line := placedEvent.AppendJSON(nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var ev api.Event
				if err := api.ParseEvent(line, &ev); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The event page on the wire, both formats, through the typed
		// client (DESIGN.md §9.7).
		{Name: "EventStream/ndjson", Smoke: true, F: eventStreamCase(false)},
		{Name: "EventStream/records", Smoke: true, F: eventStreamCase(true)},
		// The durable submit path's other two codecs (DESIGN.md §9.7): the
		// WAL arrival record, gated at zero allocations into a warm log,
		// and a 40-job submit body, as the benchmark's replay sends them.
		{Name: "WALAppend/arrival", Smoke: true, F: walAppendCase},
		{Name: "SubmitDecode/jobs=40", Smoke: true, F: submitDecodeCase(40)},
		// The read side of the durable path (DESIGN.md §10.1, §10.4): a
		// shard log's records through the decoder every recovery runs, and
		// a churn trace file through the reader every boot with one runs.
		{Name: "WALReplay/records=4096", Smoke: true, F: walReplayCase(4096)},
		{Name: "ChurnTrace/read/events=4096", Smoke: true, F: churnReadCase(4096)},
		{Name: "SnapshotWrite/events=65536", Smoke: false, F: snapshotWriteCase(65536, 1)},
		{Name: "SnapshotWrite/shards=3", Smoke: false, F: snapshotWriteCase(65536, 3)},
		{Name: "SnapshotWrite/jobs=262144/tenants=4", Smoke: false, F: registrySnapshotCase(1<<18, 4)},
		{Name: "JournalRestore/events=65536", Smoke: false, F: journalRestoreCase(65536)},
	}
}

// Find returns the named case or an error listing what exists.
func Find(name string) (Case, error) {
	for _, c := range Suite() {
		if c.Name == name {
			return c, nil
		}
	}
	return Case{}, fmt.Errorf("benchkit: unknown case %q", name)
}
