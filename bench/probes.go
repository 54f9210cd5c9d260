package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"trustgrid/internal/api"
	"trustgrid/internal/client"
	"trustgrid/internal/dag"
	"trustgrid/internal/fleet"
	"trustgrid/internal/ga"
	"trustgrid/internal/grid"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
	"trustgrid/internal/sched/kernel"
	"trustgrid/internal/server"
	"trustgrid/internal/stga"
	"trustgrid/internal/wal"
)

// The layer probes run in this process around each module's exported
// entry points, on the same generated inputs as the end-to-end run and
// in its shape: the workload's platform, its observed median batch, its
// request size. They say what a layer costs when nothing else runs, so a
// change to one layer can be seen at the layer before it is looked for
// end to end. probeSlice bounds how long one timed loop runs (quickSlice
// at smoke-test size).
const (
	probeSlice = 150 * time.Millisecond
	quickSlice = 10 * time.Millisecond
)

// probe is the shared context of one workload's layer probes.
type probe struct {
	h     *harness
	w     workload
	res   *runResult
	sites []*grid.Site
	jobs  []*grid.Job // the generated jobs, in submission order
	batch int         // jobs per scheduling round (observed median)
	chunk int         // jobs per submit request
	spec  *fleet.Spec // the run as the server describes it to its shards
	churn []grid.ChurnEvent
	slice time.Duration
}

// more reports whether a timed loop that began at start and has made n
// passes should make another: at least three, then until the slice is up.
func (p *probe) more(start time.Time, n int) bool { return n < 3 || time.Since(start) < p.slice }

// timed runs fn repeatedly for about one slice and returns the mean
// duration of one call.
func (p *probe) timed(fn func()) time.Duration {
	start, n := time.Now(), 0
	for ; p.more(start, n); n++ {
		fn()
	}
	return time.Since(start) / time.Duration(n)
}

// mallocs returns the heap allocations fn makes.
func mallocs(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ns(d time.Duration) float64 { return float64(d) }

func runProbes(ctx context.Context, h *harness, in *inputs, res *runResult) error {
	w := h.w
	sites, err := w.sites()
	if err != nil {
		return err
	}
	p := &probe{h: h, w: w, res: res, sites: sites, churn: in.churn, batch: max(int(res.layer["sched.batch_p50"]), 1), slice: probeSlice}
	if h.quick {
		p.slice = quickSlice
	}
	virtualPerFlush := 0.0
	if w.live {
		virtualPerFlush = w.delta * w.flush.Seconds() / w.tick.Seconds()
	}
	for _, groups := range [][][]jobInput{in.rounds, in.flushes} {
		for g, group := range groups {
			if p.chunk == 0 && len(group) > 0 {
				p.chunk = min(len(group)/max(len(w.tenants), 1), submitChunk)
				if w.live {
					p.chunk = len(group)
				}
			}
			for _, j := range group {
				job := &grid.Job{ID: len(p.jobs), Workload: j.spec.Workload, Nodes: max(j.spec.Nodes, 1),
					SecurityDemand: j.spec.SD, Tenant: j.tenant, Arrival: float64(g) * virtualPerFlush}
				if j.spec.Arrival != nil {
					job.Arrival = *j.spec.Arrival
				}
				p.jobs = append(p.jobs, job)
			}
			if len(p.jobs) >= 20000 {
				break
			}
		}
	}
	p.chunk = max(p.chunk, 1)
	cfg, err := w.serverConfig("", in.churn)
	if err != nil {
		return err
	}
	weights := map[string]float64{api.DefaultTenant: 1}
	for _, t := range w.tenants {
		weights[t.ID] = t.Weight
	}
	p.spec = &fleet.Spec{Sites: sites, Training: cfg.Training, Algo: w.algo, Mode: "frisky", BatchInterval: w.delta,
		Seed: daemonSeed, Setup: w.setup(), Shards: w.shards, RoundBudget: w.roundBudget, Weights: weights, Dynamics: cfg.Dynamics}
	p.spec.Setup.GAWorkers = childProcs() // what the child's GOMAXPROCS gives its GA

	for _, step := range []struct {
		name string
		run  func(context.Context) error
	}{
		{"rng", p.probeRNG}, {"ga", p.probeGA}, {"stga", p.probeSTGA}, {"kernel", p.probeKernel},
		{"engine", p.probeEngine}, {"coordinator", p.probeCoordinator}, {"wal", p.probeWAL},
		{"server", p.probeServer}, {"fleet", p.probeFleet}, {"dag", p.probeDAG},
	} {
		if err := step.run(ctx); err != nil {
			return fmt.Errorf("%s: %w", step.name, err)
		}
	}
	return nil
}

// round returns the i-th batch-sized slice of the generated jobs.
func (p *probe) round(i int) []*grid.Job {
	n := len(p.jobs) / p.batch
	lo := (i % max(n, 1)) * p.batch
	return p.jobs[lo:min(lo+p.batch, len(p.jobs))]
}

func (p *probe) freshState(batch []*grid.Job, kb *kernel.Builder) *sched.State {
	st := &sched.State{Sites: p.sites, Ready: make([]float64, len(p.sites))}
	if kb != nil {
		st.Kern = kb.Build(0, p.sites, st.Ready, nil, batch)
	}
	return st
}

func (p *probe) probeRNG(context.Context) error {
	block := rng.NewBlock(rng.New(daemonSeed))
	dst := make([]uint64, 4096)
	per := p.timed(func() { block.Fill(dst) })
	p.res.layer["rng.draws_per_us"] = ratio(float64(len(dst)), us(per))
	return nil
}

// probeGA times one bare ga.Run on a batch-shaped makespan problem at the
// workload's GA sizes: the evolution loop without the STGA around it.
func (p *probe) probeGA(context.Context) error {
	batch, m := p.round(0), len(p.sites)
	etc := grid.ETCMatrix(batch, p.sites)
	all := make([]int, m)
	for i := range all {
		all[i] = i
	}
	allowed := make([][]int, len(batch))
	for i := range allowed {
		allowed[i] = all
	}
	prob := &ga.Problem{Length: len(batch), Allowed: allowed, Fitness: stga.MakespanFitness(m, make([]float64, m), etc, 0)}
	cfg := ga.DefaultConfig()
	cfg.PopulationSize, cfg.Generations = p.spec.Setup.Population, p.spec.Setup.Generations
	cfg.Workers, cfg.RNG = p.spec.Setup.GAWorkers, rng.Version(rngContract)
	var runErr error
	seed := uint64(0)
	per := p.timed(func() {
		seed++
		if _, err := ga.Run(prob, cfg, nil, rng.New(seed)); err != nil {
			runErr = err
		}
	})
	p.res.layer["ga.run_ms"] = ms(per)
	p.res.layer["ga.evals_per_s"] = ratio(float64(cfg.PopulationSize*(cfg.Generations+1)), per.Seconds())
	return runErr
}

// probeSTGA builds the STGA as the daemon does (training included) and
// schedules successive generated batches with it, history carried over.
func (p *probe) probeSTGA(context.Context) error {
	setup := p.spec.Setup
	training := p.spec.Training
	if training == nil {
		training = p.jobs[:min(setup.TrainingJobs, len(p.jobs))]
	}
	start := time.Now()
	s, err := setup.SchedulerByName("stga", setup.Policy(grid.FRisky, setup.F), rng.New(daemonSeed).Derive("scheduler"), training, p.sites)
	if err != nil {
		return err
	}
	p.res.layer["stga.train_s"] = time.Since(start).Seconds()
	i := 0
	var kb kernel.Builder
	step := func() {
		b := p.round(i)
		s.Schedule(b, p.freshState(b, &kb))
		i++
	}
	p.res.layer["stga.schedule_ms_per_round"] = ms(p.timed(step))
	p.res.layer["stga.allocs_per_round"] = mallocs(step)
	if sc, ok := s.(*stga.Scheduler); ok {
		p.res.layer["stga.history_hit_rate"] = sc.Table().HitRate()
	}
	return nil
}

func (p *probe) probeKernel(context.Context) error {
	var kb kernel.Builder
	ready := make([]float64, len(p.sites))
	i := 0
	build := func() {
		kb.Build(0, p.sites, ready, nil, p.round(i))
		i++
	}
	per := p.timed(build)
	p.res.layer["kernel.build_us_per_round"] = us(per)
	p.res.layer["kernel.build_ns_per_cell"] = ratio(ns(per), float64(p.batch*len(p.sites)))
	p.res.layer["kernel.allocs_per_round"] = mallocs(build)

	setup := p.spec.Setup
	s, err := setup.SchedulerByName("minmin", setup.Policy(grid.FRisky, setup.F), rng.New(daemonSeed), nil, p.sites)
	if err != nil {
		return err
	}
	// The greedy loop alone: the snapshot is built outside the timed call.
	var spent time.Duration
	rounds := 0
	for start := time.Now(); p.more(start, rounds); rounds++ {
		b := p.round(rounds)
		st := p.freshState(b, &kb)
		t := time.Now()
		s.Schedule(b, st)
		spent += time.Since(t)
	}
	per = spent / time.Duration(rounds)
	p.res.layer["heuristics.schedule_us_per_round"] = us(per)
	p.res.layer["heuristics.schedule_ns_per_job_site"] = ratio(ns(per), float64(p.batch*len(p.sites)))
	return nil
}

// timingScheduler wraps the workload's scheduler so the engine probe can
// take the Schedule spans (time and allocations) out of the engine's
// total: what is left is the engine loop itself.
type timingScheduler struct {
	sched.Scheduler
	spent   time.Duration
	mallocs float64
}

func (t *timingScheduler) Schedule(batch []*grid.Job, st *sched.State) []sched.Assignment {
	var out []sched.Assignment
	start := time.Now()
	t.mallocs += mallocs(func() { out = t.Scheduler.Schedule(batch, st) })
	t.spent += time.Since(start)
	return out
}

// SaveState and RestoreState pass the wrapped scheduler's cross-batch
// state through, so a snapshot taken under the wrapper restores into an
// unwrapped engine (a stateless scheduler saves nothing).
func (t *timingScheduler) SaveState() ([]byte, error) {
	if ss, ok := t.Scheduler.(sched.StatefulScheduler); ok {
		return ss.SaveState()
	}
	return nil, nil
}

func (t *timingScheduler) RestoreState(blob []byte) error {
	if ss, ok := t.Scheduler.(sched.StatefulScheduler); ok {
		return ss.RestoreState(blob)
	}
	return nil
}

// probeEngine drives one in-process engine, built exactly as the server
// builds a shard, through whole rounds of the generated jobs.
func (p *probe) probeEngine(context.Context) error {
	one := *p.spec
	one.Shards = 1
	cfg, err := one.ShardConfig(0, true) // durable: the snapshot below needs the bookkeeping
	if err != nil {
		return err
	}
	ts := &timingScheduler{Scheduler: cfg.Scheduler}
	cfg.Scheduler = ts
	o, err := sched.NewOnline(cfg)
	if err != nil {
		return err
	}
	jobs, rounds := 0, 0
	var runErr error
	total := time.Duration(0)
	allocs := mallocs(func() {
		for start := time.Now(); p.more(start, rounds); rounds++ {
			t := time.Now()
			for _, j := range p.round(rounds) {
				c := *j
				c.ID, c.Arrival = jobs, o.Now()
				if err := o.SubmitLocal(&c); err != nil {
					runErr = err
					return
				}
				jobs++
			}
			if err := o.AdvanceTo(o.Now() + p.w.delta); err != nil {
				runErr = err
				return
			}
			total += time.Since(t)
		}
	})
	if runErr != nil {
		return runErr
	}
	p.res.layer["sched.engine_us_per_job"] = ratio(us(total-ts.spent), float64(jobs))
	p.res.layer["sched.engine_allocs_per_job"] = ratio(allocs-ts.mallocs, float64(jobs))

	var snap *sched.EngineSnapshot
	p.res.layer["sched.snapshot_ms"] = ms(p.timed(func() {
		if s, err := o.Snapshot(); err != nil {
			runErr = err
		} else {
			snap = s
		}
	}))
	if runErr != nil {
		return runErr
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	p.res.layer["sched.snapshot_bytes"] = float64(len(raw))
	p.res.layer["sched.restore_ms"] = ms(p.timed(func() {
		rc, err := one.ShardConfig(0, true)
		if err == nil {
			_, err = sched.RestoreOnline(rc, snap)
		}
		if err != nil {
			runErr = err
		}
	}))
	return runErr
}

// probeCoordinator measures the tier above the shards with nothing in
// them: an empty Δ-round is pure fan-out and join, and the merge is timed
// on event buffers the size a real round produces.
func (p *probe) probeCoordinator(context.Context) error {
	cc := sched.CoordinatorConfig{Parts: p.spec.Parts(), OnEvent: func(sched.EngineEvent) {}}
	for i := 0; i < p.spec.Shards; i++ {
		sc, err := p.spec.ShardConfig(i, false)
		if err != nil {
			return err
		}
		sc.Dynamics = nil // churn would put events into the empty rounds
		cc.Shards = append(cc.Shards, sc)
	}
	c, err := sched.NewCoordinator(cc)
	if err != nil {
		return err
	}
	var runErr error
	p.res.layer["sched.barrier_us_per_round"] = us(p.timed(func() {
		if err := c.AdvanceTo(c.Now() + p.w.delta); err != nil {
			runErr = err
		}
	}))
	events := max(int(float64(p.batch)*p.res.layer["sched.events_per_job"]), p.spec.Shards)
	bufs := make([][]sched.EngineEvent, p.spec.Shards)
	for i := 0; i < events; i++ {
		s := i % p.spec.Shards
		bufs[s] = append(bufs[s], sched.EngineEvent{Kind: sched.EventPlaced, Time: float64(i / p.spec.Shards), Site: s})
	}
	per := p.timed(func() { sched.MergeShardEvents(bufs) })
	p.res.layer["sched.merge_ns_per_event"] = ratio(ns(per), float64(events))
	return runErr
}

func traceRecord(j *grid.Job) *api.TraceRecord {
	return &api.TraceRecord{ID: j.ID, Arrival: j.Arrival, Workload: j.Workload, Nodes: j.Nodes, SD: j.SecurityDemand, Tenant: j.Tenant}
}

// probeWAL appends the generated jobs as arrival records in request-sized
// groups, one commit (fsync) per group as the server does, then replays
// the log and writes one engine-snapshot-sized snapshot.
func (p *probe) probeWAL(context.Context) error {
	dir := filepath.Join(p.h.dir, "probe-wal")
	l, err := wal.Open(dir)
	if err != nil {
		return err
	}
	defer l.Close()
	n := min(len(p.jobs), 4096)
	var appendT, commitT time.Duration
	commits := 0
	for i := 0; i < n; i += p.chunk {
		t := time.Now()
		for _, j := range p.jobs[i:min(i+p.chunk, n)] {
			if _, err := l.Append(wal.Record{Kind: wal.KindArrival, At: j.Arrival, Arrival: traceRecord(j)}); err != nil {
				return err
			}
		}
		appendT += time.Since(t)
		t = time.Now()
		if err := l.Commit(); err != nil {
			return err
		}
		commitT += time.Since(t)
		commits++
	}
	p.res.layer["wal.append_ns_per_rec"] = ratio(ns(appendT), float64(n))
	p.res.layer["wal.commit_us"] = ratio(us(commitT), float64(commits))
	size := int64(0)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if fi, err := e.Info(); err == nil {
			size += fi.Size()
		}
	}
	p.res.layer["wal.bytes_per_job"] = ratio(float64(size), float64(n))
	var runErr error
	per := p.timed(func() {
		if err := l.Replay(0, func(wal.Record) error { return nil }); err != nil {
			runErr = err
		}
	})
	p.res.layer["wal.replay_ns_per_rec"] = ratio(ns(per), float64(n))
	payload := make([]byte, max(int(p.res.layer["sched.snapshot_bytes"]), 1))
	p.res.layer["wal.snapshot_write_ms"] = ms(p.timed(func() {
		if err := l.WriteSnapshot(l.LastSeq(), payload); err != nil {
			runErr = err
		}
	}))
	return runErr
}

// serve runs one request through the handler in process, without a
// socket, and fails on a non-2xx answer.
func serve(hd http.Handler, method, path string, body []byte) (*httptest.ResponseRecorder, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rw := httptest.NewRecorder()
	hd.ServeHTTP(rw, req)
	if rw.Code/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, rw.Code, rw.Body.String())
	}
	return rw, nil
}

// handlerRounds drives a manual-clock server through its HTTP handler
// for a slice of time: per round, request-sized submits, one advance and
// one events read. It returns per-job, per-round and per-event means.
func (p *probe) handlerRounds(srv *server.Server) (submitPerJob, advancePerRound, eventsPerEvent time.Duration, bodies [][]byte, err error) {
	hd := srv.Handler()
	for _, t := range p.w.tenants {
		raw, _ := json.Marshal(t) // a plain struct cannot fail to marshal
		if _, err = serve(hd, http.MethodPost, "/v2/tenants", raw); err != nil {
			return
		}
	}
	var submitT, advanceT, eventsT time.Duration
	jobs, rounds, events, cursor := 0, 0, 0, 0
	for start := time.Now(); p.more(start, rounds); rounds++ {
		for lo, b := 0, p.round(rounds); lo < len(b); lo += p.chunk {
			chunk := b[lo:min(lo+p.chunk, len(b))]
			specs := make([]api.JobSpec, len(chunk))
			for i, j := range chunk {
				id, at := jobs+i, float64(rounds)*p.w.delta
				specs[i] = api.JobSpec{ID: &id, Arrival: &at, Workload: j.Workload, Nodes: j.Nodes, SD: j.SecurityDemand}
			}
			raw, _ := json.Marshal(api.SubmitRequest{Jobs: specs})
			bodies = append(bodies, raw)
			path := "/v1/jobs"
			if chunk[0].Tenant != "" {
				path = "/v2/tenants/" + chunk[0].Tenant + "/jobs"
			}
			t := time.Now()
			if _, err = serve(hd, http.MethodPost, path, raw); err != nil {
				return
			}
			submitT += time.Since(t)
			jobs += len(chunk)
		}
		raw, _ := json.Marshal(api.AdvanceRequest{To: float64(rounds+1) * p.w.delta})
		t := time.Now()
		if _, err = serve(hd, http.MethodPost, "/v2/advance", raw); err != nil {
			return
		}
		advanceT += time.Since(t)
		t = time.Now()
		var rw *httptest.ResponseRecorder
		if rw, err = serve(hd, http.MethodGet, fmt.Sprintf("/v2/events?since=%d", cursor), nil); err != nil {
			return
		}
		eventsT += time.Since(t)
		n := bytes.Count(rw.Body.Bytes(), []byte{'\n'})
		events, cursor = events+n, cursor+n
	}
	div := func(d time.Duration, n int) time.Duration { return d / time.Duration(max(n, 1)) }
	return div(submitT, jobs), div(advanceT, rounds), div(eventsT, events), bodies, nil
}

// probeServer measures the HTTP surface through httptest: the handler in
// process (no socket) without and with a WAL, recovery of that WAL, the
// loopback round trip a request adds, and the typed client's side.
func (p *probe) probeServer(ctx context.Context) error {
	cfg, err := p.w.serverConfig("", p.churn)
	if err != nil {
		return err
	}
	cfg.Manual = true
	plain, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer plain.Stop(false)
	submit, advance, events, bodies, err := p.handlerRounds(plain)
	if err != nil {
		return err
	}
	p.res.layer["server.submit_us_per_job"] = us(submit)
	p.res.layer["server.advance_us_per_round"] = us(advance)
	p.res.layer["server.events_ns_per_event"] = ns(events)

	// Wire formats: what one request body costs to decode and to encode.
	var req api.SubmitRequest
	var runErr error
	i := 0
	per := p.timed(func() {
		req = api.SubmitRequest{}
		if err := json.NewDecoder(bytes.NewReader(bodies[i%len(bodies)])).Decode(&req); err != nil {
			runErr = err
		}
		i++
	})
	p.res.layer["api.decode_us_per_job"] = ratio(us(per), float64(len(req.Jobs)))
	per = p.timed(func() {
		if _, err := json.Marshal(req); err != nil {
			runErr = err
		}
	})
	p.res.layer["client.submit_encode_us_per_job"] = ratio(us(per), float64(len(req.Jobs)))
	if runErr != nil {
		return runErr
	}

	// The same handler behind a loopback socket, through the typed client.
	ts := httptest.NewServer(plain.Handler())
	defer ts.Close()
	c := client.New(ts.URL).WithHTTPClient(ts.Client())
	inProc := p.timed(func() {
		if _, err := serve(plain.Handler(), http.MethodGet, "/v2/healthz", nil); err != nil {
			runErr = err
		}
	})
	overWire := p.timed(func() {
		if err := c.Healthz(ctx); err != nil {
			runErr = err
		}
	})
	p.res.layer["server.http_overhead_us_per_req"] = us(overWire - inProc)
	read, passes := 0, 0
	per = p.timed(func() {
		passes++
		es := c.Events(ctx, client.EventsOptions{})
		defer es.Close()
		for {
			if _, err := es.Next(); err != nil {
				if !errors.Is(err, io.EOF) {
					runErr = err
				}
				return
			}
			read++
		}
	})
	if runErr != nil {
		return runErr
	}
	p.res.layer["client.events_us_per_event"] = ratio(us(per)*float64(passes), float64(read))

	// Durable: the same rounds with commit-before-ack, then recovery of
	// the state they left, on a copy so the writer can stay open.
	walDir := filepath.Join(p.h.dir, "probe-server-wal")
	cfg.WALDir = walDir
	durable, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer durable.Stop(false)
	if submit, _, _, _, err = p.handlerRounds(durable); err != nil {
		return err
	}
	p.res.layer["server.submit_durable_us_per_job"] = us(submit)
	copyDir := filepath.Join(p.h.dir, "probe-server-wal-copy")
	if err := os.CopyFS(copyDir, os.DirFS(walDir)); err != nil {
		return err
	}
	if p.res.layer["server.recover_records"] == 0 { // not a durable workload: no end-to-end count
		p.res.layer["server.recover_records"] = float64(walRecords(copyDir))
	}
	cfg.WALDir = copyDir
	start := time.Now()
	recovered, err := server.New(cfg)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	p.res.layer["server.recover_ms"] = ms(time.Since(start))
	_, _ = recovered.Stop(false)
	return nil
}

// probeFleet attaches one out-of-process-style worker over loopback TCP
// and measures what the wire adds to a barrier and to a submission. No
// end-to-end workload runs a fleet: this is a declared gap.
func (p *probe) probeFleet(context.Context) error {
	one := *p.spec
	one.Shards, one.Dynamics = 1, nil
	worker, err := fleet.NewWorker(fleet.WorkerConfig{})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- worker.Serve(ln) }()
	defer func() {
		_ = worker.Close()
		<-served
	}()
	rs, err := fleet.Dial(ln.Addr().String(), &one, 0, fleet.DialConfig{})
	if err != nil {
		return err
	}
	defer rs.Close()
	rs.SetEventSink(func(sched.EngineEvent) {})
	var runErr error
	now := 0.0
	p.res.layer["fleet.barrier_rtt_us"] = us(p.timed(func() {
		now += p.w.delta
		if err := rs.AdvanceTo(now); err != nil {
			runErr = err
		}
	}))
	i := 0
	p.res.layer["fleet.submit_us_per_job"] = us(p.timed(func() {
		c := *p.jobs[i%len(p.jobs)]
		c.ID, c.Arrival, c.Tenant = i, now, ""
		if err := rs.Submit(&c); err != nil {
			runErr = err
		}
		i++
	}))
	if runErr != nil {
		return runErr
	}
	_, err = rs.Drain()
	return err
}

// probeDAG runs the dependency tracker on a layered workload shaped like
// the batch. No end-to-end workload submits dependent jobs: a declared
// gap, like the fleet.
func (p *probe) probeDAG(context.Context) error {
	width := max(p.batch, 2)
	jobs, err := dag.Generate(rng.New(daemonSeed), dag.GenConfig{Jobs: 8 * width, Width: width, EdgeProb: 0.3,
		Rate: 1, WorkloadStep: 15000, Levels: 20})
	if err != nil {
		return err
	}
	meanInv := 0.0
	for _, s := range p.sites {
		meanInv += 1 / s.Speed
	}
	meanInv /= float64(len(p.sites))
	ranks := make([]float64, width)
	var rankT time.Duration
	rounds := 0
	per := p.timed(func() {
		tr := dag.NewTracker()
		for _, j := range jobs {
			tr.Arrive(j)
		}
		t := time.Now()
		tr.BatchRanks(jobs[:width], meanInv, ranks)
		rankT += time.Since(t)
		rounds++
		for _, j := range jobs {
			tr.Complete(j.ID)
		}
	})
	p.res.layer["dag.ranks_us_per_round"] = ratio(us(rankT), float64(rounds))
	p.res.layer["dag.release_ns_per_job"] = ratio(ns(per)-ns(rankT)/float64(rounds), float64(len(jobs)))
	return nil
}
