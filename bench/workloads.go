package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"trustgrid/internal/api"
	"trustgrid/internal/experiments"
	"trustgrid/internal/fuzzy"
	"trustgrid/internal/grid"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
	"trustgrid/internal/server"
	"trustgrid/internal/trace"
)

// The daemon side of every workload is fixed: platform, daemon seed and
// draw contract never depend on -seed, so two runs differ only in the
// generated inputs (jobs and churn) the system receives.
const (
	daemonSeed   = 1
	platformSeed = 1
	rngContract  = 2
)

// workload is one benchmark traffic mix: a daemon configuration plus
// the generator that drives it.
type workload struct {
	name string
	why  string
	// live selects the open-loop wall-tick driver; otherwise the run is
	// a closed-loop replay on the manual clock.
	live bool

	platform string // nas | psa | wide
	algo     string
	paperGA  bool    // Table 1 GA sizes (population 200, 100 generations)
	delta    float64 // Δ, virtual seconds per round
	rho      float64 // target virtual utilisation of the whole platform

	shards      int
	durable     bool
	roundBudget int
	tenants     []api.TenantSpec
	churn       bool

	// Replay shape.
	jobsPerRound int // PSA-style generator; the NAS trace brings its own
	maxRounds    int // generated trace length (the window usually ends first)
	hashRounds   int // prefix whose placements are hashed and counted

	// Live shape. The flush period deliberately does not divide the tick:
	// flushes then fall on every phase of the Δ-round in turn, and the
	// latency percentiles do not depend on how the generator's clock
	// happens to line up with the daemon's ticker.
	flush    time.Duration // submit cadence
	perFlush int           // jobs per submit request
	tick     time.Duration // wall length of one Δ-round
}

// rate is the open-loop arrival rate in jobs per wall second.
func (w *workload) rate() float64 { return float64(w.perFlush) / w.flush.Seconds() }

var fourTenants = []api.TenantSpec{
	{ID: "gold", Weight: 4}, {ID: "silver", Weight: 2},
	{ID: "iron", Weight: 1}, {ID: "bronze", Weight: 1},
}

// workloads lists the benchmark's traffic mixes. BENCHMARK.json names
// the same four; the "why" strings there are these.
var workloads = []workload{
	{
		name:     "replay-nas-stga",
		why:      "paper headline through the service: NAS trace, STGA at Table 1 scale, no WAL, one engine; stga/ga/rng do nearly all the work",
		platform: "nas", algo: "stga", paperGA: true, delta: 3600, rho: 1.15,
		shards: 1, maxRounds: 368 * 24, hashRounds: 100,
	},
	{
		name:     "replay-psa-durable",
		why:      "3 shards with per-shard WAL, 4 tenants, churn and reputation under Min-Min: wal, server routing/recovery, coordinator barrier/merge and api decode dominate",
		platform: "psa", algo: "minmin", delta: 5000, rho: 0.25,
		shards: 3, durable: true, roundBudget: 256, tenants: fourTenants, churn: true,
		jobsPerRound: 160, maxRounds: 6000, hashRounds: 200,
	},
	{
		name: "live-wide-minmin",
		why:  "open loop on a 1024-site platform, Min-Min, no WAL: the per-round kernel build and greedy loop set client latency here and nowhere else",
		live: true, platform: "wide", algo: "minmin", delta: 5000, rho: 0.5,
		shards: 1, flush: 7 * time.Millisecond, perFlush: 28, tick: 50 * time.Millisecond, // 4000 jobs/s
	},
	{
		name: "live-psa-durable",
		why:  "open loop over 4 tenants on the flat WAL at the default snapshot cadence: the durable layers used on the wall-ticker path, channel ingest and single-shard paths",
		live: true, platform: "psa", algo: "minmin", delta: 5000, rho: 0.5,
		shards: 1, durable: true, roundBudget: 256, tenants: fourTenants,
		flush: 14 * time.Millisecond, perFlush: 14, tick: 20 * time.Millisecond, // 1000 jobs/s
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// quick shrinks a workload to a smoke-test size: small GA, short trace,
// low rate. Used by the package tests and -quick.
func (w workload) quick() workload {
	w.paperGA = false
	if w.live {
		w.perFlush /= 5
	} else {
		w.maxRounds = min(w.maxRounds, 400)
		w.hashRounds = 5
	}
	return w
}

// sites builds the workload's fixed platform.
func (w *workload) sites() ([]*grid.Site, error) {
	r := rng.New(platformSeed).Derive("sites")
	switch w.platform {
	case "nas":
		return grid.NASPlatform().Generate(r)
	case "psa":
		return grid.PSAPlatform().Generate(r)
	case "wide":
		// The benchkit scale axis: 1024 single-node sites, speeds cycling
		// through the PSA levels.
		const m = 1024
		pc := grid.PlatformConfig{Speeds: make([]float64, m), Nodes: make([]int, m),
			SLMin: 0.4, SLMax: 1.0, GuaranteeSafeSL: 0.95}
		for i := range pc.Speeds {
			pc.Speeds[i] = float64(i%10+1) * 10
			pc.Nodes[i] = 1
		}
		return pc.Generate(r)
	}
	return nil, fmt.Errorf("unknown platform %q", w.platform)
}

func (w *workload) setup() experiments.Setup {
	s := experiments.TestSetup()
	if w.paperGA {
		s = experiments.DefaultSetup()
	}
	s.Seed = daemonSeed
	s.RNGVersion = rngContract
	return s
}

// childConfig is what the parent hands the system under test: the
// workload's name (fixed daemon configuration), where its durable state
// lives, the generated churn trace, and whose child it is.
type childConfig struct {
	Workload  string `json:"workload"`
	Quick     bool   `json:"quick"`
	ParentPID int    `json:"parent_pid"`
	WALDir    string `json:"wal_dir,omitempty"`
	ChurnFile string `json:"churn_file,omitempty"`
}

// serverConfig assembles the daemon configuration for this workload.
func (w *workload) serverConfig(walDir string, churn []grid.ChurnEvent) (server.Config, error) {
	sites, err := w.sites()
	if err != nil {
		return server.Config{}, err
	}
	setup := w.setup()
	cfg := server.Config{
		Sites: sites, Algo: w.algo, Mode: "frisky", BatchInterval: w.delta,
		Seed: daemonSeed, Setup: setup, Manual: !w.live, Tick: w.tick,
		Shards: w.shards, RoundBudget: w.roundBudget,
	}
	if w.durable {
		cfg.WALDir = walDir
	}
	if w.algo == "stga" {
		// The training set is part of the daemon's configuration, not of
		// the measured input: the fixed 500-job NAS training prefix.
		tc := trace.DefaultNASConfig()
		tc.Jobs = setup.TrainingJobs
		tc.LoadFactor = w.rho
		if cfg.Training, err = tc.Generate(rng.New(daemonSeed).Derive("training")); err != nil {
			return server.Config{}, err
		}
	}
	if w.churn {
		rep := fuzzy.DefaultReputationConfig()
		cfg.Dynamics = &sched.DynamicsConfig{Churn: churn, Reputation: &rep}
	}
	return cfg, nil
}

// jobInput is one generated job on its way to the daemon.
type jobInput struct {
	tenant string
	spec   api.JobSpec
}

// inputs is everything a run feeds the system, generated from -seed.
type inputs struct {
	// rounds[r] are the jobs whose arrival falls in Δ-round r (replay).
	rounds [][]jobInput
	// flushes[k] are the jobs due at start + k·flush (live); all jobs of
	// one flush belong to one tenant, so a flush is one request.
	flushes [][]jobInput
	churn   []grid.ChurnEvent
	jobs    int
	digest  string // sha256 over the canonical JSON of jobs and churn
}

// meanWork is the mean job workload that loads the platform to rho when
// perRound jobs arrive every Δ.
func (w *workload) meanWork(sites []*grid.Site, perRound float64) float64 {
	return w.rho * grid.TotalSpeed(sites) * w.delta / perRound
}

// generate builds the run's inputs from the seed. seconds sizes the live
// schedule; replay traces are maxRounds long whatever the window.
func (w *workload) generate(seed uint64, seconds float64) (*inputs, error) {
	sites, err := w.sites()
	if err != nil {
		return nil, err
	}
	r := rng.New(seed).Derive("bench/" + w.name)
	in := &inputs{}
	tenantOf := func(i int) string {
		if len(w.tenants) == 0 {
			return ""
		}
		return w.tenants[i%len(w.tenants)].ID
	}
	const levels = 20
	levelRng, sdRng, arrRng := r.Derive("levels"), r.Derive("sd"), r.Derive("arrivals")
	psaSpec := func(mean float64) api.JobSpec {
		// PSA-style: 20 discrete workload levels, uniform security demand.
		unit := mean / ((levels + 1) / 2.0)
		return api.JobSpec{Workload: unit * float64(levelRng.Level(levels)), SD: sdRng.Uniform(0.6, 0.9)}
	}
	switch {
	case w.live:
		mean := w.meanWork(sites, w.rate()*w.tick.Seconds())
		n := int(seconds / w.flush.Seconds())
		in.flushes = make([][]jobInput, n)
		for k := range in.flushes {
			fl := make([]jobInput, w.perFlush)
			for i := range fl {
				fl[i] = jobInput{tenant: tenantOf(k), spec: psaSpec(mean)}
			}
			in.flushes[k] = fl
			in.jobs += len(fl)
		}
	case w.platform == "nas":
		nc := trace.DefaultNASConfig()
		nc.Span = float64(w.maxRounds) * w.delta
		// The Table 1 density: 16 000 jobs per 46 days.
		nc.Jobs = int(16000 * nc.Span / (46 * 24 * 3600))
		nc.LoadFactor = w.rho
		jobs, err := nc.Generate(r.Derive("nas"))
		if err != nil {
			return nil, err
		}
		in.rounds = make([][]jobInput, w.maxRounds)
		for _, j := range jobs {
			rd := min(int(j.Arrival/w.delta), w.maxRounds-1)
			id, at := j.ID, j.Arrival
			in.rounds[rd] = append(in.rounds[rd], jobInput{spec: api.JobSpec{
				ID: &id, Arrival: &at, Workload: j.Workload, Nodes: j.Nodes, SD: j.SecurityDemand}})
		}
		in.jobs = len(jobs)
	default:
		mean := w.meanWork(sites, float64(w.jobsPerRound))
		in.rounds = make([][]jobInput, w.maxRounds)
		at := make([]float64, w.jobsPerRound)
		for rd := range in.rounds {
			for i := range at {
				at[i] = (float64(rd) + arrRng.Float64()) * w.delta
			}
			sort.Float64s(at)
			round := make([]jobInput, w.jobsPerRound)
			for i := range round {
				id, a := rd*w.jobsPerRound+i, at[i]
				spec := psaSpec(mean)
				spec.ID, spec.Arrival = &id, &a
				round[i] = jobInput{tenant: tenantOf(i), spec: spec}
			}
			in.rounds[rd] = round
			in.jobs += len(round)
		}
	}
	if w.churn {
		// Gentle churn: incidents every ~60 rounds per site, outages of ~4
		// rounds, so a site is out of service about 5 % of the time.
		cc := grid.DefaultChurnConfig(float64(w.maxRounds) * w.delta)
		cc.MTBF = 60 * w.delta
		cc.Outage = 4 * w.delta
		cc.DegradeMean = 4 * w.delta
		if in.churn, err = cc.Generate(r.Derive("churn"), len(sites)); err != nil {
			return nil, err
		}
	}
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, set := range [][][]jobInput{in.rounds, in.flushes} {
		for _, group := range set {
			for _, j := range group {
				_ = enc.Encode(j.tenant) // writes to a hash cannot fail
				_ = enc.Encode(j.spec)
			}
		}
	}
	_ = enc.Encode(in.churn)
	in.digest = hex.EncodeToString(h.Sum(nil))
	return in, nil
}

// writeChurn materialises the churn trace for the child.
func writeChurn(path string, events []grid.ChurnEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := grid.WriteChurnTrace(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readChurn(path string) ([]grid.ChurnEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return grid.ReadChurnTrace(f)
}
