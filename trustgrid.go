// Package trustgrid is a from-scratch Go reproduction of
//
//	S. Song, Y.-K. Kwok, K. Hwang, "Security-Driven Heuristics and A Fast
//	Genetic Algorithm for Trusted Grid Job Scheduling", IPDPS 2005.
//
// It provides a discrete-event grid simulator with the paper's security
// model (site security levels vs job security demands, exponential
// failure law), the security-driven Min-Min and Sufferage heuristics
// under secure / risky / f-risky modes, and the Space-Time Genetic
// Algorithm (STGA) — a batch scheduler that warm-starts its population
// from a similarity-indexed history of previous scheduling rounds.
//
// Beyond the paper's closed-world experiments, the package exposes the
// online serving layer behind the trustgridd daemon: an incremental
// engine fed by streaming job arrivals (NewOnline) and an embeddable
// HTTP service around it (NewService), with a recorded arrival trace
// replaying byte-identically through Simulate (DESIGN.md §6).
//
// This root package is a facade re-exporting the pieces a downstream
// user needs; the implementation lives in the internal packages (see
// DESIGN.md for the system inventory).
//
// Quick start:
//
//	w, _ := trustgrid.PSAWorkload(1, 1000)            // Table 1 PSA setup
//	sched := trustgrid.NewSTGA(trustgrid.STGAConfig(), trustgrid.NewRand(1))
//	res, _ := trustgrid.Simulate(trustgrid.SimConfig{
//	    Jobs: w.Jobs, Sites: w.Sites, Scheduler: sched,
//	    BatchInterval: 5000, Rand: trustgrid.NewRand(2),
//	})
//	fmt.Println(res.Summary.Makespan)
package trustgrid

import (
	"time"

	"trustgrid/internal/api"
	"trustgrid/internal/client"
	"trustgrid/internal/experiments"
	"trustgrid/internal/fuzzy"
	"trustgrid/internal/ga"
	"trustgrid/internal/grid"
	"trustgrid/internal/heuristics"
	"trustgrid/internal/metrics"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
	"trustgrid/internal/server"
	"trustgrid/internal/stga"
)

// Core model types.
type (
	// Job is an independent, non-malleable grid job.
	Job = grid.Job
	// Site is a grid resource site with a security level.
	Site = grid.Site
	// Policy is a risk-mode admission rule (secure / risky / f-risky).
	Policy = grid.Policy
	// SecurityModel is the Eq. 1 exponential failure law.
	SecurityModel = grid.SecurityModel
	// Scheduler maps job batches onto sites.
	Scheduler = sched.Scheduler
	// Assignment is one job→site dispatch decision.
	Assignment = sched.Assignment
	// State is the scheduler-visible grid state.
	State = sched.State
	// Summary aggregates the paper's performance metrics (§4.1).
	Summary = metrics.Summary
	// JobRecord is one job's simulated lifecycle.
	JobRecord = metrics.JobRecord
	// SimConfig configures a full simulation run.
	SimConfig = sched.RunConfig
	// SimResult is a completed simulation.
	SimResult = sched.Result
	// Rand is a deterministic random stream.
	Rand = rng.Stream
	// Workload bundles generated jobs, sites and STGA training jobs.
	Workload = experiments.Workload
	// Setup carries every experiment knob (Table 1 defaults), including
	// Workers (concurrent sweep points) and GAWorkers (parallel fitness
	// evaluation) — both 0 = all cores, 1 = serial, and both
	// result-preserving at any setting.
	Setup = experiments.Setup
	// GAConfig holds the evolutionary hyper-parameters, including the
	// Workers knob that parallelizes fitness evaluation across
	// goroutines (0 = all cores, 1 = serial) while keeping evolution
	// bit-identical to the serial path. Reachable as STGAConfig().GA.
	GAConfig = ga.Config
	// Online is the incremental simulation engine: the batch loop of
	// Simulate promoted to an open-world API where jobs stream in
	// (Submit) while the owner advances the virtual clock
	// (AdvanceTo/Drain), all on one goroutine. Simulate is a thin
	// wrapper over it, so recorded online traffic replays
	// byte-identically through the batch path (DESIGN.md §6).
	Online = sched.Online
	// EngineEvent is one job lifecycle notification (arrival, placement,
	// failure, completion) delivered through SimConfig.OnEvent.
	EngineEvent = sched.EngineEvent
	// EventKind labels an EngineEvent.
	EventKind = sched.EventKind
	// DynamicsConfig turns a simulation into a dynamic grid: site churn,
	// ground-truth security divergence and online reputation feedback
	// (DESIGN.md §7). Attach via SimConfig.Dynamics.
	DynamicsConfig = sched.DynamicsConfig
	// ChurnEvent is one timed site transition (crash, drain, join,
	// degrade, restore) of a churn trace.
	ChurnEvent = grid.ChurnEvent
	// ChurnConfig generates seeded churn traces (grid.ChurnConfig).
	ChurnConfig = grid.ChurnConfig
	// ReputationConfig parameterizes the online per-site trust model:
	// EWMA evidence per security-demand band feeding the fuzzy
	// inference.
	ReputationConfig = fuzzy.ReputationConfig
	// Reputation is one site's online trust state.
	Reputation = fuzzy.Reputation
	// SiteStatus is a site's live dynamic-grid state, as reported by
	// Online.SiteStatuses and the daemon's /v1/sites endpoint.
	SiteStatus = sched.SiteStatus
	// ServiceConfig configures the embeddable trustgridd HTTP service.
	ServiceConfig = server.Config
	// Service is a running trusted-scheduling HTTP service instance:
	// mount Handler() on any mux, Stop(drain) to shut down. The
	// cmd/trustgridd daemon is a thin wrapper around it.
	Service = server.Server
	// AdmissionConfig bounds each Δ-round's batch and shares the budget
	// between tenants by weighted deficit-round-robin (DESIGN.md §9.2).
	// Attach via SimConfig.Admission; the service layer builds it from
	// ServiceConfig.RoundBudget and the tenant registry.
	AdmissionConfig = sched.AdmissionConfig
	// TenantSpec registers or describes a tenant of the v2 API: weight,
	// queue quota, SD defaults and risk policy.
	TenantSpec = api.TenantSpec
	// JobSpec is the v1/v2 job submission wire format.
	JobSpec = api.JobSpec
	// TraceRecord is one accepted arrival of the replayable trace
	// format (with the v2 tenant column).
	TraceRecord = api.TraceRecord
	// Client is the typed Go client for a trustgridd instance; see
	// NewClient. Tooling in this repo (loadgen, the parity tests) talks
	// to the daemon exclusively through it.
	Client = client.Client
	// ClientEventsOptions filters and positions a client event stream.
	ClientEventsOptions = client.EventsOptions
	// MetricsReport is the daemon's metrics document (global and
	// per-tenant counters, latency percentiles).
	MetricsReport = api.MetricsReport
)

// DefaultTenant is the tenant the /v1 compatibility shim submits to.
const DefaultTenant = api.DefaultTenant

// Client error classes, matched with errors.Is against any error a
// Client method returns. ErrOverQuota (429) carries a Retry-After
// hint, surfaced by ClientRetryAfter.
var (
	ErrBadRequest  = client.ErrBadRequest
	ErrNotFound    = client.ErrNotFound
	ErrConflict    = client.ErrConflict
	ErrOverQuota   = client.ErrOverQuota
	ErrUnavailable = client.ErrUnavailable
)

// ClientRetryAfter extracts the server's backoff hint from a client
// error chain (zero if the error carries none).
func ClientRetryAfter(err error) time.Duration { return client.RetryAfter(err) }

// Job lifecycle transitions reported through SimConfig.OnEvent. The
// Interrupted and Site* kinds fire only on dynamic grids.
const (
	EventArrived     = sched.EventArrived
	EventPlaced      = sched.EventPlaced
	EventFailed      = sched.EventFailed
	EventCompleted   = sched.EventCompleted
	EventInterrupted = sched.EventInterrupted
	EventSiteDown    = sched.EventSiteDown
	EventSiteUp      = sched.EventSiteUp
	EventSiteSpeed   = sched.EventSiteSpeed
)

// Site churn transition kinds.
const (
	ChurnCrash   = grid.ChurnCrash
	ChurnDrain   = grid.ChurnDrain
	ChurnJoin    = grid.ChurnJoin
	ChurnDegrade = grid.ChurnDegrade
	ChurnRestore = grid.ChurnRestore
)

// Risk modes (paper §2).
const (
	Secure = grid.Secure
	Risky  = grid.Risky
	FRisky = grid.FRisky
)

// NewRand returns a deterministic random stream for the given seed.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// DefaultChurnConfig returns a moderate churn regime over the horizon.
func DefaultChurnConfig(horizon float64) ChurnConfig { return grid.DefaultChurnConfig(horizon) }

// DefaultReputationConfig returns the reference online-trust model.
func DefaultReputationConfig() ReputationConfig { return fuzzy.DefaultReputationConfig() }

// NewReputation builds the cold-start reputation of one site with the
// given declared security level.
func NewReputation(cfg ReputationConfig, declaredSL float64) (*Reputation, error) {
	return fuzzy.NewReputation(cfg, declaredSL)
}

// DeceptiveLevels builds a ground-truth security vector where a
// fraction of sites truly run gap below their declaration, for
// DynamicsConfig.TrueLevels.
func DeceptiveLevels(sites []*Site, frac, gap float64, r *Rand) []float64 {
	return grid.DeceptiveLevels(sites, frac, gap, r)
}

// SecurePolicy admits only sites with SL >= SD.
func SecurePolicy() Policy { return grid.SecurePolicy() }

// RiskyPolicy admits every site.
func RiskyPolicy() Policy { return grid.RiskyPolicy() }

// FRiskyPolicy admits sites whose failure probability is at most f.
func FRiskyPolicy(f float64) Policy { return grid.FRiskyPolicy(f) }

// NewMinMin builds the security-driven Min-Min heuristic.
func NewMinMin(p Policy) Scheduler { return heuristics.NewMinMin(p) }

// NewSufferage builds the security-driven Sufferage heuristic.
func NewSufferage(p Policy) Scheduler { return heuristics.NewSufferage(p) }

// NewMCT builds the minimum-completion-time baseline.
func NewMCT(p Policy) Scheduler { return heuristics.NewMCT(p) }

// STGAConfig returns the paper's Table 1 STGA configuration.
func STGAConfig() stga.Config { return stga.DefaultConfig() }

// NewSTGA builds the Space-Time Genetic Algorithm scheduler. Call Train
// on the result to pre-populate its history table.
func NewSTGA(cfg stga.Config, r *Rand) *stga.Scheduler { return stga.New(cfg, r) }

// Simulate runs a complete online-scheduling simulation (Fig. 1 model)
// and returns the aggregated metrics.
func Simulate(cfg SimConfig) (*SimResult, error) { return sched.Run(cfg) }

// NewOnline builds the incremental engine behind Simulate: cfg.Jobs may
// be empty, with jobs streamed in later via Submit while the caller
// drives the virtual clock (AdvanceTo / Drain) from the same goroutine.
func NewOnline(cfg SimConfig) (*Online, error) { return sched.NewOnline(cfg) }

// NewService builds an embeddable trusted-scheduling HTTP service (the
// engine behind cmd/trustgridd) and starts its scheduling loop.
func NewService(cfg ServiceConfig) (*Service, error) { return server.New(cfg) }

// NewClient returns a typed client for the trustgridd instance at base
// (scheme optional). Errors map onto the client package's classes
// (client.ErrOverQuota etc.); the event iterator resumes its cursor
// across dropped connections.
func NewClient(base string) *Client { return client.New(base) }

// DefaultSetup returns the paper's Table 1 experiment configuration.
func DefaultSetup() Setup { return experiments.DefaultSetup() }

// NASWorkload generates the Table 1 NAS configuration: a 12-site grid
// mapped from the 128-node iPSC/860 and a synthetic 46-day trace.
func NASWorkload(seed uint64) (*Workload, error) {
	return experiments.DefaultSetup().NASWorkload(seed)
}

// PSAWorkload generates the Table 1 parameter-sweep configuration with
// n jobs on a 20-site grid.
func PSAWorkload(seed uint64, n int) (*Workload, error) {
	return experiments.DefaultSetup().PSAWorkload(seed, n)
}
