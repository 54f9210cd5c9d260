package api

import (
	"fmt"

	"trustgrid/internal/metrics"
	"trustgrid/internal/sched"
)

// DefaultTenant is the tenant the /v1 compatibility shim submits to.
// It always exists: the server registers it at startup with weight 1
// and no quota, so single-tenant deployments never have to know tenants
// exist.
const DefaultTenant = "default"

// JobSpec is the submission wire format. In live mode the server stamps
// identity and arrival itself (the wall-clock side of the determinism
// boundary), so client-supplied id/arrival are rejected; in manual mode
// both are honored, which is what trace replay needs.
type JobSpec struct {
	ID       *int     `json:"id,omitempty"`
	Arrival  *float64 `json:"arrival,omitempty"` // virtual seconds
	Workload float64  `json:"workload"`
	Nodes    int      `json:"nodes,omitempty"` // default 1
	// SD is the job's security demand. Zero (or omitted) means "use the
	// owning tenant's sd_default"; a tenant whose work genuinely carries
	// no security demand simply leaves sd_default unset, which keeps the
	// pre-tenant wire behavior (sd:0 stays 0).
	SD float64 `json:"sd,omitempty"`
	// DependsOn lists job IDs that must complete before this job may be
	// placed (DESIGN.md §14). Each must be a previously accepted job of
	// the same tenant, or an earlier job in the same manual-mode request
	// with an explicit id; forward and cross-tenant references are
	// rejected.
	DependsOn []int `json:"depends_on,omitempty"`
	// Deadline is the virtual time this job should complete by; misses
	// are counted, never enforced. Optional.
	Deadline float64 `json:"deadline,omitempty"`
}

// SubmitRequest is the body of POST /v1/jobs and POST /v2/tenants/{id}/jobs.
type SubmitRequest struct {
	Jobs []JobSpec `json:"jobs"`
}

// SubmitResponse acknowledges an accepted submission.
type SubmitResponse struct {
	IDs      []int `json:"ids"`
	Accepted int   `json:"accepted"`
}

// TenantSpec registers (POST /v2/tenants) or describes a tenant: its
// fair-share weight, admission quota and risk policy.
type TenantSpec struct {
	// ID names the tenant in URLs, events, metrics and traces.
	ID string `json:"id"`
	// Weight is the deficit-round-robin fair-share weight (default 1).
	Weight float64 `json:"weight,omitempty"`
	// MaxQueue caps jobs accepted but not yet placed; submissions that
	// would exceed it are rejected with 429 and a Retry-After header.
	// 0 means unbounded.
	MaxQueue int `json:"max_queue,omitempty"`
	// SDDefault fills a job's security demand when the spec omits it.
	SDDefault float64 `json:"sd_default,omitempty"`
	// MaxSD, when positive, rejects (400) jobs demanding more security
	// than the tenant's policy allows.
	MaxSD float64 `json:"max_sd,omitempty"`
	// SecureOnly is the tenant's risk policy: its jobs may only run
	// strictly safely (SL > SD), regardless of the daemon's admission
	// mode — they never take Eq. 1 risk.
	SecureOnly bool `json:"secure_only,omitempty"`
}

// Validate checks a registration document.
func (t *TenantSpec) Validate() error {
	if t.ID == "" {
		return fmt.Errorf("api: tenant id is required")
	}
	if len(t.ID) > 64 {
		return fmt.Errorf("api: tenant id longer than 64 bytes")
	}
	for _, r := range t.ID {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("api: tenant id %q: only [a-zA-Z0-9._-] allowed", t.ID)
		}
	}
	if t.Weight < 0 {
		return fmt.Errorf("api: tenant %q: negative weight %v", t.ID, t.Weight)
	}
	if t.MaxQueue < 0 {
		return fmt.Errorf("api: tenant %q: negative max_queue %d", t.ID, t.MaxQueue)
	}
	if t.SDDefault < 0 || t.SDDefault > 1 {
		return fmt.Errorf("api: tenant %q: sd_default %v outside [0,1]", t.ID, t.SDDefault)
	}
	if t.MaxSD < 0 || t.MaxSD > 1 {
		return fmt.Errorf("api: tenant %q: max_sd %v outside [0,1]", t.ID, t.MaxSD)
	}
	if t.MaxSD > 0 && t.SDDefault > t.MaxSD {
		return fmt.Errorf("api: tenant %q: sd_default %v exceeds max_sd %v", t.ID, t.SDDefault, t.MaxSD)
	}
	return nil
}

// TenantList is the GET /v2/tenants response.
type TenantList struct {
	Tenants []TenantSpec `json:"tenants"`
}

// Event is the streamed form of a sched.EngineEvent (NDJSON on
// /v1/events and /v2/events). Arrived events carry the job spec (they
// double as the arrival trace); placed events carry the planned
// execution window; site lifecycle events (site_down, site_up,
// site_speed — dynamic grids only) carry job −1 plus the site's new
// level or speed. Job events carry the owning tenant.
type Event struct {
	Seq    int64   `json:"seq"`
	Kind   string  `json:"kind"`
	Time   float64 `json:"t"`
	Job    int     `json:"job"`
	Site   int     `json:"site"`
	Tenant string  `json:"tenant,omitempty"`
	// SafeOnly mirrors the trace column on arrived events (which double
	// as the arrival trace): the owning tenant's secure-only policy as
	// it applied to this job.
	SafeOnly bool    `json:"safe_only,omitempty"`
	Start    float64 `json:"start,omitempty"`
	Finish   float64 `json:"finish,omitempty"`
	Risky    bool    `json:"risky,omitempty"`
	FellBack bool    `json:"fell_back,omitempty"`
	Arrival  float64 `json:"arrival,omitempty"`
	Workload float64 `json:"workload,omitempty"`
	Nodes    int     `json:"nodes,omitempty"`
	SD       float64 `json:"sd,omitempty"`
	Level    float64 `json:"level,omitempty"`
	Speed    float64 `json:"speed,omitempty"`
}

// LatencySummary reports scheduling-latency percentiles in milliseconds
// over a retained sample window.
type LatencySummary struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50_ms"`
	P90   float64 `json:"p90_ms"`
	P99   float64 `json:"p99_ms"`
	Max   float64 `json:"max_ms"`
}

// TenantMetrics is one tenant's slice of the metrics report.
type TenantMetrics struct {
	Weight   float64 `json:"weight"`
	MaxQueue int     `json:"max_queue,omitempty"`
	// Queued counts jobs accepted but not yet placed — the quantity the
	// tenant's MaxQueue quota caps.
	Queued    int            `json:"queued"`
	Submitted int64          `json:"submitted"`
	Placed    int64          `json:"placed"`
	Failed    int64          `json:"failed_attempts"`
	Completed int64          `json:"completed"`
	Rejected  int64          `json:"rejected_429"`
	Latency   LatencySummary `json:"sched_latency"`
}

// ShardMetrics is one engine shard's slice of the metrics report
// (sharded daemons only; a -shards 1 run reports no shard section).
type ShardMetrics struct {
	Shard        int     `json:"shard"`
	Sites        int     `json:"sites"`
	SitesAlive   int     `json:"sites_alive"`
	VirtualNow   float64 `json:"virtual_now_s"`
	Seen         int     `json:"seen"`
	InFlight     int     `json:"in_flight"`
	Backlog      int     `json:"backlog"`
	Batches      int     `json:"batches"`
	LargestBatch int     `json:"largest_batch"`
	// Latency is the shard's submit-to-first-placement window; jobs are
	// attributed by the tenant router, so the series is exact.
	Latency LatencySummary `json:"sched_latency"`
	// Addr and Down describe the shard's worker process in fleet mode
	// (-workers): the address it was attached at, and whether the daemon
	// currently considers it unreachable. While Down is true the other
	// gauges are the worker's last reported values, and submissions for
	// its tenants are refused with 503 until it reattaches. Both fields
	// are absent for in-process shards.
	Addr string `json:"addr,omitempty"`
	Down bool   `json:"down,omitempty"`
}

// MetricsReport is the /v1/metrics and /v2/metrics response. The
// Tenants map is the v2 addition; ?tenant=ID narrows it to one entry.
type MetricsReport struct {
	Algo          string                   `json:"algo"`
	Mode          string                   `json:"mode"`
	Manual        bool                     `json:"manual"`
	BatchInterval float64                  `json:"batch_interval_s"`
	TickMS        float64                  `json:"tick_ms"`
	RoundBudget   int                      `json:"round_budget,omitempty"`
	UptimeS       float64                  `json:"uptime_s"`
	VirtualNow    float64                  `json:"virtual_now_s"`
	Submitted     int64                    `json:"submitted"`
	Arrived       int64                    `json:"arrived"`
	Backlog       int                      `json:"backlog"`
	InFlight      int                      `json:"in_flight"`
	Placed        int64                    `json:"placed"`
	Failures      int64                    `json:"failed_attempts"`
	Interrupted   int64                    `json:"interrupted_attempts"`
	Completed     int64                    `json:"completed"`
	Rejected      int64                    `json:"rejected_429,omitempty"`
	SitesAlive    int                      `json:"sites_alive"`
	Batches       int                      `json:"batches"`
	LargestBatch  int                      `json:"largest_batch"`
	SubmitRate    float64                  `json:"submit_rate_per_s"`
	Latency       LatencySummary           `json:"sched_latency"`
	Tenants       map[string]TenantMetrics `json:"tenants,omitempty"`
	Shards        []ShardMetrics           `json:"shards,omitempty"`
	Summary       *metrics.Summary         `json:"summary,omitempty"`
}

// SitesReport is the /v1/sites and /v2/sites response.
type SitesReport struct {
	VirtualNow float64            `json:"virtual_now_s"`
	Sites      []sched.SiteStatus `json:"sites"`
}

// AdvanceRequest drives the manual-mode virtual clock: either To (an
// absolute target) or DT (a relative step).
type AdvanceRequest struct {
	To float64 `json:"to,omitempty"`
	DT float64 `json:"dt,omitempty"`
}

// AdvanceResponse reports the clock after an advance.
type AdvanceResponse struct {
	VirtualNow float64 `json:"virtual_now_s"`
}

// DrainResponse is the manual-mode drain result: everything accepted so
// far scheduled to completion.
type DrainResponse struct {
	VirtualNow float64         `json:"virtual_now_s"`
	Summary    metrics.Summary `json:"summary"`
	Batches    int             `json:"batches"`
}

// ErrorBody is the JSON error envelope every non-2xx response carries.
type ErrorBody struct {
	Error string `json:"error"`
}
