package server_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"trustgrid/internal/api"
	"trustgrid/internal/client"
	"trustgrid/internal/experiments"
	"trustgrid/internal/server"
)

func newManualV2Server(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server, *client.Client) {
	t.Helper()
	setup := experiments.TestSetup()
	w, err := setup.PSAWorkload(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sites = w.Sites
	if cfg.Algo == "" {
		cfg.Algo = "minmin"
	}
	cfg.Seed = 1
	cfg.Setup = setup
	if cfg.BatchInterval == 0 {
		cfg.BatchInterval = 1000
	}
	cfg.Manual = true
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _, _ = srv.Stop(false) })
	return srv, ts, client.New(ts.URL)
}

// TestSubmitValidatesBeforeClaimingIDs is the regression test for the
// manual-mode ID leak: a request carrying a valid explicit ID followed
// by an invalid job used to burn the ID before validation failed, so a
// corrected retry of the same trace chunk hit a duplicate-ID rejection.
// Validation must complete for the whole request before any ID is
// claimed.
func TestSubmitValidatesBeforeClaimingIDs(t *testing.T) {
	_, _, c := newManualV2Server(t, server.Config{})
	ctx := context.Background()
	id, arr := 7, 0.0

	// Valid job with explicit ID 7 + invalid job (negative workload):
	// whole request rejected, nothing claimed.
	_, err := c.Submit(ctx, "", []api.JobSpec{
		{ID: &id, Arrival: &arr, Workload: 100, SD: 0.7},
		{Arrival: &arr, Workload: -1, SD: 0.7},
	})
	if !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("want ErrBadRequest, got %v", err)
	}

	// The corrected retry reuses ID 7 and must succeed.
	ids, err := c.Submit(ctx, "", []api.JobSpec{
		{ID: &id, Arrival: &arr, Workload: 100, SD: 0.7},
		{Arrival: &arr, Workload: 200, SD: 0.7},
	})
	if err != nil {
		t.Fatalf("retry after invalid batch: %v", err)
	}
	if len(ids) != 2 || ids[0] != 7 {
		t.Fatalf("retry ids: %v", ids)
	}

	// Duplicates within one request are also detected before claiming.
	_, err = c.Submit(ctx, "", []api.JobSpec{
		{ID: intp(9), Arrival: &arr, Workload: 100, SD: 0.7},
		{ID: intp(9), Arrival: &arr, Workload: 100, SD: 0.7},
	})
	if !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("want ErrBadRequest for in-request duplicate, got %v", err)
	}
	if ids, err = c.Submit(ctx, "", []api.JobSpec{
		{ID: intp(9), Arrival: &arr, Workload: 100, SD: 0.7},
	}); err != nil || ids[0] != 9 {
		t.Fatalf("id 9 was burned by the rejected request: %v %v", ids, err)
	}
}

func intp(v int) *int { return &v }

// TestTenantRegistration pins the tenant resource: validation,
// conflict on duplicates (including the implicit default tenant), and
// the normalized response.
func TestTenantRegistration(t *testing.T) {
	_, _, c := newManualV2Server(t, server.Config{})
	ctx := context.Background()

	for _, bad := range []api.TenantSpec{
		{},                                    // missing id
		{ID: "sp ace"},                        // charset
		{ID: "x", Weight: -1},                 // negative weight
		{ID: "x", MaxQueue: -2},               // negative quota
		{ID: "x", SDDefault: 1.5},             // out of range
		{ID: "x", MaxSD: 0.5, SDDefault: 0.7}, // default above cap
	} {
		if _, err := c.CreateTenant(ctx, bad); !errors.Is(err, client.ErrBadRequest) {
			t.Fatalf("spec %+v: want ErrBadRequest, got %v", bad, err)
		}
	}
	if _, err := c.CreateTenant(ctx, api.TenantSpec{ID: api.DefaultTenant}); !errors.Is(err, client.ErrConflict) {
		t.Fatalf("re-registering the default tenant must conflict, got %v", err)
	}
	spec, err := c.CreateTenant(ctx, api.TenantSpec{ID: "acme"})
	if err != nil || spec.Weight != 1 {
		t.Fatalf("normalized weight: %+v %v", spec, err)
	}
}

// TestTenantPolicyApplied pins SD defaulting, the max_sd cap and the
// secure-only risk policy at submission time.
func TestTenantPolicyApplied(t *testing.T) {
	_, ts, c := newManualV2Server(t, server.Config{
		Tenants: []api.TenantSpec{
			{ID: "locked", SDDefault: 0.8, MaxSD: 0.85, SecureOnly: true},
		},
	})
	ctx := context.Background()
	arr := 0.0

	// Over the tenant's SD cap: rejected.
	_, err := c.Submit(ctx, "locked", []api.JobSpec{{Arrival: &arr, Workload: 100, SD: 0.9}})
	if !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("want ErrBadRequest over max_sd, got %v", err)
	}
	// Omitted SD takes the tenant default.
	if _, err := c.Submit(ctx, "locked", []api.JobSpec{{Arrival: &arr, Workload: 100}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// The arrived event records the defaulted SD and the tenant.
	resp, err := http.Get(ts.URL + "/v2/events?kinds=arrived&tenant=locked")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"sd":0.8`) || !strings.Contains(string(body), `"tenant":"locked"`) ||
		!strings.Contains(string(body), `"safe_only":true`) {
		t.Fatalf("arrived event missing defaulted sd/tenant/safe_only: %s", body)
	}
	// Secure-only tenants never place riskily even in frisky mode: the
	// placement events must carry no risky flag.
	events, err := http.Get(ts.URL + "/v2/events?kinds=placed&tenant=locked")
	if err != nil {
		t.Fatal(err)
	}
	placed, _ := io.ReadAll(events.Body)
	events.Body.Close()
	if len(placed) == 0 || strings.Contains(string(placed), `"risky":true`) {
		t.Fatalf("secure-only placement took risk (or no placements): %s", placed)
	}
}

// TestQueueQuota429 pins admission control: a tenant over its queue
// quota gets 429 with Retry-After; quota is released as jobs place, so
// the same submission later succeeds; other tenants are unaffected.
func TestQueueQuota429(t *testing.T) {
	_, _, c := newManualV2Server(t, server.Config{
		Tenants: []api.TenantSpec{{ID: "capped", MaxQueue: 2}, {ID: "free"}},
	})
	ctx := context.Background()
	arr := 0.0
	job := api.JobSpec{Arrival: &arr, Workload: 100, SD: 0.7}

	if _, err := c.Submit(ctx, "capped", []api.JobSpec{job, job}); err != nil {
		t.Fatal(err)
	}
	_, err := c.Submit(ctx, "capped", []api.JobSpec{job})
	if !errors.Is(err, client.ErrOverQuota) {
		t.Fatalf("want ErrOverQuota, got %v", err)
	}
	if ra := client.RetryAfter(err); ra <= 0 {
		t.Fatalf("Retry-After hint missing")
	}
	// Unrelated tenants keep flowing.
	if _, err := c.Submit(ctx, "free", []api.JobSpec{job}); err != nil {
		t.Fatal(err)
	}
	// Scheduling the backlog frees the quota.
	if _, err := c.Advance(ctx, api.AdvanceRequest{To: 1000}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, "capped", []api.JobSpec{job}); err != nil {
		t.Fatalf("quota not released after placement: %v", err)
	}
	rep, err := c.Metrics(ctx, "capped")
	if err != nil {
		t.Fatal(err)
	}
	tm := rep.Tenants["capped"]
	if tm.Rejected != 1 || tm.Submitted != 3 || tm.Queued != 1 {
		t.Fatalf("capped tenant metrics: %+v", tm)
	}
	if rep.Rejected != 1 {
		t.Fatalf("global rejected counter: %+v", rep.Rejected)
	}
}

// TestPerTenantMetricsAndLatency drives two tenants in live mode and
// checks the per-tenant counters and latency windows diverge correctly.
func TestPerTenantMetricsAndLatency(t *testing.T) {
	setup := experiments.TestSetup()
	w, err := setup.PSAWorkload(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Sites: w.Sites, Algo: "minmin", Seed: 1, Setup: setup,
		BatchInterval: 5000, Tick: 2 * time.Millisecond,
		Tenants: []api.TenantSpec{{ID: "a", Weight: 2}, {ID: "b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop(false)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	for i := 0; i < 6; i++ {
		tenant := "a"
		if i%3 == 0 {
			tenant = "b"
		}
		if _, err := c.Submit(ctx, tenant, []api.JobSpec{{Workload: 15000, SD: 0.7}}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		rep, err := c.Metrics(ctx, "")
		if err != nil {
			t.Fatal(err)
		}
		a, b := rep.Tenants["a"], rep.Tenants["b"]
		if a.Completed == 4 && b.Completed == 2 {
			if a.Weight != 2 || b.Weight != 1 {
				t.Fatalf("weights in report: %+v %+v", a, b)
			}
			if a.Latency.Count != 4 || b.Latency.Count != 2 {
				t.Fatalf("latency windows: %+v %+v", a.Latency, b.Latency)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %+v", rep.Tenants)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPrometheusExposition smoke-checks /metrics.prom: text format,
// global counters and per-tenant labelled series.
func TestPrometheusExposition(t *testing.T) {
	_, ts, c := newManualV2Server(t, server.Config{
		Tenants: []api.TenantSpec{{ID: "acme", Weight: 2}},
	})
	ctx := context.Background()
	arr := 0.0
	if _, err := c.Submit(ctx, "acme", []api.JobSpec{{Arrival: &arr, Workload: 100, SD: 0.7}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"# TYPE trustgrid_submitted_jobs_total counter",
		"trustgrid_submitted_jobs_total 1",
		"trustgrid_completed_jobs_total 1",
		"# TYPE trustgrid_virtual_time_seconds gauge",
		`trustgrid_tenant_submitted_jobs_total{tenant="acme"} 1`,
		`trustgrid_tenant_queued_jobs{tenant="acme"} 0`,
		`trustgrid_tenant_submitted_jobs_total{tenant="default"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestRoundPhaseExposition: one manual advance over one round puts one
// observation in each of the four round-phase histograms, rendered as
// cumulative buckets ending at +Inf plus _sum and _count.
func TestRoundPhaseExposition(t *testing.T) {
	_, ts, c := newManualV2Server(t, server.Config{})
	ctx := context.Background()
	arr := 0.0
	if _, err := c.Submit(ctx, "", []api.JobSpec{{Arrival: &arr, Workload: 100, SD: 0.7}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Advance(ctx, api.AdvanceRequest{To: 1000}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	if !strings.Contains(text, "# TYPE trustgrid_round_phase_seconds histogram\n") {
		t.Fatalf("no round-phase histogram:\n%s", text)
	}
	for _, phase := range []string{"form", "kernel", "schedule", "dispatch"} {
		for _, want := range []string{
			`trustgrid_round_phase_seconds_bucket{phase="` + phase + `",le="1e-06"} `,
			`trustgrid_round_phase_seconds_bucket{phase="` + phase + `",le="+Inf"} 1` + "\n",
			`trustgrid_round_phase_seconds_sum{phase="` + phase + `"} `,
			`trustgrid_round_phase_seconds_count{phase="` + phase + `"} 1` + "\n",
		} {
			if !strings.Contains(text, want) {
				t.Fatalf("exposition missing %q:\n%s", want, text)
			}
		}
	}
}

// TestV1ShimDefaultTenant pins the shim semantics: /v1/jobs lands on
// the default tenant, visible in v2 accounting, and v1 job events carry
// the default tenant label.
func TestV1ShimDefaultTenant(t *testing.T) {
	_, ts, c := newManualV2Server(t, server.Config{})
	ctx := context.Background()
	arr := 0.0
	if _, err := c.Submit(ctx, "", []api.JobSpec{{Arrival: &arr, Workload: 100, SD: 0.7}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Metrics(ctx, api.DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	if tm := rep.Tenants[api.DefaultTenant]; tm.Submitted != 1 || tm.Completed != 1 {
		t.Fatalf("default tenant accounting: %+v", rep.Tenants)
	}
	resp, err := http.Get(ts.URL + "/v1/events?kinds=placed")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"tenant":"default"`) {
		t.Fatalf("v1 placed event without default tenant: %s", body)
	}
}
