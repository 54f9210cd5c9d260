package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"trustgrid/internal/api"
)

// Client talks to one trustgridd instance. The zero value is not
// usable; construct with New. Methods are safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for the daemon at base (scheme optional;
// "127.0.0.1:8421" works). Construction never fails — an unreachable
// daemon surfaces on the first call, like any other transport error.
func New(base string) *Client {
	base = strings.TrimRight(base, "/")
	if base != "" && !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{base: base, hc: http.DefaultClient}
}

// WithHTTPClient swaps the underlying *http.Client (timeouts, custom
// transports) and returns the client for chaining. Follow-mode event
// streams hold the connection open, so prefer per-request contexts over
// a global client timeout.
func (c *Client) WithHTTPClient(hc *http.Client) *Client {
	c.hc = hc
	return c
}

// BaseURL returns the normalized daemon base URL.
func (c *Client) BaseURL() string { return c.base }

// doJSON runs one request and decodes a JSON response into out (nil
// skips decoding). Non-2xx responses return *APIError.
func (c *Client) doJSON(ctx context.Context, method, path string, in, out any) error {
	var body *bytes.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	} else {
		body = bytes.NewReader(nil)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return errorFromResponse(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Healthz reports whether the daemon is serving (ErrUnavailable once it
// has stopped).
func (c *Client) Healthz(ctx context.Context) error {
	return c.doJSON(ctx, http.MethodGet, "/v2/healthz", nil, nil)
}

// CreateTenant registers a tenant (POST /v2/tenants) and returns the
// normalized document (defaulted weight). ErrConflict on duplicates.
func (c *Client) CreateTenant(ctx context.Context, spec api.TenantSpec) (api.TenantSpec, error) {
	var out api.TenantSpec
	err := c.doJSON(ctx, http.MethodPost, "/v2/tenants", spec, &out)
	return out, err
}

// Tenants lists every registered tenant in registration order.
func (c *Client) Tenants(ctx context.Context) ([]api.TenantSpec, error) {
	var out api.TenantList
	if err := c.doJSON(ctx, http.MethodGet, "/v2/tenants", nil, &out); err != nil {
		return nil, err
	}
	return out.Tenants, nil
}

// Submit submits jobs for a tenant (POST /v2/tenants/{id}/jobs) and
// returns the assigned job IDs. An empty tenant targets
// api.DefaultTenant.
// Typed failures: ErrBadRequest (validation/policy), ErrNotFound
// (unknown tenant), ErrOverQuota (queue quota; see RetryAfter),
// ErrUnavailable (daemon stopping).
func (c *Client) Submit(ctx context.Context, tenant string, jobs []api.JobSpec) ([]int, error) {
	if tenant == "" {
		tenant = api.DefaultTenant
	}
	path := "/v2/tenants/" + url.PathEscape(tenant) + "/jobs"
	var out api.SubmitResponse
	if err := c.doJSON(ctx, http.MethodPost, path, api.SubmitRequest{Jobs: jobs}, &out); err != nil {
		return nil, err
	}
	return out.IDs, nil
}

// Metrics fetches the metrics report; a non-empty tenant narrows the
// per-tenant section to that tenant (ErrNotFound if unknown).
func (c *Client) Metrics(ctx context.Context, tenant string) (*api.MetricsReport, error) {
	path := "/v2/metrics"
	if tenant != "" {
		path += "?tenant=" + url.QueryEscape(tenant)
	}
	var out api.MetricsReport
	if err := c.doJSON(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Sites fetches the live per-site state (liveness, effective speed,
// trust estimate and reputation evidence on dynamic grids).
func (c *Client) Sites(ctx context.Context) (*api.SitesReport, error) {
	var out api.SitesReport
	if err := c.doJSON(ctx, http.MethodGet, "/v2/sites", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Advance drives the manual-mode virtual clock and returns the clock
// after the step. ErrConflict on a live-clock daemon.
func (c *Client) Advance(ctx context.Context, req api.AdvanceRequest) (float64, error) {
	var out api.AdvanceResponse
	if err := c.doJSON(ctx, http.MethodPost, "/v2/advance", req, &out); err != nil {
		return 0, err
	}
	return out.VirtualNow, nil
}

// Drain schedules everything accepted so far to completion (manual
// mode) and returns the aggregate result. ErrConflict on a live-clock
// daemon.
func (c *Client) Drain(ctx context.Context) (*api.DrainResponse, error) {
	var out api.DrainResponse
	if err := c.doJSON(ctx, http.MethodPost, "/v2/drain", struct{}{}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// EventsOptions filters and positions an event stream.
type EventsOptions struct {
	// Since is the starting cursor (sequence number), default 0.
	Since int64
	// Max bounds a non-follow read to one page of Max events.
	Max int
	// Follow keeps the stream open, resuming across dropped connections.
	Follow bool
	// Kinds filters to these event kinds (e.g. "placed", "completed").
	Kinds []string
	// Tenant filters to one tenant's job events.
	Tenant string
}

func (o *EventsOptions) query(cursor int64) string {
	q := url.Values{}
	q.Set("since", fmt.Sprint(cursor))
	if o.Max > 0 {
		q.Set("max", fmt.Sprint(o.Max))
	}
	if o.Follow {
		q.Set("follow", "1")
	}
	if len(o.Kinds) > 0 {
		q.Set("kinds", strings.Join(o.Kinds, ","))
	}
	if o.Tenant != "" {
		q.Set("tenant", o.Tenant)
	}
	return "/v2/events?" + q.Encode()
}

// Events opens the NDJSON event stream. The returned iterator owns a
// connection; always Close it. See EventStream for the resume contract.
func (c *Client) Events(ctx context.Context, opts EventsOptions) *EventStream {
	return &EventStream{c: c, ctx: ctx, opts: opts, cursor: opts.Since}
}
