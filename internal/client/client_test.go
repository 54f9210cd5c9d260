package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"trustgrid/internal/api"
	"trustgrid/internal/client"
	"trustgrid/internal/experiments"
	"trustgrid/internal/server"
)

func newManualServer(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
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
	return srv, client.New(ts.URL)
}

// TestClientContract drives every client method against a real server —
// the client IS the API's contract test, so this round-trips tenants,
// submission, the clock, metrics, sites and the event stream end to end.
func TestClientContract(t *testing.T) {
	_, c := newManualServer(t, server.Config{})
	ctx := context.Background()

	if err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	spec, err := c.CreateTenant(ctx, api.TenantSpec{ID: "acme", Weight: 3, MaxQueue: 100})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Weight != 3 {
		t.Fatalf("normalized spec: %+v", spec)
	}
	tenants, err := c.Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 2 || tenants[0].ID != api.DefaultTenant || tenants[1].ID != "acme" {
		t.Fatalf("tenant list: %+v", tenants)
	}

	arr := 0.0
	ids, err := c.Submit(ctx, "acme", []api.JobSpec{
		{Arrival: &arr, Workload: 1000, SD: 0.7},
		{Arrival: &arr, Workload: 2000, SD: 0.8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("ids: %v", ids)
	}
	// An empty tenant name submits to the default tenant.
	if _, err := c.Submit(ctx, "", []api.JobSpec{{Arrival: &arr, Workload: 500, SD: 0.6}}); err != nil {
		t.Fatal(err)
	}

	now, err := c.Advance(ctx, api.AdvanceRequest{To: 1000})
	if err != nil || now != 1000 {
		t.Fatalf("advance: %v %v", now, err)
	}
	res, err := c.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Jobs != 3 {
		t.Fatalf("drained %d jobs, want 3", res.Summary.Jobs)
	}

	rep, err := c.Metrics(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	tm, ok := rep.Tenants["acme"]
	if !ok || tm.Placed < 2 || tm.Completed != 2 || tm.Queued != 0 {
		t.Fatalf("tenant metrics: %+v", rep.Tenants)
	}
	if _, other := rep.Tenants[api.DefaultTenant]; other {
		t.Fatalf("tenant filter leaked: %+v", rep.Tenants)
	}

	sites, err := c.Sites(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sites.Sites) == 0 {
		t.Fatal("no sites")
	}

	// Event stream: acme's placed events only.
	es := c.Events(ctx, client.EventsOptions{Kinds: []string{"placed"}, Tenant: "acme"})
	defer es.Close()
	got := 0
	for {
		ev, err := es.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind != "placed" || ev.Tenant != "acme" {
			t.Fatalf("filter leaked %+v", ev)
		}
		got++
	}
	if got < 2 {
		t.Fatalf("saw %d acme placements, want >= 2", got)
	}
}

// TestClientErrorMapping pins the typed error contract: each status the
// server emits maps onto its errors.Is class, with the server's message
// and any Retry-After hint preserved.
func TestClientErrorMapping(t *testing.T) {
	_, c := newManualServer(t, server.Config{
		Tenants: []api.TenantSpec{{ID: "tiny", MaxQueue: 1}},
	})
	ctx := context.Background()
	arr := 0.0

	// 400: invalid job.
	_, err := c.Submit(ctx, "", []api.JobSpec{{Arrival: &arr, Workload: -5, SD: 0.7}})
	if !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("want ErrBadRequest, got %v", err)
	}
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != 400 || ae.Message == "" {
		t.Fatalf("APIError detail: %+v", ae)
	}

	// 404: unknown tenant.
	_, err = c.Submit(ctx, "nobody", []api.JobSpec{{Arrival: &arr, Workload: 5, SD: 0.7}})
	if !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if _, err = c.Metrics(ctx, "nobody"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}

	// 409: duplicate tenant.
	if _, err = c.CreateTenant(ctx, api.TenantSpec{ID: "tiny"}); !errors.Is(err, client.ErrConflict) {
		t.Fatalf("want ErrConflict, got %v", err)
	}

	// 429: queue quota, with a Retry-After hint.
	if _, err = c.Submit(ctx, "tiny", []api.JobSpec{{Arrival: &arr, Workload: 5, SD: 0.7}}); err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(ctx, "tiny", []api.JobSpec{{Arrival: &arr, Workload: 5, SD: 0.7}})
	if !errors.Is(err, client.ErrOverQuota) {
		t.Fatalf("want ErrOverQuota, got %v", err)
	}
	if ra := client.RetryAfter(err); ra < time.Second {
		t.Fatalf("Retry-After hint missing: %v (%v)", ra, err)
	}
}

// TestClientUnavailable pins the 503 class once the daemon stops.
func TestClientUnavailable(t *testing.T) {
	srv, c := newManualServer(t, server.Config{})
	if _, err := srv.Stop(false); err != nil {
		t.Fatal(err)
	}
	if err := c.Healthz(context.Background()); !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
	arr := 0.0
	_, err := c.Submit(context.Background(), "", []api.JobSpec{{Arrival: &arr, Workload: 5, SD: 0.7}})
	if !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
}

// fakeEvents serves synthetic event pages: kill[conn] events into
// connection number conn, then a hard connection drop; total events
// overall, then clean closes. With records set it serves event frames
// to a request that asks for them, as the daemon does, and NDJSON
// otherwise. It records each connection's since.
type fakeEvents struct {
	t       *testing.T
	total   int64
	kill    map[int]int64 // connection index -> drop after this many events
	records bool
	conns   int
	sinces  []int64
}

func (f *fakeEvents) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	conn := f.conns
	f.conns++
	var since int64
	fmt.Sscan(r.URL.Query().Get("since"), &since)
	f.sinces = append(f.sinces, since)
	flusher := w.(http.Flusher)
	frames := f.records && strings.Contains(r.Header.Get("Accept"), api.EventRecordsType)
	if frames {
		w.Header().Set("Content-Type", api.EventRecordsType)
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	sent := int64(0)
	for seq := since; seq < f.total; seq++ {
		ev := api.Event{Seq: seq, Kind: "placed", Job: int(seq)}
		var b []byte
		if frames {
			b = ev.AppendFrame(nil)
		} else {
			b, _ = json.Marshal(ev)
			b = append(b, '\n')
		}
		if limit, ok := f.kill[conn]; ok && sent == limit {
			// Abort the connection mid-stream, torn line or frame
			// included.
			_, _ = w.Write(b[:len(b)/2])
			flusher.Flush()
			panic(http.ErrAbortHandler)
		}
		_, _ = w.Write(b)
		flusher.Flush()
		sent++
	}
}

// TestEventStreamCursorResume drops the connection mid-stream (torn
// JSON line or frame and all) and requires the follow iterator to
// redial from its cursor and deliver every event exactly once, in
// either format. In the second case the resume itself is cut before it
// delivers an event: a cut is the transport's failure, so the stream
// redials again instead of giving up as it does on a corrupt event.
func TestEventStreamCursorResume(t *testing.T) {
	for _, tc := range []struct {
		kill   map[int]int64
		sinces []int64 // each dial's cursor
	}{
		{map[int]int64{0: 4}, []int64{0, 4, 10}},
		{map[int]int64{0: 4, 1: 0}, []int64{0, 4, 4, 10}},
	} {
		for _, records := range []bool{false, true} {
			f := &fakeEvents{t: t, total: 10, kill: tc.kill, records: records}
			ts := httptest.NewServer(f)
			defer ts.Close()

			es := client.New(ts.URL).Events(context.Background(), client.EventsOptions{Follow: true})
			defer es.Close()
			var seqs []int64
			for {
				ev, err := es.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("kill %v records=%v: %v", tc.kill, records, err)
				}
				seqs = append(seqs, ev.Seq)
			}
			if len(seqs) != 10 {
				t.Fatalf("kill %v records=%v: got %d events, want 10: %v", tc.kill, records, len(seqs), seqs)
			}
			for i, s := range seqs {
				if s != int64(i) {
					t.Fatalf("kill %v records=%v: gap or duplicate at %d: %v", tc.kill, records, i, seqs)
				}
			}
			// Resume at 4 (after the 4 delivered events), as often as the
			// connection is cut, then one final no-progress dial that
			// turned into io.EOF.
			if !slices.Equal(f.sinces, tc.sinces) {
				t.Fatalf("kill %v records=%v: dial cursors %v, want %v", tc.kill, records, f.sinces, tc.sinces)
			}
			if es.Cursor() != 10 {
				t.Fatalf("kill %v records=%v: cursor %d, want 10", tc.kill, records, es.Cursor())
			}
		}
	}
}

// TestEventStreamCorruptDoesNotSpin serves a follow stream whose first
// event never decodes — an NDJSON line that is not an event, a frame
// that is not a record, a line past the scanner's bound — and requires
// Next to give up with the decode error after one resume instead of
// redialing at once, forever. The server refuses every dial past the
// tenth, so a stream that spins fails here instead of hanging.
func TestEventStreamCorruptDoesNotSpin(t *testing.T) {
	for _, tc := range []struct {
		name, typ, body string
	}{
		{"ndjson", "application/x-ndjson", `{"seq":"one"}` + "\n"},
		{"records", api.EventRecordsType, "\x05\x00\x00\x02\x00\x00"},
		{"long-line", "application/x-ndjson", strings.Repeat("x", 2<<20)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dials := 0
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if dials++; dials > 10 {
					http.Error(w, `{"error":"too many dials"}`, http.StatusServiceUnavailable)
					return
				}
				w.Header().Set("Content-Type", tc.typ)
				_, _ = io.WriteString(w, tc.body)
			}))
			defer ts.Close()
			es := client.New(ts.URL).Events(context.Background(), client.EventsOptions{Follow: true})
			defer es.Close()
			_, err := es.Next()
			if err == nil || errors.Is(err, io.EOF) || errors.Is(err, client.ErrUnavailable) {
				t.Fatalf("Next: %v, want the decode error", err)
			}
			if dials != 2 {
				t.Fatalf("%d dials, want the first and one resume", dials)
			}
		})
	}
}

// TestEventStreamCutOnlyBacksOff serves a follow stream from a peer
// that accepts every connection, sends the headers and cuts the body
// before any event. Each cut is a transport failure worth a redial,
// but one that delivered nothing must wait before the next (10 ms,
// doubling to 1 s) instead of redialing at once: over 300 ms that is
// a handful of dials, not thousands.
func TestEventStreamCutOnlyBacksOff(t *testing.T) {
	var dials atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dials.Add(1)
		w.Header().Set("Content-Type", api.EventRecordsType)
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	es := client.New(ts.URL).Events(ctx, client.EventsOptions{Follow: true})
	defer es.Close()
	if _, err := es.Next(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Next: %v, want the context's deadline", err)
	}
	if n := dials.Load(); n < 2 || n > 10 {
		t.Fatalf("%d dials in 300 ms, want a few redials spaced by the backoff", n)
	}
}

// TestEventStreamContextCancel cancels the context mid-follow and
// requires Next to return the context's error promptly.
func TestEventStreamContextCancel(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := json.Marshal(api.Event{Seq: 0, Kind: "placed"})
		_, _ = w.Write(append(b, '\n'))
		w.(http.Flusher).Flush()
		select {
		case <-r.Context().Done():
		case <-block:
		}
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	es := client.New(ts.URL).Events(ctx, client.EventsOptions{Follow: true})
	defer es.Close()
	if ev, err := es.Next(); err != nil || ev.Seq != 0 {
		t.Fatalf("first event: %+v %v", ev, err)
	}
	cancel()
	done := make(chan error, 1)
	go func() {
		_, err := es.Next()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next did not observe cancellation")
	}
	// The stream stays dead: the terminal error is sticky.
	if _, err := es.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("want sticky context.Canceled, got %v", err)
	}
}

// TestEventStreamNonFollowPage pins one-request semantics without
// follow: a page of max events, then io.EOF.
func TestEventStreamNonFollowPage(t *testing.T) {
	f := &fakeEvents{t: t, total: 8}
	ts := httptest.NewServer(f)
	defer ts.Close()

	es := client.New(ts.URL).Events(context.Background(), client.EventsOptions{Since: 3})
	defer es.Close()
	n := 0
	for {
		ev, err := es.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Seq < 3 {
			t.Fatalf("since ignored: %+v", ev)
		}
		n++
	}
	if n != 5 || f.conns != 1 {
		t.Fatalf("n=%d conns=%d, want 5 events on one connection", n, f.conns)
	}
}
