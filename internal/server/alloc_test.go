package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"trustgrid/internal/api"
	"trustgrid/internal/grid"
)

// discardWriter is a ResponseWriter that keeps nothing of the body, so
// an allocation count sees the handler's own allocations only.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

func allocServer(t *testing.T) *Server {
	t.Helper()
	srv, err := New(Config{
		Sites: []*grid.Site{{ID: 0, Speed: 10, Nodes: 4, SecurityLevel: 0.9}},
		Algo:  "minmin", Seed: 1, Manual: true, BatchInterval: 100,
		Tenants: []api.TenantSpec{{ID: "acme"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Stop(false) })
	return srv
}

// TestEventPageAllocs: a /v2/events page is encoded out of the ring a
// chunk at a time into a pooled buffer, so what it allocates does not
// grow with the events on it — a 4 000-event page allocates no more
// often than a 40-event one, and no more bytes, in either format.
func TestEventPageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	srv := allocServer(t)
	if err := srv.do(context.Background(), func() {
		for i := 0; i < 5000; i++ {
			srv.log.Append(&WireEvent{Kind: "placed", Time: float64(i), Job: i, Site: 0, Tenant: "acme", Start: 1, Finish: 2})
		}
	}); err != nil {
		t.Fatal(err)
	}
	for _, accept := range []string{"", api.EventRecordsType} {
		page := func(n int) (allocs float64, perRun uint64) {
			r := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v2/events?max=%d", n), nil)
			if accept != "" {
				r.Header.Set("Accept", accept)
			}
			w := &discardWriter{h: http.Header{}}
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs = testing.AllocsPerRun(runs, func() { srv.handleEvents(w, r) })
			runtime.ReadMemStats(&after)
			return allocs, (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		}
		small, smallBytes := page(40)
		large, largeBytes := page(4000)
		if large > small || largeBytes > smallBytes+1024 {
			t.Fatalf("Accept %q: a 4000-event page allocates %v times (%d B), a 40-event page %v (%d B)",
				accept, large, largeBytes, small, smallBytes)
		}
	}
}

// TestSubmitAllocs: a submission's jobs live in one slab, its body is
// read into a pooled buffer, its specs and their explicit arrivals are
// sized once from the body, and its arrival records are not heap
// objects, so a 40-job submit allocates at most a small constant more
// than a 1-job one.
func TestSubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	srv := allocServer(t)
	hd := srv.Handler()
	body := func(n int) []byte {
		jobs := make([]api.JobSpec, n)
		for i := range jobs {
			at := float64(i)
			jobs[i] = api.JobSpec{Arrival: &at, Workload: 1000 + float64(i), SD: 0.6}
		}
		raw, err := json.Marshal(api.SubmitRequest{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	submit := func(raw []byte) float64 {
		w := &discardWriter{h: http.Header{}}
		rd := bytes.NewReader(raw)
		r := httptest.NewRequest(http.MethodPost, "/v2/tenants/acme/jobs", rd)
		return testing.AllocsPerRun(50, func() {
			rd.Reset(raw)
			hd.ServeHTTP(w, r)
		})
	}
	const slack = 2
	one, forty := submit(body(1)), submit(body(40))
	if got, want := srv.submitted.Load(), int64(51*(1+40)); got != want {
		t.Fatalf("%d jobs accepted, want %d", got, want)
	}
	if forty > one+slack {
		t.Fatalf("a 40-job submit allocates %v times, a 1-job submit %v: more than %d apart", forty, one, slack)
	}
	t.Logf("allocations per submit: 1 job %v, 40 jobs %v", one, forty)
}
