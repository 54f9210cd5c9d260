package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"trustgrid/internal/api"
	"trustgrid/internal/grid"
)

// TestSubmitBodyLimit: a submit body one byte over maxSubmitBody is
// answered 413 with the JSON error envelope before anything is claimed
// — no job ID, no registry entry, no quota slot, no latency entry — and
// a body of exactly maxSubmitBody bytes is still read and accepted,
// taking the first ID and the tenant's one quota slot.
func TestSubmitBodyLimit(t *testing.T) {
	srv, err := New(Config{
		Sites: []*grid.Site{{ID: 0, Speed: 10, Nodes: 4, SecurityLevel: 0.9}},
		Algo:  "minmin", Seed: 1, Manual: true, BatchInterval: 100,
		Tenants: []api.TenantSpec{{ID: "acme", MaxQueue: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop(false)
	hd := srv.Handler()
	post := func(body []byte) *httptest.ResponseRecorder {
		rw := httptest.NewRecorder()
		hd.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v2/tenants/acme/jobs", bytes.NewReader(body)))
		return rw
	}
	arrival := 10.0
	one, err := json.Marshal(api.SubmitRequest{Jobs: []api.JobSpec{{Workload: 100, SD: 0.5, Arrival: &arrival}}})
	if err != nil {
		t.Fatal(err)
	}
	// JSON allows whitespace after the value, so padding keeps the body
	// valid at any length.
	body := append(one, bytes.Repeat([]byte(" "), maxSubmitBody+1-len(one))...)

	rw := post(body)
	var e api.ErrorBody
	if rw.Code != http.StatusRequestEntityTooLarge || rw.Header().Get("Content-Type") != "application/json" ||
		json.Unmarshal(rw.Body.Bytes(), &e) != nil || !strings.Contains(e.Error, "larger than 33554432 bytes") {
		t.Fatalf("oversized body: status %d, %q, want 413 with a JSON error naming the limit", rw.Code, rw.Body)
	}
	var nextID int64
	var owners int
	if err := srv.do(context.Background(), func() { nextID, owners = srv.nextID, srv.owners.ids.Len() }); err != nil {
		t.Fatal(err)
	}
	if nextID != 0 || owners != 0 || pendingCount(srv) != 0 || queuedFor(srv, "acme") != 0 {
		t.Fatalf("the refused request claimed something: next id %d, %d owners, %d latency entries, %d queued",
			nextID, owners, pendingCount(srv), queuedFor(srv, "acme"))
	}

	rw = post(body[:maxSubmitBody])
	var ack api.SubmitResponse
	if rw.Code != http.StatusOK || json.Unmarshal(rw.Body.Bytes(), &ack) != nil || len(ack.IDs) != 1 || ack.IDs[0] != 1 {
		t.Fatalf("body at the limit: status %d, %q, want 200 and job 1", rw.Code, rw.Body)
	}
}

// TestReadBodyGrowsWithData: the buffer follows the bytes that arrive,
// not the declared Content-Length, so a client that declares the limit
// and then stalls holds what it sent.
func TestReadBodyGrowsWithData(t *testing.T) {
	const sent = `{"jobs":[]}`
	r := httptest.NewRequest(http.MethodPost, "/v2/tenants/acme/jobs", strings.NewReader(sent))
	r.ContentLength = maxSubmitBody
	body, err := readBody(httptest.NewRecorder(), r)
	if err != nil || string(body) != sent || cap(body) > 64<<10 {
		t.Fatalf("readBody = %q (cap %d), %v; want %q in a buffer sized by the bytes sent", body, cap(body), err, sent)
	}
}

// TestSubmitBodyLimitHeadroom: the largest submit request any client,
// test or tool in this repository sends is benchkit's 512-job chunk (the
// benchmark's replay sends at most 100 jobs, loadgen and the typed
// client's callers fewer). 4 096 jobs with every field at its widest —
// explicit 18-digit IDs, 17-digit floats, eight 19-digit dependencies —
// still fit eight times over.
func TestSubmitBodyLimitHeadroom(t *testing.T) {
	id, at := -99_999_999_999_999_999, -1.2345678901234567e-300
	deps := make([]int, 8)
	for i := range deps {
		deps[i] = math.MinInt64 + i
	}
	js := api.JobSpec{ID: &id, Arrival: &at, Workload: at, Nodes: math.MinInt64, SD: at, DependsOn: deps, Deadline: at}
	req := api.SubmitRequest{Jobs: make([]api.JobSpec, 4096)}
	for i := range req.Jobs {
		req.Jobs[i] = js
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > maxSubmitBody/8 {
		t.Fatalf("4096 widest jobs encode to %d bytes, more than an eighth of the %d-byte limit", len(body), maxSubmitBody)
	}
}
