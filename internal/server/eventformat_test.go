package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"trustgrid/internal/api"
	"trustgrid/internal/experiments"
)

// readLines decodes an NDJSON body with api.ParseEvent.
func readLines(t *testing.T, body io.Reader) []api.Event {
	t.Helper()
	var out []api.Event
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		var ev api.Event
		if err := api.ParseEvent(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q: %v", sc.Bytes(), err)
		}
		out = append(out, ev)
	}
	return out
}

// readFrames decodes a body of event frames to its end.
func readFrames(t *testing.T, body io.Reader) []api.Event {
	t.Helper()
	var out []api.Event
	br := bufio.NewReader(body)
	for {
		var ev api.Event
		if err := api.ReadEventFrame(br, &ev); err == io.EOF {
			return out
		} else if err != nil {
			t.Fatalf("frame %d: %v", len(out), err)
		}
		out = append(out, ev)
	}
}

// sameEvents compares two event lists bit for bit, through their
// records.
func sameEvents(a, b []api.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].AppendRecord(nil), b[i].AppendRecord(nil)) {
			return false
		}
	}
	return true
}

// TestEventFormatsParity holds the two forms of GET /v2/events to each
// other on one daemon state: two tenants' jobs over several rounds and
// one event with a NaN time in the log between them. For every since,
// max, kinds and tenant query and for a follow read, the frames decode
// to exactly the events api.ParseEvent reads from the NDJSON, neither
// carries the NaN event, and the NDJSON is json.Marshal's line of each
// event it carries, byte for byte. The Accept header alone picks the
// format, and the Content-Type names it.
func TestEventFormatsParity(t *testing.T) {
	setup := experiments.TestSetup()
	w, err := setup.PSAWorkload(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Sites: w.Sites, Algo: "minmin", Seed: 1, Setup: setup, BatchInterval: 1000, Manual: true,
		Tenants: []api.TenantSpec{{ID: "acme"}, {ID: "beta", Weight: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop(false)
	hd := srv.Handler()
	serve := func(method, path, accept string, body any) *httptest.ResponseRecorder {
		t.Helper()
		var raw []byte
		if body != nil {
			raw, _ = json.Marshal(body)
		}
		r := httptest.NewRequest(method, path, bytes.NewReader(raw))
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		rw := httptest.NewRecorder()
		hd.ServeHTTP(rw, r)
		if rw.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", method, path, rw.Code, rw.Body)
		}
		return rw
	}
	submit := func(round int) {
		for k, tenant := range []string{"acme", "beta"} {
			jobs := make([]api.JobSpec, 4)
			for i := range jobs {
				at := 1000 * float64(round)
				jobs[i] = api.JobSpec{Arrival: &at, Workload: 2000 * float64(1+i+k), SD: 0.6 + 0.05*float64(i)}
			}
			serve(http.MethodPost, "/v2/tenants/"+tenant+"/jobs", "", api.SubmitRequest{Jobs: jobs})
		}
		serve(http.MethodPost, "/v2/advance", "", api.AdvanceRequest{To: 1000 * float64(round+1)})
	}
	submit(0)
	submit(1)
	var nanSeq int64
	if err := srv.do(context.Background(), func() {
		nanSeq = srv.log.base + int64(len(srv.log.events))
		srv.log.Append(&WireEvent{Kind: "placed", Time: math.NaN(), Job: 1, Site: 2, Tenant: "acme"})
	}); err != nil {
		t.Fatal(err)
	}
	submit(2)
	serve(http.MethodPost, "/v2/drain", "", struct{}{})

	all := readLines(t, serve(http.MethodGet, "/v2/events", "", nil).Body)
	if len(all) < 40 {
		t.Fatalf("only %d events to compare", len(all))
	}
	if i := int(nanSeq); i >= len(all) || all[i-1].Seq != nanSeq-1 || all[i].Seq != nanSeq+1 {
		t.Fatalf("the stream around the NaN event (seq %d) is not the events either side of it", nanSeq)
	}
	for _, q := range []string{
		"", "since=5", fmt.Sprint("since=", nanSeq), "max=7", "since=3&max=4", fmt.Sprint("since=", nanSeq-2, "&max=3"),
		"kinds=placed", "kinds=placed,completed&tenant=acme", "tenant=beta&max=2", "kinds=site_down", "since=100000",
	} {
		path := "/v2/events?" + q
		nd := serve(http.MethodGet, path, "", nil)
		fr := serve(http.MethodGet, path, api.EventRecordsType, nil)
		if ct := nd.Header().Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("%s: NDJSON served as %q", q, ct)
		}
		if ct := fr.Header().Get("Content-Type"); ct != api.EventRecordsType {
			t.Fatalf("%s: frames served as %q", q, ct)
		}
		var marshalled []byte
		lines := readLines(t, bytes.NewReader(nd.Body.Bytes()))
		for _, ev := range lines {
			line, _ := json.Marshal(ev)
			marshalled = append(append(marshalled, line...), '\n')
			if ev.Seq == nanSeq {
				t.Fatalf("%s: the NaN event has a line", q)
			}
		}
		if !bytes.Equal(nd.Body.Bytes(), marshalled) {
			t.Fatalf("%s: the NDJSON is not json.Marshal's lines", q)
		}
		if frames := readFrames(t, fr.Body); !sameEvents(frames, lines) {
			t.Fatalf("%s: %d frames, %d lines, or they differ:\n%+v\n%+v", q, len(frames), len(lines), frames, lines)
		}
	}

	// Follow: read exactly the placements either way, then hang up.
	ts := httptest.NewServer(hd)
	defer ts.Close()
	follow := func(accept string, n int) []api.Event {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v2/events?follow=1&kinds=placed,arrived", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out []api.Event
		if resp.Header.Get("Content-Type") == api.EventRecordsType {
			br := bufio.NewReader(resp.Body)
			for len(out) < n {
				var ev api.Event
				if err := api.ReadEventFrame(br, &ev); err != nil {
					t.Fatal(err)
				}
				out = append(out, ev)
			}
			return out
		}
		sc := bufio.NewScanner(resp.Body)
		for len(out) < n && sc.Scan() {
			var ev api.Event
			if err := api.ParseEvent(sc.Bytes(), &ev); err != nil {
				t.Fatal(err)
			}
			out = append(out, ev)
		}
		return out
	}
	want := readLines(t, serve(http.MethodGet, "/v2/events?kinds=placed,arrived", "", nil).Body)
	if lines, frames := follow("", len(want)), follow(api.EventRecordsType, len(want)); !sameEvents(lines, want) || !sameEvents(frames, want) {
		t.Fatalf("follow: %d lines and %d frames of %d events, or they differ", len(lines), len(frames), len(want))
	}

	// The Accept header alone picks the format: the frames named at a
	// quality above zero and at least the one the most specific range
	// matching NDJSON gives it.
	for accept, frames := range map[string]bool{
		"":                               false,
		"*/*":                            false,
		"application/x-ndjson":           false,
		api.EventRecordsType + ";q=0":    false,
		api.EventRecordsType + "; q=0.0": false,
		"text/plain, " + api.EventRecordsType + ";q=0.2":                      true,
		api.EventRecordsType + ", application/x-ndjson;q=0.5":                 true,
		"application/x-ndjson, " + api.EventRecordsType + ";q=0.1":            false,
		"*/*, " + api.EventRecordsType + ";q=0.9":                             false,
		"*/*, application/x-ndjson;q=0.5, " + api.EventRecordsType + ";q=0.9": true,
		"application/*;q=0.5, " + api.EventRecordsType + ";q=0.5":             true,
		api.EventRecordsType + ";q=bad":                                       false,
	} {
		ct := serve(http.MethodGet, "/v2/events?max=1", accept, nil).Header().Get("Content-Type")
		if (ct == api.EventRecordsType) != frames {
			t.Errorf("Accept %q: served %q", accept, ct)
		}
	}
}
