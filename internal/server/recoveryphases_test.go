package server_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"trustgrid/internal/server"
)

// TestRecoveryPhaseGauges: a daemon booted over a copy of the flat
// fixture reports the wall time of each of its five recovery phases on
// /metrics.prom, and the phases add up to no more than New took; a
// daemon without a WAL recovers nothing and reports no phase.
func TestRecoveryPhaseGauges(t *testing.T) {
	fixture := filepath.Join("testdata", "wal-v3", "flat")
	dir := copyFixture(t, fixture, readTree(t, fixture), false)
	begin := time.Now()
	srv, err := server.New(walTestConfig(dir, "minmin"))
	took := time.Since(begin)
	if err != nil {
		t.Fatal(err)
	}
	text := scrapeProm(t, srv)
	if _, err := srv.Stop(false); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, phase := range []string{"open", "snapshot", "logs", "restore", "replay"} {
		series := fmt.Sprintf("trustgrid_recovery_seconds{phase=%q} ", phase)
		at := strings.Index(text, series)
		if at < 0 {
			t.Fatalf("/metrics.prom has no %s series:\n%s", series, text)
		}
		line, _, _ := strings.Cut(text[at+len(series):], "\n")
		v, err := strconv.ParseFloat(line, 64)
		if err != nil || v < 0 {
			t.Fatalf("%s%s: not a duration in seconds (%v)", series, line, err)
		}
		sum += v
	}
	if sum <= 0 || sum > took.Seconds() {
		t.Fatalf("recovery phases sum to %gs; New took %gs", sum, took.Seconds())
	}

	plain, err := server.New(walTestConfig("", "minmin"))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Stop(false)
	if text := scrapeProm(t, plain); strings.Contains(text, "trustgrid_recovery_seconds") {
		t.Fatalf("a daemon without a WAL reports recovery phases:\n%s", text)
	}
}

// scrapeProm returns srv's /metrics.prom body.
func scrapeProm(t *testing.T, srv *server.Server) string {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
