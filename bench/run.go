package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"trustgrid/internal/stats"
)

// Set-up and recovery are repeated within a run and reported as medians,
// so one slow process spawn does not decide the number: at least minReps
// times, then on until repBudget is spent or maxReps is reached (a 5 ms
// set-up is repeated often, a 300 ms recovery four times).
const (
	minReps   = 3
	maxReps   = 25
	repBudget = time.Second
)

// repeat calls measure until the repetition rule is satisfied and
// returns the samples in seconds. keep tells measure that this is the
// last repetition, whose outcome the run goes on with.
func (h *harness) repeat(measure func(keep bool) (time.Duration, error)) ([]float64, error) {
	var samples []float64
	spent := time.Duration(0)
	for {
		n := len(samples) + 1
		last := h.quick || n >= maxReps || (n >= minReps && spent >= repBudget)
		d, err := measure(last)
		if err != nil {
			return nil, err
		}
		samples, spent = append(samples, d.Seconds()), spent+d
		if last {
			return samples, nil
		}
	}
}

// runResult is everything one run of one workload measured.
type runResult struct {
	e2e     map[string]float64
	raw     map[string]float64 // the host-speed-normalised timings of e2e, as measured
	layer   map[string]float64
	timings map[string]timing
	info    map[string]string

	attempted, failed int
	failures          []string
}

func newRunResult() *runResult {
	return &runResult{e2e: map[string]float64{}, raw: map[string]float64{}, layer: map[string]float64{},
		timings: map[string]timing{}, info: map[string]string{}}
}

// fail records a failed operation's reason (the caller counts it).
func (r *runResult) fail(format string, args ...any) {
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check is a correctness check that fails the run, not one that prints:
// a false condition counts as a failed operation.
func (r *runResult) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.fail(format, args...)
	}
}

// measureSetup brings the system up repeatedly on an empty state
// directory, keeps the last child for the run, and records the median,
// at the speed the host showed between the set-ups.
func (h *harness) measureSetup(ctx context.Context, res *runResult, walDir, churnFile string) (*sut, error) {
	var kept *sut
	var host speedometer
	refKernel() // the first call builds encoding/json's type cache
	samples, err := h.repeat(func(keep bool) (time.Duration, error) {
		host.sample()
		s, d, err := h.setup(ctx, walDir, churnFile)
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		if keep {
			kept = s
			return d, nil
		}
		s.kill()
		return d, os.RemoveAll(walDir)
	})
	if err != nil {
		return nil, err
	}
	host.sample()
	res.layer["host.setup_speed"] = host.speed()
	res.raw["setup_s"] = stats.Median(samples)
	res.e2e["setup_s"] = res.raw["setup_s"] * host.speed()
	res.timings["setup"] = summarize(samples)
	return kept, nil
}

// crashRecover SIGKILLs the child and times its replacement, repeatedly
// (each replacement is killed in turn; the last one is returned). For a
// durable workload the restart recovers from the WAL and must report
// exactly the acknowledged submissions, globally and per tenant; without
// a WAL the replacement starts cold and registers its tenants again.
func (h *harness) crashRecover(ctx context.Context, res *runResult, s *sut, walDir, churnFile string,
	acked int, perTenant map[string]int) (*sut, error) {

	samples, err := h.repeat(func(bool) (time.Duration, error) {
		s.kill()
		start := time.Now()
		if !h.w.durable {
			var err error
			if s, _, err = h.setup(ctx, walDir, churnFile); err != nil {
				return 0, fmt.Errorf("cold restart: %w", err)
			}
			return time.Since(start), nil
		}
		var err error
		if s, err = h.spawn(walDir, churnFile); err != nil {
			return 0, fmt.Errorf("recovery: %w", err)
		}
		rep, err := s.c.Metrics(ctx, "")
		if err != nil {
			return 0, fmt.Errorf("recovery: %w", err)
		}
		d := time.Since(start)
		res.check(rep.Submitted == int64(acked), "recovered submitted=%d, acknowledged %d", rep.Submitted, acked)
		for tenant, n := range perTenant {
			got := rep.Tenants[tenant].Submitted
			res.check(got == int64(n), "recovered tenant %q submitted=%d, acknowledged %d", tenant, got, n)
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	res.layer["server.restart_s"] = stats.Median(samples)
	res.timings["recover"] = summarize(samples)
	if h.w.durable {
		res.layer["server.recover_records"] = float64(walRecords(walDir))
	}
	return s, nil
}

// walRecords counts the log lines recovery had to read, a size measure
// of the durable state at the crash point.
func walRecords(walDir string) int {
	n := 0
	_ = filepath.Walk(walDir, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() || filepath.Ext(path) != ".log" {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		for _, b := range raw {
			if b == '\n' {
				n++
			}
		}
		return nil
	})
	return n
}

// spanMetrics folds the client-side trace into the span.* layer metrics:
// how a replay round's wall time splits between its three calls.
func (r *runResult) spanMetrics(rec *recorder) {
	if rec == nil {
		return
	}
	total, self := selfTimes(rec.spans)
	round := float64(total["round"])
	r.layer["span.submit_share"] = ratio(float64(total["submit"]), round)
	r.layer["span.advance_share"] = ratio(float64(total["advance"]), round)
	r.layer["span.events_share"] = ratio(float64(total["events"]), round)
	r.layer["span.client_self_share"] = ratio(float64(self["round"]), round)
	r.layer["span.submit_ms_p50"] = summarize(spanDurations(rec.spans, "submit")).p50
	r.layer["span.advance_ms_p50"] = summarize(spanDurations(rec.spans, "advance")).p50
}
