package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strconv"
	"time"

	"trustgrid/internal/api"
	"trustgrid/internal/client"
)

// submitChunk caps the jobs in one replay submit request.
const submitChunk = 100

// jobBook tracks every accepted job of a run by its (dense) id: when it
// was handed to the daemon, and what the event stream said about it.
type jobBook struct {
	accepted  []bool
	sentAt    []time.Duration // since the run's origin; indexed by job id
	placed    []bool
	completed []uint8
}

func (b *jobBook) grow(id int) {
	for id >= len(b.sentAt) {
		n := max(2*len(b.sentAt), 1024)
		b.accepted = append(b.accepted, make([]bool, n-len(b.accepted))...)
		b.sentAt = append(b.sentAt, make([]time.Duration, n-len(b.sentAt))...)
		b.placed = append(b.placed, make([]bool, n-len(b.placed))...)
		b.completed = append(b.completed, make([]uint8, n-len(b.completed))...)
	}
}

func (b *jobBook) accept(id int, sentAt time.Duration) {
	b.grow(id)
	b.accepted[id], b.sentAt[id] = true, sentAt
}

// streamCheck consumes the unfiltered event stream of a replay run: it
// verifies seq continuity, samples placement latency, counts outcomes and
// hashes the placements of the deterministic prefix.
type streamCheck struct {
	book   jobBook
	origin time.Time
	cursor int64
	gaps   int

	events, placedEvents, failedEvents int
	completedJobs                      int
	makespan                           float64
	placeMS                            []float64

	// Prefix accounting: frozen once the hashed rounds are through, so
	// the counts and the digest repeat exactly from run to run.
	hashing   bool
	hash      io.Writer
	sum       func() string
	prefix    prefixCounts
	batchSize map[float64]int // placements per placement time, prefix only
}

type prefixCounts struct {
	rounds, jobs, events, placed, failed int
}

func newStreamCheck(origin time.Time) *streamCheck {
	h := sha256.New()
	return &streamCheck{origin: origin, hashing: true, hash: h,
		sum:       func() string { return hex.EncodeToString(h.Sum(nil)) },
		batchSize: map[float64]int{}}
}

func (sc *streamCheck) consume(ev api.Event, now time.Time) {
	if ev.Seq != sc.cursor {
		sc.gaps++
	}
	sc.cursor = ev.Seq + 1
	sc.events++
	if sc.hashing {
		sc.prefix.events++
	}
	switch ev.Kind {
	case "placed":
		sc.placedEvents++
		sc.book.grow(ev.Job)
		if !sc.book.placed[ev.Job] {
			sc.book.placed[ev.Job] = true
			sc.placeMS = append(sc.placeMS, ms(now.Sub(sc.origin)-sc.book.sentAt[ev.Job]))
		}
		if sc.hashing {
			sc.prefix.placed++
			sc.batchSize[ev.Time]++
			var line []byte
			line = strconv.AppendInt(line, int64(ev.Job), 10)
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(ev.Site), 10)
			line = append(line, ' ')
			line = strconv.AppendFloat(line, ev.Start, 'g', -1, 64)
			line = append(line, ' ')
			line = strconv.AppendFloat(line, ev.Finish, 'g', -1, 64)
			line = append(line, '\n')
			_, _ = sc.hash.Write(line)
		}
	case "failed":
		sc.failedEvents++
		if sc.hashing {
			sc.prefix.failed++
		}
	case "completed":
		sc.book.grow(ev.Job)
		if sc.book.completed[ev.Job] < math.MaxUint8 {
			sc.book.completed[ev.Job]++
		}
		if sc.book.completed[ev.Job] == 1 {
			sc.completedJobs++
		}
		sc.makespan = math.Max(sc.makespan, ev.Finish)
	}
}

// page reads the event log from the cursor to its current end.
func (sc *streamCheck) page(ctx context.Context, c *client.Client) error {
	es := c.Events(ctx, client.EventsOptions{Since: sc.cursor})
	defer es.Close()
	for {
		ev, err := es.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("events: %w", err)
		}
		sc.consume(ev, time.Now())
	}
}

// runReplay drives one closed-loop replay: per Δ-round, submit the
// window's jobs, advance the manual clock, page the events; stop
// starting rounds once the measured window is over, then crash-recover
// (durable workloads) and drain.
func (h *harness) runReplay(ctx context.Context, in *inputs, seconds float64, rec *recorder) (*runResult, error) {
	w := h.w
	res := newRunResult()
	walDir := filepath.Join(h.dir, "wal")
	churnFile := ""
	if w.churn {
		churnFile = filepath.Join(h.dir, "churn.jsonl")
		if err := writeChurn(churnFile, in.churn); err != nil {
			return nil, err
		}
	}
	s, err := h.measureSetup(ctx, res, walDir, churnFile)
	if err != nil {
		return nil, err
	}

	u0, err := s.usage(ctx)
	if err != nil {
		return nil, err
	}
	origin := time.Now()
	sc := newStreamCheck(origin)
	deadline := origin.Add(time.Duration(seconds * float64(time.Second)))
	accepted, refused := 0, 0
	perTenant := map[string]int{}
	var ackMS []float64
	var host speedometer
	rounds := 0
	// A durable daemon is crashed at a fixed point of the trace — right
	// after the hashed prefix — not at the end of the window: the state it
	// has to recover is then the same size on every run, however many
	// rounds the window fits, and the rounds after it run on the recovered
	// daemon. The drill's wall time is taken out of the window.
	crashed := false
	var paused time.Duration
	cpuMicros := int64(0)
	drill := func() error {
		start := time.Now()
		u, err := s.usage(ctx)
		if err != nil {
			return err
		}
		cpuMicros += u.CPUMicros - u0.CPUMicros
		if s, err = h.crashRecover(ctx, res, s, walDir, churnFile, accepted, perTenant); err != nil {
			return err
		}
		if u0, err = s.usage(ctx); err != nil {
			return err
		}
		crashed = true
		pause := time.Since(start)
		paused, deadline = paused+pause, deadline.Add(pause)
		return nil
	}
	for r := 0; r < len(in.rounds) && time.Now().Before(deadline); r++ {
		if w.durable && r == w.hashRounds {
			if err := drill(); err != nil {
				return nil, err
			}
		}
		root := rec.begin("round", r, -1)
		roundStart := time.Now()
		// One request per tenant and at most submitChunk jobs each.
		byTenant, order := map[string][]api.JobSpec{}, []string{}
		for _, j := range in.rounds[r] {
			if _, seen := byTenant[j.tenant]; !seen {
				order = append(order, j.tenant)
			}
			byTenant[j.tenant] = append(byTenant[j.tenant], j.spec)
		}
		for _, tenant := range order {
			specs := byTenant[tenant]
			for len(specs) > 0 {
				chunk := specs[:min(len(specs), submitChunk)]
				specs = specs[len(chunk):]
				sp := rec.begin("submit", r, root)
				sent := time.Now()
				ids, err := s.c.Submit(ctx, tenant, chunk)
				rec.end(sp)
				if err != nil {
					refused += len(chunk)
					res.fail("submit round %d tenant %q: %v", r, tenant, err)
					continue
				}
				for _, id := range ids {
					sc.book.accept(id, sent.Sub(origin))
				}
				accepted += len(ids)
				perTenant[tenant] += len(ids)
			}
		}
		sp := rec.begin("advance", r, root)
		_, err := s.c.Advance(ctx, api.AdvanceRequest{To: float64(r+1) * w.delta})
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("advance round %d: %w", r, err)
		}
		// A replay round is acknowledged when the daemon has taken its jobs
		// and scheduled it. (One submit's round trip is 0.2 ms of loopback
		// wake-ups on replay-nas-stga and moved by half between two phases
		// of the host; it stays in the trace as span.submit_ms_p50.)
		ackMS = append(ackMS, ms(time.Since(roundStart)))
		sp = rec.begin("events", r, root)
		err = sc.page(ctx, s.c)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		rec.end(root)
		// One speed sample per round, taken in the child and kept out of the
		// window like the drill.
		sampleStart := time.Now()
		d, err := s.refSample(ctx)
		if err != nil {
			return nil, err
		}
		host.add(d)
		paused += time.Since(sampleStart)
		rounds++
		if sc.hashing {
			sc.prefix.rounds, sc.prefix.jobs = rounds, accepted
			if rounds == w.hashRounds {
				sc.hashing = false
			}
		}
	}
	window := time.Since(origin) - paused
	u1, err := s.usage(ctx)
	if err != nil {
		return nil, err
	}
	cpuMicros += u1.CPUMicros - u0.CPUMicros

	// A window too short to reach the crash point crashes here instead. A
	// daemon without a WAL is drained first and its replacement starts
	// cold.
	if w.durable && !crashed {
		if err := drill(); err != nil {
			return nil, err
		}
	}
	// Cool down: keep advancing the clock, a few rounds at a time and
	// reading the events as they come, until everything accepted has
	// completed. One /v2/drain of an overloaded trace's whole tail can
	// emit more events than the daemon's 65 536-event log retains, and the
	// evicted ones would look like lost jobs.
	drainSpan := rec.begin("drain", rounds, -1)
	drainStart := time.Now()
	for to, limit := float64(rounds)*w.delta, 100*float64(rounds+1)*w.delta; sc.completedJobs < accepted && to < limit; {
		to += 8 * w.delta
		if _, err := s.c.Advance(ctx, api.AdvanceRequest{To: to}); err != nil {
			return nil, fmt.Errorf("cool-down advance: %w", err)
		}
		if err := sc.page(ctx, s.c); err != nil {
			return nil, err
		}
	}
	rep, err := s.c.Drain(ctx)
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	if err := sc.page(ctx, s.c); err != nil {
		return nil, err
	}
	res.layer["span.drain_s"] = time.Since(drainStart).Seconds()
	rec.end(drainSpan)
	peak, err := s.usage(ctx)
	if err != nil {
		return nil, err
	}
	if !w.durable {
		if s, err = h.crashRecover(ctx, res, s, walDir, churnFile, 0, nil); err != nil {
			return nil, err
		}
	}
	s.kill()

	// Checks: every accepted job completes exactly once, the stream has
	// no gaps, and the drain summary agrees with the stream.
	res.attempted += accepted + refused
	res.failed += refused
	res.check(sc.gaps == 0, "event seq has %d gaps", sc.gaps)
	bad := 0
	for id, n := range sc.book.completed {
		if (n != 0) != sc.book.accepted[id] || n > 1 {
			bad++
		}
	}
	res.failed += bad
	res.check(bad == 0, "%d accepted jobs did not complete exactly once", bad)
	res.check(sc.completedJobs == accepted, "stream completed %d jobs, accepted %d", sc.completedJobs, accepted)
	res.check(rep.Summary.Jobs == accepted, "drain summary has %d jobs, accepted %d", rep.Summary.Jobs, accepted)
	res.check(math.Abs(rep.Summary.Makespan-sc.makespan) <= 1e-9*sc.makespan,
		"drain makespan %v, stream makespan %v", rep.Summary.Makespan, sc.makespan)

	ref, err := w.referenceSummary(in, rounds)
	if err != nil {
		return nil, fmt.Errorf("reference schedule: %w", err)
	}
	quality := ratio(rep.Summary.Makespan, ref.Makespan)
	res.check(quality <= maxMakespanRatio, "makespan is %.4f of the reference scheduler's, above %.2f", quality, maxMakespanRatio)
	// A replay run is CPU-bound from end to end, so all its timings are
	// reported at reference host speed (hostspeed.go).
	place, ack := summarize(sc.placeMS), summarize(ackMS)
	speed := host.speed()
	res.layer["host.speed"] = speed
	res.raw["jobs_per_s"] = ratio(float64(accepted), window.Seconds())
	res.raw["place_p50_ms"], res.raw["place_p90_ms"], res.raw["ack_p50_ms"] = place.p50, place.p90, ack.p50
	res.e2e["jobs_per_s"] = ratio(float64(accepted), window.Seconds()*speed)
	cpuMicros -= host.total().Microseconds() // the child ran the speed samples
	res.layer["sut.cpu_ms_per_kjob"] = ratio(float64(cpuMicros)/1e3, float64(accepted)/1e3)
	res.e2e["place_p50_ms"], res.e2e["place_p90_ms"] = place.p50*speed, place.p90*speed
	res.e2e["ack_p50_ms"] = ack.p50 * speed
	res.e2e["makespan_ratio"] = quality
	res.timings["place"], res.timings["ack"] = place, ack
	res.info["placements_sha256"] = fmt.Sprintf("%s (first %d rounds, %d jobs)", sc.sum(), sc.prefix.rounds, sc.prefix.jobs)
	res.info["window"] = fmt.Sprintf("%.2fs, %d rounds, %d jobs accepted", window.Seconds(), rounds, accepted)
	res.info["schedule"] = fmt.Sprintf("makespan %.0fs (reference Min-Min %.0fs), slowdown %.2f (reference %.2f), %d risk-takers, %d failed",
		rep.Summary.Makespan, ref.Makespan, rep.Summary.Slowdown, ref.Slowdown, rep.Summary.NRisk, rep.Summary.NFail)

	res.layer["sched.rounds"] = float64(rounds)
	res.layer["sched.events_per_job"] = ratio(float64(sc.prefix.events), float64(sc.prefix.jobs))
	res.layer["sched.retries_per_job"] = ratio(float64(sc.prefix.failed), float64(sc.prefix.jobs))
	if sizes := summarize(batchSizes(sc.batchSize)); sizes.n > 0 {
		res.layer["sched.batch_p50"], res.layer["sched.batch_max"] = sizes.p50, sizes.max
	}
	res.layer["sut.peak_rss_mb"] = float64(peak.MaxRSSKB) / 1024
	res.layer["tail.place_p99_ms"], res.layer["tail.place_max_ms"] = place.p99, place.max
	res.layer["tail.ack_p99_ms"] = ack.p99
	res.spanMetrics(rec)
	return res, nil
}
