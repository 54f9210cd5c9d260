package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"trustgrid/internal/api"
	"trustgrid/internal/client"
	"trustgrid/internal/stats"
)

// placeTimeout is how long after the last flush a job may still be
// placed before it counts as failed.
const placeTimeout = 5 * time.Second

// liveBook matches placement events to the due time of the flush that
// submitted the job. Submit responses and placement events race (a fast
// daemon places a job before the response carrying its id is read), so
// either side may arrive first.
type liveBook struct {
	mu       sync.Mutex
	due      []time.Duration // by job id, since origin; 0 = id not yet known
	placedAt []time.Duration // first placement seen before the id was known
	placeMS  []float64
	first    int // jobs whose first placement has been seen
	events   int // placement events, retries included
	regress  int // placement events whose seq did not increase
	lastSeq  int64
	batches  map[float64]int // placements per round, keyed by virtual time
}

func (b *liveBook) grow(id int) {
	for id >= len(b.due) {
		n := max(2*len(b.due), 4096)
		b.due = append(b.due, make([]time.Duration, n-len(b.due))...)
		b.placedAt = append(b.placedAt, make([]time.Duration, n-len(b.placedAt))...)
	}
}

func (b *liveBook) submitted(ids []int, due time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, id := range ids {
		b.grow(id)
		b.due[id] = due
		if at := b.placedAt[id]; at != 0 {
			b.placeMS = append(b.placeMS, ms(at-due))
		}
	}
}

func (b *liveBook) placed(ev api.Event, at time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.events++
	if ev.Seq <= b.lastSeq && b.events > 1 {
		b.regress++
	}
	b.lastSeq = ev.Seq
	b.batches[ev.Time]++
	b.grow(ev.Job)
	if b.placedAt[ev.Job] != 0 {
		return // a retry of a job already sampled
	}
	b.placedAt[ev.Job] = at
	b.first++
	if due := b.due[ev.Job]; due != 0 {
		b.placeMS = append(b.placeMS, ms(at-due))
	}
}

func (b *liveBook) firstPlaced() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.first
}

// dueTime is when flush k is due: the open-loop schedule is fixed before
// the run starts and never waits for the system.
func dueTime(k int, flush time.Duration) time.Duration { return time.Duration(k+1) * flush }

// overdue returns the end of the run of flushes due at or before now,
// starting at k: normally just k, more after the sender was held up.
func overdue(k, n int, flush, now time.Duration) int {
	end := k + 1
	for end < n && dueTime(end, flush) <= now {
		end++
	}
	return end
}

// backlogGrowing reports whether the outstanding-jobs series keeps
// rising through the load phase: the median of its last quarter against
// the median of its second quarter (medians, so a snapshot stall that
// happens to fall in one of them does not decide it), with two rounds'
// worth of slack.
func backlogGrowing(outstanding []float64, perRound float64) bool {
	q := len(outstanding) / 4
	if q == 0 {
		return false
	}
	return stats.Median(outstanding[3*q:]) > 1.5*stats.Median(outstanding[q:2*q])+2*perRound
}

// knownRecoveryLoss is how many acknowledged jobs a run may lose across
// kill -9 and recovery without failing. It should be zero, and is zero
// wherever no WAL is replayed. On a live durable workload, at the commit
// that defined this benchmark, it is exactly one request's jobs: a
// live-mode submit commits its records on the loop goroutine and injects
// the jobs afterwards from the handler, and a snapshot taken between the
// two covers the records without holding the jobs, so recovery skips
// them (README.md, "Known defect"). A run loses either nothing or that
// one request, any other number fails it, and the loss is reported as
// server.recover_lost_jobs so the fix shows; replay (manual clock)
// ingests on the loop goroutine and is held to zero.
func knownRecoveryLoss(w workload) int {
	if !w.durable {
		return 0
	}
	return w.perFlush
}

// errVoid marks a live run whose numbers mean nothing: the generator ran
// late or the system never kept up. Such a run exits non-zero without a
// result.
var errVoid = errors.New("void run")

// runLive drives one open-loop run: flushes go out on a fixed schedule
// over one connection while a follower reads placements over a second;
// every latency is timed from the flush's due time.
func (h *harness) runLive(ctx context.Context, in *inputs, rec *recorder) (*runResult, error) {
	w := h.w
	res := newRunResult()
	walDir := filepath.Join(h.dir, "wal")
	s, err := h.measureSetup(ctx, res, walDir, "")
	if err != nil {
		return nil, err
	}
	u0, err := s.usage(ctx)
	if err != nil {
		return nil, err
	}

	book := &liveBook{batches: map[float64]int{}}
	origin := time.Now()
	followCtx, stopFollow := context.WithCancel(ctx)
	defer stopFollow()
	followErr := make(chan error, 1)
	evClient := client.New(s.base).WithHTTPClient(s.events)
	go func() {
		es := evClient.Events(followCtx, client.EventsOptions{Follow: true, Kinds: []string{"placed"}})
		defer es.Close()
		for {
			ev, err := es.Next()
			if err != nil {
				if errors.Is(err, context.Canceled) || errors.Is(err, io.EOF) {
					err = nil
				}
				followErr <- err
				return
			}
			book.placed(ev, time.Since(origin))
		}
	}()

	// The sender. It sleeps to each due time; a flush found already
	// overdue (the previous request was still in flight) goes out at once
	// together with its neighbours, and is still timed from its own due
	// time. Lateness is sampled only when the sender was idle: that part
	// is the generator's own, the rest is the system's and is in the
	// latencies.
	n := len(in.flushes)
	accepted, refused := 0, 0
	perTenant := map[string]int{}
	var ackMS, lateMS, outstanding []float64
	var host speedometer
	blocked := 0
	for k := 0; k < n; {
		due := dueTime(k, w.flush)
		if now := time.Since(origin); now < due {
			time.Sleep(due - now)
			lateMS = append(lateMS, ms(time.Since(origin)-due))
		} else {
			blocked++
		}
		end := overdue(k, n, w.flush, time.Since(origin))
		sp := rec.begin("flush", k, -1)
		for ; k < end; k++ {
			fl := in.flushes[k]
			specs := make([]api.JobSpec, len(fl))
			for i, j := range fl {
				specs[i] = j.spec
			}
			req := rec.begin("submit", k, sp)
			ids, err := s.c.Submit(ctx, fl[0].tenant, specs)
			rec.end(req)
			if err != nil {
				refused += len(fl)
				res.fail("submit flush %d: %v", k, err)
				continue
			}
			ackMS = append(ackMS, ms(time.Since(origin)-dueTime(k, w.flush)))
			book.submitted(ids, dueTime(k, w.flush))
			accepted += len(ids)
			perTenant[fl[0].tenant] += len(ids)
		}
		rec.end(sp)
		outstanding = append(outstanding, float64(accepted-book.firstPlaced()))
		// One speed sample per flush, in this process and only while the
		// sender has time to spare: a sample in the child would hold up the
		// daemon's only P.
		if k < n && dueTime(k, w.flush)-time.Since(origin) > 4*refNominal {
			host.sample()
		}
	}
	loadEnd := time.Now()

	// The tail: every accepted job placed at least once.
	for book.firstPlaced() < accepted && time.Since(loadEnd) < placeTimeout {
		select {
		case err := <-followErr:
			if err == nil {
				err = errors.New("stream ended")
			}
			return nil, fmt.Errorf("event stream: %w", err)
		case <-time.After(2 * time.Millisecond):
		}
	}
	window := time.Since(origin)
	stopFollow()
	if err := <-followErr; err != nil {
		return nil, fmt.Errorf("event stream: %w", err)
	}
	u1, err := s.usage(ctx)
	if err != nil {
		return nil, err
	}
	mrep, err := s.c.Metrics(ctx, "")
	if err != nil {
		return nil, err
	}

	// Crash and recover (durable), then stop gracefully: the drain must
	// complete every accepted job on whichever child holds the state.
	if w.durable {
		if s, err = h.crashRecover(ctx, res, s, walDir, "", accepted, perTenant); err != nil {
			return nil, err
		}
	}
	peak, err := s.usage(ctx)
	if err != nil {
		return nil, err
	}
	drainStart := time.Now()
	rep, err := s.term()
	if err != nil {
		return nil, err
	}
	res.layer["span.drain_s"] = time.Since(drainStart).Seconds()
	if !w.durable {
		next, err := h.crashRecover(ctx, res, s, walDir, "", 0, nil)
		if err != nil {
			return nil, err
		}
		next.kill()
	}

	book.mu.Lock()
	defer book.mu.Unlock()
	late := summarize(lateMS)
	res.layer["gen.late_p99_ms"] = late.p99
	res.layer["gen.blocked_frac"] = ratio(float64(blocked), float64(blocked+len(lateMS)))
	if late.p99 > ms(w.tick)/2 {
		return nil, fmt.Errorf("%w: generator lateness p99 %.2f ms exceeds half a tick (%s)", errVoid, late.p99, w.tick)
	}
	if backlogGrowing(outstanding, w.rate()*w.tick.Seconds()) {
		return nil, fmt.Errorf("%w: backlog still growing at the end of load", errVoid)
	}

	unplaced := accepted - book.first
	res.attempted += accepted + refused
	res.failed += refused + unplaced
	res.check(unplaced == 0, "%d accepted jobs not placed within %s of the last flush", unplaced, placeTimeout)
	res.check(book.regress == 0, "placement stream seq went backwards %d times", book.regress)
	lost := accepted - rep.Summary.Jobs
	res.layer["server.recover_lost_jobs"] = float64(lost)
	res.check(lost == 0 || lost == knownRecoveryLoss(w), "drain summary has %d jobs, accepted %d", rep.Summary.Jobs, accepted)
	if lost > 0 {
		res.info["KNOWN DEFECT"] = fmt.Sprintf("%d acknowledged jobs missing after kill -9 and recovery (exactly one request is tolerated, see README.md)", lost)
	}

	place, ack := summarize(book.placeMS), summarize(ackMS)
	res.e2e["jobs_per_s"] = ratio(float64(book.first), window.Seconds())
	res.layer["sut.cpu_ms_per_kjob"] = ratio(float64(u1.CPUMicros-u0.CPUMicros)/1e3, float64(accepted)/1e3)
	// An acknowledgement is work from end to end and is reported at
	// reference host speed; a placement first waits for the ticker, and
	// only the rest of it is (hostspeed.go).
	speed := host.speed()
	res.layer["host.speed"] = speed
	res.raw["place_p50_ms"], res.raw["place_p90_ms"], res.raw["ack_p50_ms"] = place.p50, place.p90, ack.p50
	res.e2e["place_p50_ms"] = afterTick(place.p50, 0.5, w.tick, speed)
	res.e2e["place_p90_ms"] = afterTick(place.p90, 0.9, w.tick, speed)
	res.e2e["ack_p50_ms"] = ack.p50 * speed
	// The last placement round is the arrival horizon: no job arrived
	// later, so no schedule can end before it.
	horizon := 0.0
	for t := range book.batches {
		horizon = max(horizon, t)
	}
	res.e2e["makespan_ratio"] = ratio(rep.Summary.Makespan, horizon)
	res.timings["place"], res.timings["ack"], res.timings["gen.late"] = place, ack, late
	res.info["window"] = fmt.Sprintf("%.2fs (%.2fs load at %.0f jobs/s), %d jobs accepted, %d rounds", window.Seconds(),
		loadEnd.Sub(origin).Seconds(), w.rate(), accepted, rep.Batches)
	res.info["schedule"] = fmt.Sprintf("makespan %.0fs (arrival horizon %.0fs), slowdown %.2f, %d risk-takers, %d failed",
		rep.Summary.Makespan, horizon, rep.Summary.Slowdown, rep.Summary.NRisk, rep.Summary.NFail)

	res.layer["gen.event_gap_count"] = float64(unplaced + book.regress)
	res.layer["tail.place_p99_ms"], res.layer["tail.place_max_ms"] = place.p99, place.max
	res.layer["tail.ack_p99_ms"] = ack.p99
	within := 0
	for _, v := range book.placeMS {
		if v <= 3*ms(w.tick) {
			within++
		}
	}
	res.layer["tail.within_3_ticks_frac"] = ratio(float64(within), float64(len(book.placeMS)))
	// An ack stall is a submit answered later than one whole tick after
	// its due time: the loop goroutine was busy (snapshot, long round)
	// and every request behind it waited.
	stalls, worst := 0, 0.0
	for _, v := range ackMS {
		if v > ms(w.tick) {
			stalls++
			worst = max(worst, v)
		}
	}
	res.layer["server.ack_stall_count"] = float64(stalls)
	res.layer["server.ack_stall_ms_max"] = worst
	res.layer["sut.peak_rss_mb"] = float64(peak.MaxRSSKB) / 1024
	res.layer["sched.rounds"] = float64(mrep.Batches)
	res.layer["sched.events_per_job"] = ratio(float64(mrep.Arrived+mrep.Placed+mrep.Failures+mrep.Completed+mrep.Interrupted), float64(accepted))
	res.layer["sched.retries_per_job"] = ratio(float64(mrep.Failures), float64(accepted))
	res.layer["sched.batch_p50"] = summarize(batchSizes(book.batches)).p50
	res.layer["sched.batch_max"] = float64(mrep.LargestBatch)
	return res, nil
}
