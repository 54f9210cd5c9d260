package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"trustgrid/internal/api"
)

// TestMain lets the test binary play the system under test: the harness
// re-executes os.Executable() with childEnv set, here as under go run.
func TestMain(m *testing.M) {
	if cfg := os.Getenv(childEnv); cfg != "" {
		os.Exit(childMain(cfg))
	}
	os.Exit(m.Run())
}

func TestTopPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 50}, {19, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}, {60000, 99.9}, {100000, 99.99}} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.n != 5 || s.p50 != 3 || s.max != 5 || s.topP != 50 || s.topVal != 3 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestSelfTimes(t *testing.T) {
	// A round of 100 with children [10,30], [20,50] (overlapping the
	// first) and [60,70]: 50 covered, 50 self. The nested grandchild must
	// come out of its parent's self time, not the round's.
	spans := []span{
		{Name: "round", Parent: -1, Start: 0, End: 100},
		{Name: "submit", Parent: 0, Start: 10, End: 30},
		{Name: "submit", Parent: 0, Start: 20, End: 50},
		{Name: "events", Parent: 0, Start: 60, End: 70},
		{Name: "decode", Parent: 3, Start: 62, End: 66},
		{Name: "open", Parent: 0, Start: 80, End: -1}, // never closed: ignored
	}
	total, self := selfTimes(spans)
	if total["round"] != 100 || self["round"] != 50 {
		t.Errorf("round: total %v self %v, want 100 and 50", total["round"], self["round"])
	}
	if total["submit"] != 50 || self["submit"] != 50 {
		t.Errorf("submit: total %v self %v, want 50 and 50", total["submit"], self["submit"])
	}
	if total["events"] != 10 || self["events"] != 6 || self["decode"] != 4 {
		t.Errorf("events: total %v self %v, decode self %v", total["events"], self["events"], self["decode"])
	}
	if _, ok := total["open"]; ok {
		t.Error("an unclosed span was counted")
	}
	var rec *recorder // the untraced run: every call must be a no-op
	rec.end(rec.begin("x", 0, -1))
}

func TestOpenLoopSchedule(t *testing.T) {
	const flush = 7 * time.Millisecond
	if dueTime(0, flush) != flush || dueTime(9, flush) != 10*flush {
		t.Errorf("dueTime: %v %v", dueTime(0, flush), dueTime(9, flush))
	}
	// On time: only flush k goes out. Held up until just past flush 5's
	// due time: flushes 2..5 go out together. Never past the end.
	if got := overdue(2, 100, flush, dueTime(2, flush)); got != 3 {
		t.Errorf("on time: overdue = %d, want 3", got)
	}
	if got := overdue(2, 100, flush, dueTime(5, flush)+time.Millisecond); got != 6 {
		t.Errorf("held up: overdue = %d, want 6", got)
	}
	if got := overdue(98, 100, flush, time.Hour); got != 100 {
		t.Errorf("at the end: overdue = %d, want 100", got)
	}
	// The live schedule is sized from the window and is the same for the
	// same seed.
	w := workloads[2].quick()
	a, err := w.generate(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := w.generate(7, 1)
	c, _ := w.generate(8, 1)
	if len(a.flushes) != int(time.Second/w.flush) || a.jobs != len(a.flushes)*w.perFlush {
		t.Errorf("%d flushes, %d jobs", len(a.flushes), a.jobs)
	}
	if a.digest != b.digest || a.digest == c.digest {
		t.Errorf("digests: same seed %v, other seed %v", a.digest == b.digest, a.digest == c.digest)
	}
}

func TestHostSpeed(t *testing.T) {
	var m speedometer
	if m.speed() != 1 {
		t.Errorf("no samples: speed %v, want 1 (timings stay as measured)", m.speed())
	}
	// 98 samples at twice the nominal time and two the scheduler
	// interrupted: the host ran at half speed, and the two do not count.
	for range 98 {
		m.add(2 * refNominal)
	}
	m.add(40 * refNominal)
	m.add(90 * refNominal)
	if got := m.speed(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("speed = %v, want 0.5", got)
	}
	// Half the window fast, half slow: the mean, not either state.
	var mixed speedometer
	for range 50 {
		mixed.add(refNominal)
		mixed.add(2 * refNominal)
	}
	if got := mixed.speed(); got < 0.66 || got > 0.70 {
		t.Errorf("mixed speed = %v, want about 2/3", got)
	}
	m.sample()
	if last := m.samples[len(m.samples)-1]; last <= 0 {
		t.Errorf("a sample of the reference kernel took %v", last)
	}

	// A live placement at half speed: the 25 ms wait for the ticker stays,
	// the 16 ms of work after it become 8.
	if got := afterTick(41, 0.5, 50*time.Millisecond, 0.5); got != 33 {
		t.Errorf("afterTick = %v, want 33", got)
	}
	if got := afterTick(20, 0.5, 50*time.Millisecond, 0.5); got != 20 {
		t.Errorf("afterTick below the wait = %v, want 20 unchanged", got)
	}
}

func TestBacklogGrowing(t *testing.T) {
	flat, rising := make([]float64, 400), make([]float64, 400)
	for i := range flat {
		flat[i] = 100
		rising[i] = float64(i)
	}
	flat[350] = 5000 // one stall spike in the last quarter is not growth
	if backlogGrowing(flat, 40) {
		t.Error("flat series with a spike reported as growing")
	}
	if !backlogGrowing(rising, 40) {
		t.Error("rising series not reported as growing")
	}
}

// TestKnownRecoveryLoss pins the one tolerated durability loss to the
// workloads that replay a WAL in live mode: everywhere else a job missing
// from the drain fails the run.
func TestKnownRecoveryLoss(t *testing.T) {
	for _, w := range workloads {
		want := 0
		if w.live && w.durable {
			want = w.perFlush
		}
		if got := knownRecoveryLoss(w); got != want {
			t.Errorf("%s: tolerates %d lost jobs, want %d", w.name, got, want)
		}
	}
}

func TestStreamCheck(t *testing.T) {
	sc := newStreamCheck(time.Now())
	sc.book.accept(0, 1)
	sc.book.accept(1, 1)
	now := time.Now()
	for _, ev := range []api.Event{
		{Seq: 0, Kind: "arrived", Job: 0},
		{Seq: 1, Kind: "placed", Job: 0, Time: 5, Start: 5, Finish: 9},
		{Seq: 3, Kind: "placed", Job: 1, Time: 5, Start: 5, Finish: 7}, // seq 2 is missing
		{Seq: 4, Kind: "completed", Job: 0, Finish: 9},
		{Seq: 5, Kind: "completed", Job: 0, Finish: 9}, // twice
	} {
		sc.consume(ev, now)
	}
	if sc.gaps != 1 {
		t.Errorf("gaps = %d, want 1", sc.gaps)
	}
	if sc.completedJobs != 1 || sc.book.completed[0] != 2 || sc.book.completed[1] != 0 {
		t.Errorf("completions: jobs %d, per job %v", sc.completedJobs, sc.book.completed[:2])
	}
	if sc.makespan != 9 || len(sc.placeMS) != 2 || sc.batchSize[5] != 2 {
		t.Errorf("makespan %v, %d samples, batch %d", sc.makespan, len(sc.placeMS), sc.batchSize[5])
	}
	// The digest covers placements only, in order.
	other := newStreamCheck(time.Now())
	other.consume(api.Event{Seq: 0, Kind: "placed", Job: 0, Time: 5, Start: 5, Finish: 9}, now)
	other.consume(api.Event{Seq: 1, Kind: "placed", Job: 1, Time: 5, Start: 5, Finish: 7}, now)
	if sc.sum() != other.sum() {
		t.Error("placement digests differ for the same placements")
	}

	// The live follower sees only placements, so it checks that seq rises
	// and matches a placement that overtakes its submit response.
	book := &liveBook{batches: map[float64]int{}}
	book.placed(api.Event{Seq: 4, Job: 2, Time: 1}, 30*time.Millisecond)
	book.submitted([]int{2, 3}, 10*time.Millisecond)
	book.placed(api.Event{Seq: 9, Job: 3, Time: 1}, 25*time.Millisecond)
	book.placed(api.Event{Seq: 9, Job: 3, Time: 2}, 40*time.Millisecond) // a retry, and seq did not rise
	if book.first != 2 || book.events != 3 || book.regress != 1 {
		t.Errorf("first %d events %d regress %d", book.first, book.events, book.regress)
	}
	if !reflect.DeepEqual(book.placeMS, []float64{20, 15}) {
		t.Errorf("latencies %v, want [20 15]", book.placeMS)
	}
}

func TestCompareVerdicts(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 { // statistics.quantiles(range(1, 11), n=4)
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	steady := func(center float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = center * (1 + 0.002*float64(i-5))
		}
		return out
	}
	lower := metricDef{Name: "place_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "jobs_per_s", Better: "higher", Bound: 0.10}
	noisy := []float64{60, 80, 100, 120, 140, 70, 90, 110, 130, 100}
	// Ten pairs of which the change wins seven by a tenth and loses three:
	// its median gains more than the parent's spread, but not often enough.
	base := []float64{100, 102, 98, 101, 99, 103, 97, 100, 102, 98}
	sevenOfTen := make([]float64, len(base))
	for i, v := range base {
		sevenOfTen[i] = 0.9 * v
		if i >= 7 {
			sevenOfTen[i] = 1.05 * v
		}
	}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady(100), steady(100.5), verdictWithin},
		{"latency up 20%", lower, steady(100), steady(120), verdictWorse},
		{"latency down 20%", lower, steady(100), steady(80), verdictBetter},
		{"throughput down 20%", higher, steady(100), steady(80), verdictWorse},
		{"throughput up 20%", higher, steady(100), steady(120), verdictBetter},
		{"too noisy to tell", lower, noisy, steady(105), verdictUnresolved},
		{"noisy but every run better", lower, noisy, steady(50), verdictBetter},
		{"median gains, pairs do not", metricDef{Name: "ack_p50_ms", Better: "lower", Bound: 0.25}, base, sevenOfTen, verdictWithin},
	} {
		if got, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	runs := func(v []float64) map[string]map[string][]float64 {
		return map[string]map[string][]float64{"live-wide-minmin": {"place_p50_ms": v}}
	}
	var out bytes.Buffer
	if code := compareRuns(runs(steady(100)), runs(steady(130)), &out); code != 1 {
		t.Errorf("a worse pair exits %d, want 1\n%s", code, out.String())
	}
	if code := compareRuns(runs(steady(100)), runs(steady(101)), io.Discard); code != 0 {
		t.Errorf("a clean comparison exits %d", code)
	}
}

// TestManifest pins BENCHMARK.json to the tables in manifest.go and the
// contract's limits, so neither can drift from what the binary reports.
func TestManifest(t *testing.T) {
	m := buildManifest()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, onDisk) {
		t.Error("BENCHMARK.json differs from the tables in manifest.go; regenerate it with `go run ./bench -manifest > BENCHMARK.json`")
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(m.EndToEnd), len(m.PerLayer))
	}
	seen, hasSetup := map[string]bool{}, false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("bad metric definition %+v", d)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, w := range m.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
}

// TestQuickEndToEnd runs every workload once at smoke-test size, traced,
// so neither the drivers nor the layer probes can rot unnoticed: all
// checks must pass and every declared metric must come out as a number.
func TestQuickEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the daemon as a child process")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := runOne(context.Background(), w, options{seed: 1, seconds: 1, trace: true, quick: true}, &out)
			if errors.Is(err, errVoid) {
				t.Skipf("machine too busy for an open-loop run: %v", err)
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%d of %d operations failed: %v", res.failed, res.attempted, res.failures)
			}
			for _, d := range endToEnd {
				if v, ok := res.e2e[d.Name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("end-to-end %s = %v (present %v)", d.Name, v, ok)
				}
			}
			for _, d := range perLayer {
				if v := res.layer[d.Name]; v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer %s = %v", d.Name, v)
				}
			}
			for _, name := range []string{"kernel.build_us_per_round", "wal.commit_us", "sched.engine_us_per_job",
				"server.submit_us_per_job", "stga.schedule_ms_per_round", "fleet.barrier_rtt_us", "dag.release_ns_per_job"} {
				if res.layer[name] <= 0 {
					t.Errorf("probe metric %s = %v", name, res.layer[name])
				}
			}
			if code := finish(res, options{trace: true}, &out); code != 0 {
				t.Errorf("finish exits %d", code)
			}
			var line resultLine
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte{'\n'})
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil || !line.Correct || len(line.Metrics) != len(perLayer) {
				t.Errorf("result line: %v, correct %v, %d metrics", err, line.Correct, len(line.Metrics))
			}
			if _, err := os.Stat(workRoot); !os.IsNotExist(err) {
				t.Errorf("work directory left behind: %v", err)
			}
		})
	}
}
