package main

import (
	"encoding/json"
	"sort"
	"time"
)

// The benchmark runs on a few virtual CPUs of a shared machine, and what
// such a CPU gets done in a millisecond is not a constant: with a
// neighbour busy on the same core the same instructions take about 1.65
// times as long, in phases that last from a fraction of a second to many
// minutes (README.md, "Host speed"). Everything CPU-bound moves with it —
// twelve runs of one workload, same code, read 7 300 to 12 100 jobs/s
// within half an hour — and no run length averages a phase away that
// outlasts the run.
//
// What does repeat is the ratio to a fixed piece of work timed at the same
// moments. refKernel is that work; a speedometer times it all through the
// measured window, and the CPU-bound timings are reported as they would
// read on a host that ran refKernel in refNominal throughout.

// refNominal is what one refKernel call takes on an undisturbed core of
// the host the benchmark was sized on. It only fixes the scale of the
// normalised numbers: speed 1.0 is that host, undisturbed.
const refNominal = 280 * time.Microsecond

// refEvent gives refKernel the shape of the daemon's own hot paths:
// small JSON records encoded and decoded, and the allocation that goes
// with it. It uses the standard library only, so no change to the
// repository moves it.
type refEvent struct {
	Seq    int64   `json:"seq"`
	Kind   string  `json:"kind"`
	Job    int     `json:"job"`
	Site   int     `json:"site"`
	Time   float64 `json:"t"`
	Start  float64 `json:"start"`
	Finish float64 `json:"finish"`
}

var refSink int

func refKernel() {
	n := 0
	for i := 0; i < 100; i++ {
		raw, _ := json.Marshal(refEvent{Seq: int64(i), Kind: "placed", Job: 7 * i, Site: i % 20,
			Time: 1.5 * float64(i), Start: 3.25, Finish: 9.75})
		var back refEvent
		_ = json.Unmarshal(raw, &back)
		n += len(raw) + back.Job
	}
	refSink = n
}

// timeRefKernel is one speed sample: how long the kernel took just now.
func timeRefKernel() time.Duration {
	start := time.Now()
	refKernel()
	return time.Since(start)
}

// refTrim is the share of the slowest samples a speedometer leaves out: a
// sample the guest's scheduler interrupted reads milliseconds, and a
// handful of those would weigh as much as a hundred honest ones.
const refTrim = 0.02

// speedometer collects refKernel timings over a window.
type speedometer struct {
	samples []time.Duration
}

func (m *speedometer) add(d time.Duration) { m.samples = append(m.samples, d) }

// sample times the kernel in this process.
func (m *speedometer) sample() { m.add(timeRefKernel()) }

// total is what the samples took together: CPU time the window's
// accounting owes to the benchmark, not to the system under test.
func (m *speedometer) total() time.Duration {
	sum := time.Duration(0)
	for _, d := range m.samples {
		sum += d
	}
	return sum
}

// speed is the host's speed over the window, 1.0 being the reference
// host: refNominal over the mean sample, the slowest refTrim left out.
// The mean, not the median: a window that was slow for a third of its
// length did a third of its work slowly, and the samples are spread over
// the work the same way (one per round, one per request), while the
// median of a two-state host jumps from one state to the other. Without
// samples the speed is 1, which leaves every timing as measured.
func (m *speedometer) speed() float64 {
	s := append([]time.Duration(nil), m.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	s = s[:len(s)-int(refTrim*float64(len(s)))]
	total := time.Duration(0)
	for _, d := range s {
		total += d
	}
	if total <= 0 {
		return 1
	}
	return float64(refNominal) * float64(len(s)) / float64(total)
}

// afterTick normalises a live placement latency. A job first waits for
// the daemon's ticker, which no host speed changes — a share q of the
// jobs wait at most q ticks — and only what follows (the round, the event
// on its way back) is work, which takes as long as the host lets it. So
// the q-quantile is reported as q ticks plus the rest at reference speed.
func afterTick(latencyMS, q float64, tick time.Duration, speed float64) float64 {
	wait := q * ms(tick)
	if latencyMS <= wait {
		return latencyMS
	}
	return wait + (latencyMS-wait)*speed
}
