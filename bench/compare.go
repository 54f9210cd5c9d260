package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// Verdicts of -compare, one per (end-to-end metric, workload) pair.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "WORSE"
	verdictUnresolved = "unresolved"
)

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) does (the driver's rule): the
// i-th cut sits at position i·(n+1)/4 of the sorted sample, interpolated.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		pos := float64(i*(n+1)) / 4 // 1-based
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return cut(1), cut(2), cut(3)
}

// spreadOf is the distance between the quartiles as a share of the median.
func spreadOf(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, q2)
}

// pairWins counts, over the runs paired by position (the i-th run of a
// with the i-th of b: same seed, run back to back), how often the change
// read better; ties count for neither side.
func pairWins(d metricDef, a, b []float64) (wins, pairs int) {
	pairs = min(len(a), len(b))
	for i := range pairs {
		if (d.Better == "higher" && b[i] > a[i]) || (d.Better != "higher" && b[i] < a[i]) {
			wins++
		}
	}
	return wins, pairs
}

// judge compares the runs of a parent (a) and a change (b) on one metric.
// Where either side's own spread is wider than the bound the pair is
// unresolved, unless every run of the change beats every run of the
// parent. Otherwise the change is worse when its median loses more than
// the bound, and better only when it wins at least nine tenths of the
// paired runs and its median gains more than the parent's own spread.
// The two runs of a pair share the host's phase, so a difference that is
// only noise wins about half of them; medians alone certified two sets of
// the same code, taken a quarter of an hour apart, as a 28 % gain.
func judge(d metricDef, a, b []float64) (verdict string, loss float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	loss = ratio(mb-ma, ma) // share of the parent's median lost; negative = gained
	clean := slices.Max(b) < slices.Min(a)
	if d.Better == "higher" {
		loss = -loss
		clean = slices.Min(b) > slices.Max(a)
	}
	wins, pairs := pairWins(d, a, b)
	switch {
	case max(spreadOf(a), spreadOf(b)) > d.Bound && !clean:
		return verdictUnresolved, loss
	case loss > d.Bound:
		return verdictWorse, loss
	case 10*wins >= 9*pairs && -loss > spreadOf(a):
		return verdictBetter, loss
	default:
		return verdictWithin, loss
	}
}

// loadRuns reads an -out file into workload → metric → values, keeping
// the untraced runs: end-to-end numbers always come from those.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if rec.Trace {
			continue
		}
		if rec.Failed > 0 {
			return nil, fmt.Errorf("%s line %d: run of %s (seed %d) had %d failed operations", path, line, rec.Workload, rec.Seed, rec.Failed)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], v)
		}
	}
	return out, sc.Err()
}

// compareFiles applies the benchmark's bounds to two sets of runs (A the
// parent, B the change), one table per workload, one row per metric. The
// two files list the same seeds in the same order, and the runs were
// taken in pairs, alternating which side went first. It exits 1 when any
// pair is worse.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadRuns(pathA)
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = loadRuns(pathB); err == nil {
			return compareRuns(a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compareRuns(a, b map[string]map[string][]float64, out io.Writer) int {
	code := 0
	for _, w := range workloads {
		if a[w.name] == nil || b[w.name] == nil {
			continue
		}
		fmt.Fprintf(out, "\n%s\n  %-18s %12s %12s %8s %8s %8s %7s %7s  %s\n", w.name,
			"metric", "median A", "median B", "loss", "spread A", "spread B", "bound", "B wins", "verdict")
		for _, d := range endToEnd {
			va, vb := a[w.name][d.Name], b[w.name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, loss := judge(d, va, vb)
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			wins, pairs := pairWins(d, va, vb)
			fmt.Fprintf(out, "  %-18s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %6.0f%% %7s  %s (n=%d,%d)\n", d.Name, ma, mb,
				100*loss, 100*spreadOf(va), 100*spreadOf(vb), 100*d.Bound, fmt.Sprintf("%d/%d", wins, pairs), verdict, len(va), len(vb))
			if verdict == verdictWorse {
				code = 1
			}
		}
	}
	return code
}
