// Command benchsuite regenerates every table and figure of the paper,
// and doubles as the benchmark-trajectory harness.
//
// Usage:
//
//	benchsuite [-exp all|fig5|fig7a|fig7b|fig8|fig9|fig10|table2|ablations]
//	           [-seed N] [-reps N] [-out DIR] [-scale small|paper]
//	           [-workers N] [-gaworkers N]
//	benchsuite -bench-json FILE [-bench-smoke]
//	           [-bench-compare BASELINE] [-bench-threshold 1.5]
//	           [-bench-ns-threshold 0]
//
// -workers fans independent sweep points out across goroutines and
// -gaworkers parallelizes GA fitness evaluation inside each point; both
// default to all cores and neither changes any reported number (every
// point derives its seeds from the point index alone).
//
// Results are printed to stdout and, when -out is given, written as CSV
// files to the directory.
//
// -bench-json switches to the kernel-path benchmark suite
// (internal/benchkit): it runs the cases under testing.Benchmark,
// writes ns/op + allocs/op as JSON to FILE (the repository's
// BENCH_<date>.json trajectory format), and — when -bench-compare
// names a committed baseline — fails with exit 1 on gated regressions.
// allocs/op is gated at -bench-threshold (default 1.5x, generous on
// purpose; allocation counts are hardware-independent so this cannot
// flake across machines). ns/op is advisory by default and only gates
// when -bench-ns-threshold > 0, for same-hardware comparisons.
// -bench-smoke restricts to the quick subset CI runs per PR.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"trustgrid/internal/benchkit"
	"trustgrid/internal/experiments"
)

// knownExps guards -exp: a typo must fail loudly, not silently run
// nothing.
var knownExps = map[string]bool{
	"all": true, "fig5": true, "fig7a": true, "fig7b": true, "fig8": true,
	"fig9": true, "fig10": true, "table2": true, "overhead": true,
	"ablations": true, "churn": true, "dagstudy": true,
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run (all, fig5, fig7a, fig7b, fig8, fig9, fig10, table2, overhead, ablations, churn, dagstudy)")
	seed := fs.Uint64("seed", 1, "base random seed")
	reps := fs.Int("reps", 1, "replications per configuration")
	out := fs.String("out", "", "directory for CSV output (optional)")
	scale := fs.String("scale", "paper", "paper (Table 1 sizes) or small (quick smoke)")
	workers := fs.Int("workers", 0, "concurrent sweep points per experiment (0 = all cores, 1 = serial)")
	gaWorkers := fs.Int("gaworkers", 0, "GA fitness-evaluation goroutines per sweep point (0 = auto: cores not already used by -workers; 1 = serial); results are identical at any setting")
	benchJSON := fs.String("bench-json", "", "run the kernel-path benchmark suite and write ns/op + allocs/op JSON to FILE (skips the experiments)")
	benchSmoke := fs.Bool("bench-smoke", false, "restrict -bench-json to the quick smoke subset CI runs per PR")
	benchCompare := fs.String("bench-compare", "", "baseline BENCH_<date>.json to compare the -bench-json run against; regressions past the thresholds exit 1")
	benchThreshold := fs.Float64("bench-threshold", 1.5, "multiplicative allocs/op regression threshold for -bench-compare (hardware-independent, so safe to gate on)")
	benchNsThreshold := fs.Float64("bench-ns-threshold", 0, "multiplicative ns/op regression threshold for -bench-compare; 0 (default) makes wall-time differences advisory-only, since committed baselines usually come from different hardware")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *benchCompare != "" && *benchJSON == "" {
		fmt.Fprintln(stderr, "benchsuite: -bench-compare requires -bench-json")
		return 2
	}
	if *benchJSON != "" {
		return runBenchJSON(stdout, stderr, *benchJSON, *benchSmoke, *benchCompare, *benchNsThreshold, *benchThreshold)
	}
	if !knownExps[*exp] {
		fmt.Fprintf(stderr, "benchsuite: unknown experiment %q\n", *exp)
		return 2
	}

	setup := experiments.DefaultSetup()
	switch *scale {
	case "paper":
	case "small":
		setup = experiments.TestSetup()
	default:
		fmt.Fprintf(stderr, "benchsuite: unknown scale %q\n", *scale)
		return 2
	}
	setup.Seed = *seed
	setup.Reps = *reps
	setup.Workers = *workers
	setup.GAWorkers = *gaWorkers

	failed := false
	run := func(name string, fn func() (render string, csv string, err error)) {
		if failed || (*exp != "all" && *exp != name) {
			return
		}
		start := time.Now()
		render, csv, err := fn()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
			failed = true
			return
		}
		fmt.Fprintf(stdout, "=== %s (%.1fs) ===\n%s\n", name, time.Since(start).Seconds(), render)
		if *out != "" && csv != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fmt.Fprintln(stderr, err)
				failed = true
				return
			}
			path := filepath.Join(*out, name+".csv")
			if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
				fmt.Fprintln(stderr, err)
				failed = true
				return
			}
		}
	}

	var nasCache *experiments.NASResult
	nas := func() (*experiments.NASResult, error) {
		if nasCache != nil {
			return nasCache, nil
		}
		r, err := experiments.RunNAS(setup)
		nasCache = r
		return r, err
	}

	run("fig7a", func() (string, string, error) {
		r, err := experiments.RunFig7a(setup)
		if err != nil {
			return "", "", err
		}
		return r.Render(), r.CSV(), nil
	})
	run("fig7b", func() (string, string, error) {
		r, err := experiments.RunFig7b(setup, nil)
		if err != nil {
			return "", "", err
		}
		return r.Render(), r.CSV(), nil
	})
	run("fig5", func() (string, string, error) {
		r, err := experiments.RunFig5(setup)
		if err != nil {
			return "", "", err
		}
		return r.Render(), "", nil
	})
	run("fig8", func() (string, string, error) {
		r, err := nas()
		if err != nil {
			return "", "", err
		}
		return r.Render(), r.CSV(), nil
	})
	run("fig9", func() (string, string, error) {
		r, err := nas()
		if err != nil {
			return "", "", err
		}
		return r.RenderFig9(), "", nil
	})
	run("table2", func() (string, string, error) {
		r, err := nas()
		if err != nil {
			return "", "", err
		}
		return r.RenderTable2(), "", nil
	})
	run("fig10", func() (string, string, error) {
		r, err := experiments.RunFig10(setup, nil)
		if err != nil {
			return "", "", err
		}
		return r.Render(), r.CSV(), nil
	})
	run("overhead", func() (string, string, error) {
		r, err := experiments.RunOverhead(setup)
		if err != nil {
			return "", "", err
		}
		return r.Render(), "", nil
	})
	run("churn", func() (string, string, error) {
		r, err := experiments.RunChurnStudy(setup)
		if err != nil {
			return "", "", err
		}
		return r.Render(), r.CSV(), nil
	})
	run("dagstudy", func() (string, string, error) {
		r, err := experiments.RunDAGStudy(setup)
		if err != nil {
			return "", "", err
		}
		return r.Render(), r.CSV(), nil
	})
	run("ablations", func() (string, string, error) {
		var b strings.Builder
		for _, ab := range experiments.AllAblations {
			r, err := ab.Run(setup)
			if err != nil {
				return "", "", err
			}
			b.WriteString(r.Render())
			b.WriteByte('\n')
		}
		return b.String(), "", nil
	})
	if failed {
		return 1
	}
	return 0
}

// runBenchJSON runs the benchkit suite, writes the trajectory point,
// and optionally gates against a committed baseline.
func runBenchJSON(stdout, stderr io.Writer, path string, smoke bool, comparePath string, nsThreshold, allocThreshold float64) int {
	var baseline benchkit.File
	if comparePath != "" {
		// Read the baseline before burning minutes on the suite: a bad
		// path should fail immediately.
		var err error
		baseline, err = benchkit.ReadFile(comparePath)
		if err != nil {
			fmt.Fprintln(stderr, "benchsuite:", err)
			return 1
		}
	}
	f := benchkit.Run(smoke, time.Now())
	for _, r := range f.Records {
		fmt.Fprintf(stdout, "%-36s %14.0f ns/op %10d B/op %8d allocs/op\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	if err := f.Write(path); err != nil {
		fmt.Fprintln(stderr, "benchsuite:", err)
		return 1
	}
	fmt.Fprintf(stdout, "benchsuite: wrote %d benchmark records to %s\n", len(f.Records), path)
	if comparePath == "" {
		return 0
	}
	problems, advisories := benchkit.Compare(baseline, f, nsThreshold, allocThreshold)
	for _, a := range advisories {
		fmt.Fprintln(stdout, "benchsuite:", a)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(stderr, "benchsuite: regression:", p)
		}
		return 1
	}
	fmt.Fprintf(stdout, "benchsuite: no gated regressions vs %s\n", comparePath)
	return 0
}
