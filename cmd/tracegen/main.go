// Command tracegen emits a synthetic NAS-like workload trace in
// Standard Workload Format, for inspection or use with external tools;
// with -churn, a deterministic site-churn trace (JSONL) for the
// dynamic-grid mode of trustgridd and the batch simulator; or, with
// -arrivals, a multi-tenant arrival trace (JSONL, the daemon's
// -trace-out format with its v2 tenant column) replayable through the
// manual-mode daemon or the batch simulator.
//
// Usage:
//
//	tracegen [-jobs 16000] [-days 46] [-load 1.15] [-seed 1] [-o FILE]
//	tracegen -churn [-churn-sites 20] [-churn-horizon 500000]
//	         [-churn-mtbf SECONDS] [-churn-outage SECONDS] [-seed 1] [-o FILE]
//	tracegen -arrivals [-jobs 1000] [-arrival-rate 0.008]
//	         [-tenants gold,silver,bronze] [-levels 20]
//	         [-max-workload 300000] [-seed 1] [-o FILE]
//	tracegen -dag [-jobs 800] [-dag-width 48] [-dag-edge-prob 0.3]
//	         [-dag-slack 2] [-dag-mean-speed 55] [-arrival-rate 0.05]
//	         [-levels 20] [-max-workload 300000] [-seed 1] [-o FILE]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"trustgrid/internal/api"
	"trustgrid/internal/dag"
	"trustgrid/internal/grid"
	"trustgrid/internal/rng"
	"trustgrid/internal/trace"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jobs := fs.Int("jobs", 16000, "number of jobs")
	days := fs.Float64("days", 46, "trace span in days")
	load := fs.Float64("load", 1.15, "offered load vs the 128-node machine")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("o", "", "output file (default stdout)")
	churn := fs.Bool("churn", false, "emit a site-churn trace (JSONL) instead of a workload trace")
	churnSites := fs.Int("churn-sites", 20, "platform size the churn trace targets")
	churnHorizon := fs.Float64("churn-horizon", 500000, "virtual seconds of churn to generate")
	churnMTBF := fs.Float64("churn-mtbf", 0, "mean up-time between incidents per site (0 = horizon/2)")
	churnOutage := fs.Float64("churn-outage", 0, "mean crash/drain down-time (0 = horizon/20)")
	arrivals := fs.Bool("arrivals", false, "emit a (multi-tenant) arrival trace (JSONL) instead of a workload trace")
	arrivalRate := fs.Float64("arrival-rate", 0.008, "arrivals: mean arrival rate, jobs per virtual second")
	tenants := fs.String("tenants", "", "arrivals: comma-separated tenant ids assigned round-robin (empty = single-tenant)")
	levels := fs.Int("levels", 20, "arrivals: discrete workload levels (PSA-style)")
	maxWorkload := fs.Float64("max-workload", 300000, "arrivals: workload of the top level")
	dagMode := fs.Bool("dag", false, "emit a layered dependent-job trace (JSONL with depends_on) instead of a workload trace")
	dagWidth := fs.Int("dag-width", 48, "dag: layer width (depth = jobs/width)")
	dagEdgeProb := fs.Float64("dag-edge-prob", 0.3, "dag: per-pair edge probability between adjacent layers")
	dagSlack := fs.Float64("dag-slack", 2, "dag: deadline slack multiplier on the critical path (0 = no deadlines)")
	dagMeanSpeed := fs.Float64("dag-mean-speed", 55, "dag: mean site speed used to stamp deadlines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	modes := 0
	for _, m := range []bool{*churn, *arrivals, *dagMode} {
		if m {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(stderr, "tracegen: -churn, -arrivals and -dag are mutually exclusive")
		return 2
	}

	if *churn {
		return churnMain(*churnSites, *churnHorizon, *churnMTBF, *churnOutage, *seed, *out, stdout, stderr)
	}
	if *arrivals {
		return arrivalsMain(*jobs, *arrivalRate, *tenants, *levels, *maxWorkload, *seed, *out, stdout, stderr)
	}
	if *dagMode {
		// The default -arrival-rate (0.008) suits the independent PSA
		// trace; DAG traces want a dense backlog, so the usage line
		// suggests 0.05. Either works — the edges stay backward-pointing
		// regardless of rate.
		return dagMain(*jobs, *dagWidth, *dagEdgeProb, *arrivalRate, *levels, *maxWorkload,
			*dagSlack, *dagMeanSpeed, *seed, *out, stdout, stderr)
	}

	cfg := trace.DefaultNASConfig()
	cfg.Jobs = *jobs
	cfg.Span = *days * 24 * 3600
	cfg.LoadFactor = *load
	gjobs, err := cfg.Generate(rng.New(*seed))
	if err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}

	w := stdout
	if *out != "" {
		fh, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
		defer fh.Close()
		w = fh
	}
	header := fmt.Sprintf("Synthetic NAS iPSC/860-like trace (trustgrid)\n"+
		"Jobs: %d  SpanDays: %.1f  LoadFactor: %.2f  Seed: %d\n"+
		"MaxNodes: 128", *jobs, *days, *load, *seed)
	if err := trace.WriteSWF(w, header, trace.ToSWF(gjobs)); err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	st := trace.Summarize(gjobs)
	fmt.Fprintf(stderr, "wrote %d jobs; span %.1f days; mean work %.0f node-s; max nodes %d\n",
		st.Jobs, st.Span/86400, st.MeanWork, st.MaxNodes)
	return 0
}

// arrivalsMain generates and writes a deterministic multi-tenant
// arrival trace: Poisson arrivals at the given rate, PSA-style leveled
// workloads, SD uniform on [0.6, 0.9] (Table 1), tenants assigned
// round-robin. The same flags always yield the same JSONL bytes, so a
// generated trace pins a whole replay scenario — feed it to the
// manual-mode daemon or materialize it with api.JobsFromTrace for the
// batch simulator.
func arrivalsMain(jobs int, rate float64, tenantList string, levels int, maxWorkload float64,
	seed uint64, out string, stdout, stderr io.Writer) int {
	if jobs <= 0 || rate <= 0 || levels <= 0 || maxWorkload <= 0 {
		fmt.Fprintln(stderr, "tracegen: -jobs, -arrival-rate, -levels and -max-workload must be positive")
		return 2
	}
	var tenants []string
	if tenantList != "" {
		for _, t := range strings.Split(tenantList, ",") {
			t = strings.TrimSpace(t)
			if err := (&api.TenantSpec{ID: t}).Validate(); err != nil {
				fmt.Fprintln(stderr, "tracegen:", err)
				return 2
			}
			tenants = append(tenants, t)
		}
	}
	r := rng.New(seed).Derive("arrivals")
	step := maxWorkload / float64(levels)
	w := stdout
	if out != "" {
		fh, err := os.Create(out)
		if err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
		defer fh.Close()
		w = fh
	}
	now := 0.0
	for i := 1; i <= jobs; i++ {
		now += r.Exp(rate)
		rec := api.TraceRecord{
			ID:       i,
			Arrival:  now,
			Workload: step * float64(r.Level(levels)),
			Nodes:    1,
			SD:       r.Uniform(0.6, 0.9),
		}
		if len(tenants) > 0 {
			rec.Tenant = tenants[(i-1)%len(tenants)]
		}
		if err := api.WriteTraceRecord(w, rec); err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
	}
	fmt.Fprintf(stderr, "wrote %d arrivals over %.0f virtual seconds for %d tenant(s)\n",
		jobs, now, max(len(tenants), 1))
	return 0
}

// dagMain generates and writes a deterministic layered DAG trace: the
// dag.Generate workload serialized as arrival-trace JSONL with the
// depends_on/deadline columns. Every edge points to an earlier line, so
// the trace passes api.ValidateDAG and replays through the manual-mode
// daemon (parents are accepted before children reference them) as well
// as the batch simulator.
func dagMain(jobs, width int, edgeProb, rate float64, levels int, maxWorkload, slack, meanSpeed float64,
	seed uint64, out string, stdout, stderr io.Writer) int {
	gjobs, err := dag.Generate(rng.New(seed), dag.GenConfig{
		Jobs: jobs, Width: width, EdgeProb: edgeProb, Rate: rate,
		WorkloadStep: maxWorkload / float64(max(levels, 1)), Levels: levels,
		Slack: slack, MeanSpeed: meanSpeed, FirstID: 1,
	})
	if err != nil {
		// Generate only fails on out-of-range parameters — a usage error.
		fmt.Fprintln(stderr, "tracegen:", err)
		return 2
	}
	w := stdout
	if out != "" {
		fh, err := os.Create(out)
		if err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
		defer fh.Close()
		w = fh
	}
	edges := 0
	for _, j := range gjobs {
		edges += len(j.DependsOn)
		if err := api.WriteTraceRecord(w, api.NewTraceRecord(j)); err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
	}
	fmt.Fprintf(stderr, "wrote %d dag jobs (%d edges, depth %d) over %.0f virtual seconds\n",
		len(gjobs), edges, (len(gjobs)+width-1)/width, gjobs[len(gjobs)-1].Arrival)
	return 0
}

// churnMain generates and writes a deterministic churn trace. The same
// (seed, sites, horizon) always yields the same JSONL bytes, so a trace
// checked into an experiment repo pins the whole dynamic scenario.
func churnMain(sites int, horizon, mtbf, outage float64, seed uint64, out string, stdout, stderr io.Writer) int {
	cfg := grid.DefaultChurnConfig(horizon)
	if mtbf > 0 {
		cfg.MTBF = mtbf
	}
	if outage > 0 {
		cfg.Outage = outage
	}
	events, err := cfg.Generate(rng.New(seed).Derive("churn"), sites)
	if err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	w := stdout
	if out != "" {
		fh, err := os.Create(out)
		if err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
		defer fh.Close()
		w = fh
	}
	if err := grid.WriteChurnTrace(w, events); err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	fmt.Fprintf(stderr, "wrote %d churn events for %d sites over %.0f virtual seconds\n",
		len(events), sites, horizon)
	return 0
}
