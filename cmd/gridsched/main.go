// Command gridsched runs one trusted-grid scheduling simulation and
// prints the paper's metrics.
//
// Usage:
//
//	gridsched [-workload nas|psa] [-jobs N] [-algo NAME] [-f 0.5]
//	          [-seed N] [-batch SECONDS] [-lambda 3] [-swf FILE] [-v]
//
// Algorithms: minmin, sufferage, mct, met, olb, random, stga, coldga.
// Modes are chosen via -mode secure|risky|frisky (with -f for frisky).
// With -swf, jobs are read from a Standard Workload Format trace instead
// of the synthetic NAS generator (the 12-site NAS platform is kept).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"trustgrid/internal/experiments"
	"trustgrid/internal/grid"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
	"trustgrid/internal/stats"
	"trustgrid/internal/trace"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gridsched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "psa", "workload family: nas or psa")
	jobs := fs.Int("jobs", 1000, "number of jobs (psa) or NAS trace size")
	algo := fs.String("algo", "stga", "minmin, sufferage, mct, met, olb, random, stga, coldga")
	mode := fs.String("mode", "frisky", "risk mode for heuristics: secure, risky, frisky")
	f := fs.Float64("f", 0.5, "f-risky threshold")
	seed := fs.Uint64("seed", 1, "random seed")
	batch := fs.Float64("batch", 0, "scheduling period Δ seconds (0 = workload default)")
	lambda := fs.Float64("lambda", grid.DefaultLambda, "failure-law coefficient λ")
	swf := fs.String("swf", "", "replay an SWF trace file on the NAS platform")
	verbose := fs.Bool("v", false, "print per-site utilization")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if err := run(stdout, *workload, *jobs, *algo, *mode, *f, *seed, *batch, *lambda, *swf, *verbose); err != nil {
		fmt.Fprintln(stderr, "gridsched:", err)
		return 1
	}
	return 0
}

func run(stdout io.Writer, workload string, jobs int, algo, mode string, f float64,
	seed uint64, batch, lambda float64, swf string, verbose bool) error {

	setup := experiments.DefaultSetup()
	setup.Seed = seed
	setup.Lambda = lambda
	setup.F = f

	var w *experiments.Workload
	var err error
	switch workload {
	case "nas":
		setup.NASJobs = jobs
		w, err = setup.NASWorkload(seed)
	case "psa":
		w, err = setup.PSAWorkload(seed, jobs)
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return err
	}
	if swf != "" {
		fh, err := os.Open(swf)
		if err != nil {
			return err
		}
		defer fh.Close()
		recs, err := trace.ParseSWF(fh)
		if err != nil {
			return err
		}
		sdRng := rng.New(seed).Derive("swf/sd")
		w.Jobs = trace.JobsFromSWF(recs, 0.5, func(int) float64 { return sdRng.Uniform(0.6, 0.9) })
		fmt.Fprintf(stdout, "replaying %d jobs from %s\n", len(w.Jobs), swf)
	}
	if batch > 0 {
		w.Batch = batch
	}

	policy, err := setup.PolicyByMode(mode)
	if err != nil {
		return err
	}

	r := rng.New(seed ^ 0xfeedface)
	scheduler, err := setup.SchedulerByName(algo, policy, r, w.Training, w.Sites)
	if err != nil {
		return fmt.Errorf("unknown algorithm %q", algo)
	}

	res, err := sched.Run(sched.RunConfig{
		Jobs: w.Jobs, Sites: w.Sites, Scheduler: scheduler,
		BatchInterval: w.Batch, Security: setup.Model(),
		Rand: r.Derive("engine"),
	})
	if err != nil {
		return err
	}

	s := res.Summary
	fmt.Fprintf(stdout, "algorithm:        %s\n", scheduler.Name())
	fmt.Fprintf(stdout, "workload:         %s (%d jobs, %d sites, Δ=%.0fs)\n",
		w.Name, len(w.Jobs), len(w.Sites), w.Batch)
	fmt.Fprintf(stdout, "makespan:         %s\n", stats.HumanSeconds(s.Makespan))
	fmt.Fprintf(stdout, "avg response:     %s\n", stats.HumanSeconds(s.AvgResponse))
	fmt.Fprintf(stdout, "slowdown ratio:   %.2f\n", s.Slowdown)
	fmt.Fprintf(stdout, "risk-taking jobs: %d\n", s.NRisk)
	fmt.Fprintf(stdout, "failed jobs:      %d\n", s.NFail)
	fmt.Fprintf(stdout, "mean utilization: %.1f%% (%d idle sites)\n", 100*s.MeanUtilization, s.IdleSites)
	fmt.Fprintf(stdout, "batches:          %d, simulated events: %d\n", res.Batches, res.Events)
	if verbose {
		for i, u := range s.SiteUtilization {
			fmt.Fprintf(stdout, "  site %2d (speed %3.0f, SL %.2f): %5.1f%%\n",
				i+1, w.Sites[i].Speed, w.Sites[i].SecurityLevel, 100*u)
		}
	}
	return nil
}
