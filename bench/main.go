// Command bench is the repository's benchmark: it hosts the trustgrid
// daemon in a child process, drives it over HTTP from this one, and
// reports end-to-end and per-layer metrics under the contract in
// BENCHMARK.json. See README.md in this directory.
//
//	go run ./bench --workload replay-nas-stga --seed 1 --seconds 10 --trace 0
//	go run ./bench                      # all workloads, untraced then traced
//	go run ./bench -quick               # the same at smoke-test size
//	go run ./bench -compare A.jsonl B.jsonl
//	go run ./bench -manifest            # print BENCHMARK.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

func main() {
	if cfg := os.Getenv(childEnv); cfg != "" {
		os.Exit(childMain(cfg))
	}
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	out      string
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run this one workload and end with the result line; empty runs all four, untraced then traced")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs (jobs, churn)")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "length of the measured window")
	traceN := fs.Int("trace", 0, "1: record client spans, run the in-process layer probes and report per-layer metrics; 0: end-to-end metrics")
	fs.BoolVar(&o.quick, "quick", false, "smoke-test sizes: small GA, low rates, one set-up")
	fs.StringVar(&o.out, "out", "", "append each run's metrics to this JSON-lines file (input of -compare)")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare A.jsonl B.jsonl")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *traceN != 0
	switch {
	case *manifest:
		return printManifest(stdout, stderr)
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if o.quick && !flagSet(fs, "seconds") {
		o.seconds = 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	printEnvironment(stdout)
	if o.workload != "" {
		w, err := findWorkload(o.workload)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		res, err := runOne(ctx, *w, o, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return finish(res, o, stdout)
	}
	// The full suite: each workload untraced (the numbers) and traced (the
	// layers), with the difference between the two as tracing overhead.
	code := 0
	for _, w := range workloads {
		plain, traced := o, o
		plain.trace, traced.trace = false, true
		a, err := runOne(ctx, w, plain, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		b, err := runOne(ctx, w, traced, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		printOverhead(stdout, w.name, a, b)
		if a.failed+b.failed > 0 {
			code = 1
		}
	}
	return code
}

func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// runOne generates the inputs, runs one workload end to end (and, when
// traced, the layer probes on the same inputs) and prints the report.
func runOne(ctx context.Context, w workload, o options, stdout io.Writer) (*runResult, error) {
	if o.quick {
		w = w.quick()
	}
	in, err := w.generate(o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	h, err := newHarness(w, o.quick)
	if err != nil {
		return nil, err
	}
	defer h.close()
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	var res *runResult
	if w.live {
		res, err = h.runLive(ctx, in, rec)
	} else {
		res, err = h.runReplay(ctx, in, o.seconds, rec)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w%s", w.name, err, h.childStderr())
	}
	res.info["inputs_sha256"] = fmt.Sprintf("%s (%d jobs generated, %d churn events)", in.digest, in.jobs, len(in.churn))
	if o.trace {
		if err := runProbes(ctx, h, in, res); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", w.name, err)
		}
	}
	printReport(stdout, w, o, res)
	if o.out != "" {
		if err := appendRun(o.out, w.name, o, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints the result line; a run with failed operations or checks
// exits non-zero.
func finish(res *runResult, o options, stdout io.Writer) int {
	defs, vals := endToEnd, res.e2e
	if o.trace {
		defs, vals = perLayer, res.layer
	}
	line := resultLine{Correct: res.failed == 0, Attempted: max(res.attempted, 1), Failed: res.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stdout, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", raw)
	if res.failed > 0 {
		return 1
	}
	return 0
}

func printEnvironment(w io.Writer) {
	fmt.Fprintf(w, "environment: nproc=%d GOMAXPROCS=%d (child %d) %s %s/%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), childProcs(), runtime.Version(), runtime.GOOS, runtime.GOARCH, commitID())
}

func printReport(out io.Writer, w workload, o options, res *runResult) {
	mode := "untraced"
	if o.trace {
		mode = "traced"
	}
	fmt.Fprintf(out, "\n== %s (%s, seed %d, %.0fs window) ==\n", w.name, mode, o.seed, o.seconds)
	for _, k := range slices.Sorted(maps.Keys(res.info)) {
		fmt.Fprintf(out, "  %-18s %s\n", k+":", res.info[k])
	}
	fmt.Fprintf(out, "  end-to-end (host speed %.3f over the window, %.3f over set-up; 1.0 is the reference host, README.md):\n",
		res.layer["host.speed"], res.layer["host.setup_speed"])
	for _, d := range endToEnd {
		note := sampleNote(d.Name, res)
		if raw, ok := res.raw[d.Name]; ok {
			note = fmt.Sprintf("(as measured: %s)", strings.TrimSuffix(fmt.Sprintf("%.4f, %s", raw, note), ", "))
		}
		fmt.Fprintf(out, "    %-28s %14.4f %-7s %s\n", d.Name, res.e2e[d.Name], d.Unit, note)
	}
	if t := res.timings["recover"]; t.n > 0 {
		fmt.Fprintf(out, "    %-28s %14.4f %-7s n=%d (kill -9 → replacement serving; not gated, see README.md)\n",
			"server.restart_s", res.layer["server.restart_s"], "s", t.n)
	}
	fmt.Fprintf(out, "    %-28s %14.4f %-7s (child user+sys CPU per 1000 accepted jobs; not gated, see README.md)\n",
		"sut.cpu_ms_per_kjob", res.layer["sut.cpu_ms_per_kjob"], "ms")
	fmt.Fprintf(out, "    %-28s %14.6f %-7s (%d of %d operations and checks)\n", "failed_frac",
		ratio(float64(res.failed), float64(max(res.attempted, 1))), "ratio", res.failed, res.attempted)
	if o.trace {
		fmt.Fprintln(out, "  per-layer:")
		for _, d := range perLayer {
			fmt.Fprintf(out, "    %-36s %16.4f %s\n", d.Name, res.layer[d.Name], d.Unit)
		}
	}
	for _, f := range res.failures {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
}

// sampleNote annotates a timing with its sample count and the highest
// percentile that sample supports.
func sampleNote(metric string, res *runResult) string {
	var key string
	switch metric {
	case "place_p50_ms", "place_p90_ms":
		key = "place"
	case "ack_p50_ms":
		key = "ack"
	case "setup_s":
		key = "setup"
	default:
		return ""
	}
	t := res.timings[key]
	if t.n == 0 {
		return ""
	}
	return fmt.Sprintf("n=%d, p%g=%.4f", t.n, t.topP, t.topVal)
}

// printOverhead shows what tracing cost: traced minus untraced, per
// end-to-end metric.
func printOverhead(out io.Writer, name string, plain, traced *runResult) {
	fmt.Fprintf(out, "\n  tracing overhead on %s (traced − untraced):\n", name)
	for _, d := range endToEnd {
		a, b := plain.e2e[d.Name], traced.e2e[d.Name]
		fmt.Fprintf(out, "    %-28s %+14.4f %-7s (%+.1f%%)\n", d.Name, b-a, d.Unit, 100*ratio(b-a, a))
	}
}

// runRecord is one line of an -out file.
type runRecord struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Trace    bool               `json:"trace"`
	Failed   int                `json:"failed"`
	Metrics  map[string]float64 `json:"metrics"`
	// Raw holds the end-to-end timings as measured, before they were put
	// at reference host speed; HostSpeed is that speed over the window.
	Raw       map[string]float64 `json:"raw,omitempty"`
	HostSpeed float64            `json:"host_speed,omitempty"`
}

func appendRun(path, name string, o options, res *runResult) error {
	vals := res.e2e
	if o.trace {
		vals = res.layer
	}
	raw, err := json.Marshal(runRecord{Workload: name, Seed: o.seed, Trace: o.trace, Failed: res.failed, Metrics: vals,
		Raw: res.raw, HostSpeed: res.layer["host.speed"]})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commitID names the checkout being measured when it is a git checkout
// (the driver's is not).
func commitID() string {
	raw, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	head := string(raw)
	if len(head) > 5 && head[:5] == "ref: " {
		ref, err := os.ReadFile(".git/" + head[5:len(head)-1])
		if err != nil {
			return "unknown"
		}
		head = string(ref)
	}
	if len(head) >= 12 {
		return head[:12]
	}
	return "unknown"
}
