package benchkit

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"trustgrid/internal/grid"
)

func sampleFile(smoke bool, records ...Record) File {
	return File{
		Date: "2026-07-29", GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64",
		GOMAXPROCS: 1, Smoke: smoke, Records: records,
	}
}

func TestJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	want := sampleFile(false,
		Record{Name: "KernelBuild/batch=50", NsPerOp: 1234.5, AllocsPerOp: 3, BytesPerOp: 100, N: 1000})
	if err := want.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Date != want.Date || len(got.Records) != 1 || got.Records[0] != want.Records[0] {
		t.Fatalf("round trip mangled the file: %+v", got)
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("reading a missing file must error")
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := sampleFile(false,
		Record{Name: "a", NsPerOp: 1000, AllocsPerOp: 10},
		Record{Name: "b", NsPerOp: 1000, AllocsPerOp: 0})
	// Within thresholds: no problems, no advisories.
	cur := sampleFile(false,
		Record{Name: "a", NsPerOp: 1400, AllocsPerOp: 12},
		Record{Name: "b", NsPerOp: 900, AllocsPerOp: 4})
	if ps, as := Compare(base, cur, 1.5, 1.5); len(ps) != 0 || len(as) != 0 {
		t.Fatalf("unexpected output: %v %v", ps, as)
	}
	// ns/op regression past 1.5x: gated when nsThreshold > 0, advisory
	// when disabled (the cross-hardware default).
	cur.Records[0].NsPerOp = 1600
	ps, _ := Compare(base, cur, 1.5, 1.5)
	if len(ps) != 1 || !strings.Contains(ps[0], "ns/op") {
		t.Fatalf("want one gated ns/op problem, got %v", ps)
	}
	ps, as := Compare(base, cur, 0, 1.5)
	if len(ps) != 0 {
		t.Fatalf("disabled ns gate must not fail: %v", ps)
	}
	if len(as) != 1 || !strings.Contains(as[0], "advisory") || !strings.Contains(as[0], "ns/op") {
		t.Fatalf("want one ns/op advisory, got %v", as)
	}
	// allocs/op regression (beyond ratio + absolute slack) gates
	// regardless of the ns setting.
	cur.Records[0].NsPerOp = 1000
	cur.Records[1].AllocsPerOp = 20
	ps, _ = Compare(base, cur, 0, 1.5)
	if len(ps) != 1 || !strings.Contains(ps[0], "allocs/op") {
		t.Fatalf("want one allocs/op problem, got %v", ps)
	}
}

func TestCompareMissingCases(t *testing.T) {
	// A smoke current run may omit non-smoke baseline cases, but a
	// missing smoke case (or an unknown name) must fail loudly.
	base := sampleFile(false,
		Record{Name: "STGASchedule/batch=200", NsPerOp: 1, AllocsPerOp: 1}, // non-smoke
		Record{Name: "KernelBuild/batch=50", NsPerOp: 1, AllocsPerOp: 1},   // smoke
	)
	cur := sampleFile(true) // empty smoke run
	ps, _ := Compare(base, cur, 0, 1.5)
	if len(ps) != 1 || !strings.Contains(ps[0], "KernelBuild/batch=50") {
		t.Fatalf("want exactly the smoke case reported missing, got %v", ps)
	}
	// A full current run must report every missing baseline case.
	cur = sampleFile(false)
	if ps, _ := Compare(base, cur, 0, 1.5); len(ps) != 2 {
		t.Fatalf("want both cases reported missing, got %v", ps)
	}
	// The reverse direction gates too: a current record the baseline has
	// never seen means the suite grew without regenerating the committed
	// file, and the comparison would otherwise pass while covering only
	// the intersection.
	cur = sampleFile(false,
		Record{Name: "STGASchedule/batch=200", NsPerOp: 1, AllocsPerOp: 1},
		Record{Name: "KernelBuild/batch=50", NsPerOp: 1, AllocsPerOp: 1},
		Record{Name: "GreedyMinMin/m=256/batch=200", NsPerOp: 1, AllocsPerOp: 1},
	)
	ps, _ = Compare(base, cur, 0, 1.5)
	if len(ps) != 1 || !strings.Contains(ps[0], "GreedyMinMin/m=256/batch=200") ||
		!strings.Contains(ps[0], "missing from baseline") {
		t.Fatalf("want the new case reported missing from baseline, got %v", ps)
	}
}

func TestFind(t *testing.T) {
	if _, err := Find("KernelBuild/batch=50"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("nope"); err == nil {
		t.Fatal("unknown case must error")
	}
}

// TestSmokeSuiteRuns executes every smoke case under testing.Benchmark
// — the same harness benchsuite -bench-json uses — so a case that
// panics or hangs fails here rather than in CI's benchmark job. Each
// case runs a fixed two iterations: timing them is the CI benchmark
// step's job and benchsuite's, and a full timing pass here would load
// the host under every other package's tests.
func TestSmokeSuiteRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark smoke pass skipped in -short mode")
	}
	prev := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "2x"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", prev)
	f := Run(true, time.Date(2026, 7, 29, 0, 0, 0, 0, time.UTC))
	if f.Date != "2026-07-29" || !f.Smoke {
		t.Fatalf("bad file header: %+v", f)
	}
	want := 0
	for _, c := range Suite() {
		if c.Smoke {
			want++
		}
	}
	if len(f.Records) != want {
		t.Fatalf("smoke run produced %d records, want %d", len(f.Records), want)
	}
	for _, r := range f.Records {
		if r.NsPerOp <= 0 || r.N <= 0 {
			t.Fatalf("degenerate record: %+v", r)
		}
	}
}

// BenchmarkSuite runs the suite's cases as go-test sub-benchmarks, so
// one case can be timed alone with a test binary, e.g.
//
//	go test -run '^$' -bench 'Suite/SnapshotWrite/jobs' -cpu 1 ./internal/benchkit
func BenchmarkSuite(b *testing.B) {
	for _, c := range Suite() {
		b.Run(c.Name, c.F)
	}
}

// TestEngineSteadyStateAllocs pins the engine loop's allocations on
// OnlineEngine/jobs=1000's workload for a whole op — construction,
// 1 000 submissions and the drain. Submit takes its jobs without a
// copy, dispatch reuses the attempts whose events have fired, and a
// round's queue buffer and MCT's ready times are reused, so what is
// left grows with rounds and with the engine's high-water marks, not
// with jobs. The op reads 182 allocations on Go 1.24; the pin is that
// plus a quarter, so a per-round or per-job allocation fails it.
func TestEngineSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	jobs, sites := onlineEngineJobs()
	slab := make([]grid.Job, len(jobs))
	var err error
	allocs := testing.AllocsPerRun(3, func() {
		if e := runOnlineEngine(jobs, slab, sites, 1); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	const pin = 182 * 5 / 4
	if allocs > pin {
		t.Fatalf("an OnlineEngine op allocates %v times, want at most %d", allocs, pin)
	}
	t.Logf("%v allocations per op of %d jobs", allocs, len(jobs))
}

// TestEventStreamPageAllocs pins EventStream/records: a 560-event page
// through the typed client, daemon and client in one process, allocates
// per request, not per event. The client shares each event's tenant
// string with the event before it and takes its frame reader from a
// pool; the daemon encodes the page out of its ring into a pooled
// buffer.
func TestEventStreamPageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	c, stop := eventStreamDaemon(t, true)
	defer stop()
	var err error
	allocs := testing.AllocsPerRun(20, func() {
		if e := readEventPage(c); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 110 {
		t.Fatalf("a %d-event page allocates %v times, want at most 110", eventPage, allocs)
	}
	t.Logf("%v allocations per %d-event page", allocs, eventPage)
}
