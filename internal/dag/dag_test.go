package dag

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"trustgrid/internal/grid"
	"trustgrid/internal/rng"
)

func job(id int, workload float64, deps ...int) *grid.Job {
	return &grid.Job{ID: id, Workload: workload, Nodes: 1, SecurityDemand: 0.7, DependsOn: deps}
}

func TestValidateAcceptsEdgeFreeAndWellFormed(t *testing.T) {
	if err := Validate(nil); err != nil {
		t.Fatalf("nil list: %v", err)
	}
	if err := Validate([]*grid.Job{job(1, 10), job(2, 10)}); err != nil {
		t.Fatalf("edge-free: %v", err)
	}
	// Duplicate IDs are tolerated while no edges exist (pre-DAG configs
	// never promised unique IDs)...
	if err := Validate([]*grid.Job{job(7, 10), job(7, 10)}); err != nil {
		t.Fatalf("edge-free duplicate IDs: %v", err)
	}
	diamond := []*grid.Job{job(1, 10), job(2, 10, 1), job(3, 10, 1), job(4, 10, 2, 3)}
	if err := Validate(diamond); err != nil {
		t.Fatalf("diamond: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		jobs []*grid.Job
		want string
	}{
		{"self-edge", []*grid.Job{job(1, 10, 1)}, "depends on itself"},
		{"duplicate edge", []*grid.Job{job(1, 10), job(2, 10, 1, 1)}, "twice"},
		{"dangling", []*grid.Job{job(1, 10, 99)}, "unknown job 99"},
		{"cycle", []*grid.Job{job(1, 10, 2), job(2, 10, 1)}, "cycle"},
		{"long cycle", []*grid.Job{job(1, 10, 3), job(2, 10, 1), job(3, 10, 2)}, "cycle"},
		{"dup ids with edges", []*grid.Job{job(1, 10), job(1, 10), job(2, 10, 1)}, "ambiguous"},
	}
	for _, tc := range cases {
		err := Validate(tc.jobs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestTrackerReleaseFlow(t *testing.T) {
	tr := NewTracker()
	if tr.SawEdges() {
		t.Fatal("fresh tracker claims edges")
	}
	a, b := job(1, 10), job(2, 10, 1)
	c := job(3, 10, 1, 2)
	if !tr.Arrive(a) {
		t.Fatal("independent job blocked")
	}
	if tr.SawEdges() {
		t.Fatal("edge-free arrival flipped SawEdges")
	}
	if tr.Arrive(b) {
		t.Fatal("job 2 ready before parent completed")
	}
	if !tr.SawEdges() {
		t.Fatal("SawEdges false after dependent arrival")
	}
	if tr.Arrive(c) {
		t.Fatal("job 3 ready before parents completed")
	}
	if got := tr.BlockedCount(); got != 2 {
		t.Fatalf("BlockedCount = %d, want 2", got)
	}

	rel := tr.Complete(1)
	if len(rel) != 1 || rel[0].ID != 2 {
		t.Fatalf("completing 1 released %v, want [2]", rel)
	}
	rel = tr.Complete(2)
	if len(rel) != 1 || rel[0].ID != 3 {
		t.Fatalf("completing 2 released %v, want [3]", rel)
	}
	if tr.BlockedCount() != 0 {
		t.Fatalf("blocked pen not empty: %d", tr.BlockedCount())
	}
	// A job whose parents are already done is ready immediately.
	if !tr.Arrive(job(4, 10, 1, 2)) {
		t.Fatal("job with completed parents blocked")
	}
}

func TestTrackerUnknownParentBlocksUntilCompletion(t *testing.T) {
	tr := NewTracker()
	child := job(2, 10, 1)
	if tr.Arrive(child) {
		t.Fatal("child ready though parent never arrived")
	}
	// The parent never Arrives (manual-mode replay delivered the child
	// first); its completion still releases.
	rel := tr.Complete(1)
	if len(rel) != 1 || rel[0].ID != 2 {
		t.Fatalf("released %v, want [2]", rel)
	}
}

func TestTrackerDuplicateDepsTolerated(t *testing.T) {
	tr := NewTracker()
	if tr.Arrive(job(2, 10, 1, 1)) {
		t.Fatal("child ready though parent incomplete")
	}
	rel := tr.Complete(1)
	if len(rel) != 1 || rel[0].ID != 2 {
		t.Fatalf("released %v, want [2] (duplicate edge double-counted)", rel)
	}
}

func TestTrackerReleaseOrderIsArrivalOrder(t *testing.T) {
	tr := NewTracker()
	tr.Arrive(job(1, 10))
	order := []int{9, 4, 7}
	for _, id := range order {
		if tr.Arrive(job(id, 10, 1)) {
			t.Fatalf("job %d ready early", id)
		}
	}
	pen := tr.Blocked()
	for i, id := range order {
		if pen[i].ID != id {
			t.Fatalf("Blocked()[%d] = %d, want arrival order %v", i, pen[i].ID, order)
		}
	}
	rel := tr.Complete(1)
	got := make([]int, len(rel))
	for i, j := range rel {
		got[i] = j.ID
	}
	if !reflect.DeepEqual(got, order) {
		t.Fatalf("release order %v, want arrival order %v", got, order)
	}
}

func TestTrackerSnapshotRestore(t *testing.T) {
	tr := NewTracker()
	tr.Arrive(job(1, 10))
	tr.Complete(1)
	tr.Complete(5) // never arrived, still done
	tr.Arrive(job(2, 10, 3))
	tr.Arrive(job(4, 10, 3, 1))

	done := tr.DoneIDs()
	if !reflect.DeepEqual(done, []int{1, 5}) {
		t.Fatalf("DoneIDs = %v", done)
	}
	blocked := tr.Blocked()
	if len(blocked) != 2 || blocked[0].ID != 2 || blocked[1].ID != 4 {
		t.Fatalf("Blocked = %v", blocked)
	}

	re := NewTracker()
	re.RestoreDone(done)
	if re.SawEdges() {
		t.Fatal("RestoreDone alone must not flip SawEdges (edge-free runs complete jobs too)")
	}
	re.MarkEdges()
	if !re.SawEdges() {
		t.Fatal("MarkEdges did not stick")
	}
	for _, j := range blocked {
		if re.Arrive(j) {
			t.Fatalf("restored job %d not blocked", j.ID)
		}
	}
	rel := re.Complete(3)
	got := make([]int, len(rel))
	for i, j := range rel {
		got[i] = j.ID
	}
	if !reflect.DeepEqual(got, []int{2, 4}) {
		t.Fatalf("post-restore release %v, want [2 4]", got)
	}
}

// TestTrackerDoneIDsAnyCompletionOrder: whatever order jobs complete in —
// reversed, shuffled, with repeats — DoneIDs is the sorted key set of a
// map that saw the same completions, and readiness agrees with it.
func TestTrackerDoneIDsAnyCompletionOrder(t *testing.T) {
	const n = 5000
	reversed := make([]int, n)
	for i := range reversed {
		reversed[i] = n - i
	}
	shuffled := make([]int, 0, n+n/10)
	r := rng.New(7)
	for _, i := range r.Perm(n) {
		shuffled = append(shuffled, 3*i) // gaps: not every ID completes
		if i%10 == 0 {
			shuffled = append(shuffled, 3*r.Intn(n)) // a repeat, or a late newcomer
		}
	}
	for name, order := range map[string][]int{"reverse": reversed, "shuffled": shuffled} {
		t.Run(name, func(t *testing.T) {
			tr := NewTracker()
			oracle := make(map[int]bool)
			for k, id := range order {
				tr.Complete(id)
				oracle[id] = true
				if k%997 == 0 { // a snapshot mid-run folds the late set early
					tr.DoneIDs()
				}
			}
			want := make([]int, 0, len(oracle))
			for id := range oracle {
				want = append(want, id)
			}
			sort.Ints(want)
			if got := tr.DoneIDs(); !reflect.DeepEqual(got, want) {
				t.Fatalf("DoneIDs has %d IDs, want the %d sorted map keys", len(got), len(want))
			}
			for id := -1; id <= 3*n; id++ {
				if ready := tr.Arrive(job(100000+id, 10, id)); ready != oracle[id] {
					t.Fatalf("job depending on %d: ready %v, completed %v", id, ready, oracle[id])
				}
			}
		})
	}
}

func TestBatchRanks(t *testing.T) {
	tr := NewTracker()
	// 1 -> 2 -> 3 chain plus independent 9; 2 and 3 blocked.
	head := job(1, 10)
	tr.Arrive(head)
	tr.Arrive(job(2, 20, 1))
	tr.Arrive(job(3, 40, 2))
	solo := job(9, 15)
	tr.Arrive(solo)

	out := make([]float64, 2)
	tr.BatchRanks([]*grid.Job{head, solo}, 0.5, out)
	// head: 10*0.5 + (20*0.5 + 40*0.5) = 35; solo: 15*0.5 = 7.5
	if math.Abs(out[0]-35) > 1e-12 || math.Abs(out[1]-7.5) > 1e-12 {
		t.Fatalf("ranks = %v, want [35 7.5]", out)
	}
}

func TestBatchRanksCycleDefense(t *testing.T) {
	tr := NewTracker()
	// Forward references via unchecked arrivals create a 1<->2 cycle
	// among blocked jobs; ranks must terminate anyway.
	a := job(1, 10, 2)
	b := job(2, 20, 1)
	tr.Arrive(a)
	tr.Arrive(b)
	out := make([]float64, 1)
	tr.BatchRanks([]*grid.Job{job(3, 5)}, 1, out)
	if out[0] != 5 {
		t.Fatalf("independent rank = %v, want 5", out[0])
	}
	out2 := make([]float64, 2)
	tr.BatchRanks([]*grid.Job{a, b}, 1, out2)
	for i, v := range out2 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("cyclic rank %d = %v", i, v)
		}
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	cfg := GenConfig{
		Jobs: 60, Width: 6, EdgeProb: 0.5, Rate: 2,
		WorkloadStep: 50, Levels: 20, Slack: 3, MeanSpeed: 100, FirstID: 1,
	}
	jobs, err := Generate(rng.New(42), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != cfg.Jobs {
		t.Fatalf("got %d jobs, want %d", len(jobs), cfg.Jobs)
	}
	if err := Validate(jobs); err != nil {
		t.Fatalf("generated workload invalid: %v", err)
	}
	hasEdge := false
	for i, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
		if i > 0 && j.Arrival <= jobs[i-1].Arrival {
			t.Fatalf("arrivals not increasing at %d", i)
		}
		if j.Deadline <= j.Arrival {
			t.Fatalf("job %d deadline %v not past arrival %v", j.ID, j.Deadline, j.Arrival)
		}
		layer := i / cfg.Width
		for _, d := range j.DependsOn {
			hasEdge = true
			p := d - cfg.FirstID
			if p/cfg.Width != layer-1 {
				t.Fatalf("job %d (layer %d) depends on %d (layer %d), not adjacent", j.ID, layer, d, p/cfg.Width)
			}
		}
	}
	if !hasEdge {
		t.Fatal("no edges generated at p=0.5")
	}

	again, err := Generate(rng.New(42), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jobs, again) {
		t.Fatal("same seed produced different workloads")
	}

	cfg.Slack = 0
	free, err := Generate(rng.New(42), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range free {
		if j.Deadline != 0 {
			t.Fatalf("slack 0 stamped deadline %v", j.Deadline)
		}
	}
}

func TestGenerateConfigErrors(t *testing.T) {
	good := GenConfig{Jobs: 4, Width: 2, EdgeProb: 0.5, Rate: 1, WorkloadStep: 10, Levels: 3}
	bad := []func(*GenConfig){
		func(c *GenConfig) { c.Jobs = 0 },
		func(c *GenConfig) { c.Width = 0 },
		func(c *GenConfig) { c.EdgeProb = 1.5 },
		func(c *GenConfig) { c.Rate = 0 },
		func(c *GenConfig) { c.WorkloadStep = 0 },
		func(c *GenConfig) { c.Levels = 0 },
		func(c *GenConfig) { c.Slack = -1 },
		func(c *GenConfig) { c.Slack = 2; c.MeanSpeed = 0 },
	}
	for i, mutate := range bad {
		cfg := good
		mutate(&cfg)
		if _, err := Generate(rng.New(1), cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := Generate(rng.New(1), good); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}
