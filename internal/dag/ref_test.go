package dag

import (
	"maps"
	"math"
	"slices"
	"testing"

	"trustgrid/internal/grid"
	"trustgrid/internal/idset"
	"trustgrid/internal/rng"
)

// refTracker is a frozen copy of Tracker as it was when it kept its own
// retention bookkeeping: the handed IDs above the horizon in an
// ascending queue plus a min-heap for the ones handed out of order, a
// separate done set dropped in bulk once it doubled, and the horizon
// advanced only when the smallest handed ID completed.
// FuzzTrackerMatchesReference holds Tracker to it answer for answer:
// every ready decision, release list, DoneIDs and Horizon. Keep this in
// sync with nothing: it is the oracle.
type refTracker struct {
	done     idset.Map[struct{}]
	blocked  map[int]*grid.Job
	unmet    map[int]int
	children map[int][]int

	horizon   int
	live      []int
	liveHeap  []int
	late      map[int]int
	maxHanded int
	dropAt    int
}

func newRefTracker() *refTracker {
	return &refTracker{
		blocked:   make(map[int]*grid.Job),
		unmet:     make(map[int]int),
		children:  make(map[int][]int),
		horizon:   math.MinInt,
		late:      make(map[int]int),
		maxHanded: math.MinInt,
	}
}

func (t *refTracker) Hand(id int) {
	if id <= t.horizon {
		t.late[id]++
		return
	}
	if n := len(t.live); n == 0 || id >= t.live[n-1] {
		t.live = append(t.live, id)
	} else {
		t.pushHeap(id)
	}
	t.maxHanded = max(t.maxHanded, id)
}

func (t *refTracker) Horizon() (int, bool) { return t.horizon, t.horizon != math.MinInt }

func (t *refTracker) isDone(id int) bool {
	if id <= t.horizon {
		return t.late[id] == 0
	}
	return t.done.Has(id)
}

func (t *refTracker) Arrive(j *grid.Job) bool {
	unmet := 0
	for i, d := range j.DependsOn {
		dup := false
		for _, prev := range j.DependsOn[:i] {
			if prev == d {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if !t.isDone(d) {
			unmet++
			t.children[d] = append(t.children[d], j.ID)
		}
	}
	if unmet == 0 {
		return true
	}
	t.blocked[j.ID] = j
	t.unmet[j.ID] = unmet
	return false
}

func (t *refTracker) Complete(id int) []*grid.Job {
	if id <= t.horizon {
		if n := t.late[id]; n > 1 {
			t.late[id] = n - 1
		} else {
			delete(t.late, id)
		}
	} else {
		t.done.Put(id, struct{}{})
		if m, ok := t.minLive(); ok && m == id {
			t.advance()
		}
	}
	succ := t.children[id]
	if succ == nil {
		return nil
	}
	delete(t.children, id)
	var released []*grid.Job
	for _, c := range succ {
		if t.unmet[c]--; t.unmet[c] == 0 {
			released = append(released, t.blocked[c])
			delete(t.blocked, c)
			delete(t.unmet, c)
		}
	}
	return released
}

func (t *refTracker) advance() {
	for {
		m, ok := t.minLive()
		if !ok || !t.done.Has(m) {
			break
		}
		if len(t.live) > 0 && t.live[0] == m {
			t.live = t.live[1:]
		} else {
			t.popHeap()
		}
	}
	h := t.maxHanded
	if m, ok := t.minLive(); ok {
		h = m - 1
	}
	if h > t.horizon {
		t.horizon = h
		if t.done.Len() >= t.dropAt {
			t.done.DropThrough(h)
			t.dropAt = 2*t.done.Len() + 64
		}
	}
}

func (t *refTracker) minLive() (int, bool) {
	switch {
	case len(t.live) == 0 && len(t.liveHeap) == 0:
		return 0, false
	case len(t.liveHeap) == 0:
		return t.live[0], true
	case len(t.live) == 0:
		return t.liveHeap[0], true
	}
	return min(t.live[0], t.liveHeap[0]), true
}

func (t *refTracker) pushHeap(id int) {
	t.liveHeap = append(t.liveHeap, id)
	for i := len(t.liveHeap) - 1; i > 0; {
		p := (i - 1) / 2
		if t.liveHeap[p] <= t.liveHeap[i] {
			break
		}
		t.liveHeap[p], t.liveHeap[i] = t.liveHeap[i], t.liveHeap[p]
		i = p
	}
}

func (t *refTracker) popHeap() {
	h := t.liveHeap
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	t.liveHeap = h
}

func (t *refTracker) DoneIDs() []int {
	if t.horizon != math.MinInt {
		t.done.DropThrough(t.horizon)
	}
	ids, _ := t.done.Columns()
	return ids
}

func (t *refTracker) RestoreDone(ids []int) {
	for _, id := range ids {
		t.done.Put(id, struct{}{})
		t.maxHanded = max(t.maxHanded, id)
	}
}

func (t *refTracker) RestoreHorizon(h int) {
	t.horizon = h
	t.maxHanded = max(t.maxHanded, h)
}

// FuzzTrackerMatchesReference drives Tracker and refTracker through the
// same arbitrary sequence of the calls an engine makes: Hand, Arrive
// with 0–3 dependencies (duplicates common), Complete, and a restore at
// a fuzzed cut — DoneIDs, Horizon, RestoreDone, RestoreHorizon, the IDs
// still in flight handed back, the blocked pen re-Arrived in arrival
// order. A handed ID completes only after its Hand, and any ID may
// complete without one (as a test or a probe completes jobs it never
// handed); an ID is not handed after it completed. After every step the
// ready answers, release lists, DoneIDs and Horizon must be the
// reference's.
func FuzzTrackerMatchesReference(f *testing.F) {
	f.Add([]byte{0, 5, 0, 6, 2, 6, 2, 5, 0, 9, 1, 7, 9, 3, 0, 2, 9})
	f.Add([]byte{0, 30, 0, 10, 0, 20, 2, 20, 2, 10, 2, 25, 0, 26, 3, 2, 30, 2, 26})
	for seed := uint64(1); seed <= 8; seed++ {
		r := rng.New(seed)
		ops := make([]byte, 400)
		for i := range ops {
			ops[i] = byte(r.Uint64())
		}
		f.Add(ops)
	}
	f.Fuzz(checkTrackerMatchesReference)
}

func checkTrackerMatchesReference(t *testing.T, ops []byte) {
	tr, ref := NewTracker(), newRefTracker()
	var (
		handed    []int            // every Hand, in order
		inFlight  = map[int]int{}  // handed minus completed, per ID
		completed = map[int]bool{} // IDs completed at least once
		pen       []*grid.Job      // blocked jobs, arrival order
	)
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b%40) - 4
	}
	ids := func(js []*grid.Job) []int {
		out := make([]int, len(js))
		for i, j := range js {
			out[i] = j.ID
		}
		return out
	}
	arrive := func(j *grid.Job) bool {
		got, want := tr.Arrive(j), ref.Arrive(j)
		if got != want {
			t.Fatalf("Arrive(%d, deps %v): ready %v, reference %v", j.ID, j.DependsOn, got, want)
		}
		if !got {
			pen = append(pen, j)
		}
		return got
	}
	for step := 0; len(ops) > 0; step++ {
		op := ops[0]
		ops = ops[1:]
		switch op % 4 {
		case 0:
			if id := next(); !completed[id] {
				tr.Hand(id)
				ref.Hand(id)
				handed = append(handed, id)
				inFlight[id]++
			}
		case 1:
			j := &grid.Job{ID: next()}
			for range int(op>>2) % 4 {
				j.DependsOn = append(j.DependsOn, next())
			}
			if !slices.ContainsFunc(pen, func(b *grid.Job) bool { return b.ID == j.ID }) {
				arrive(j)
			}
		case 2:
			id := next()
			got, want := ids(tr.Complete(id)), ids(ref.Complete(id))
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: Complete(%d) released %v, reference %v", step, id, got, want)
			}
			pen = slices.DeleteFunc(pen, func(b *grid.Job) bool { return slices.Contains(got, b.ID) })
			completed[id] = true
			if inFlight[id] > 0 {
				inFlight[id]--
			}
		case 3:
			h, ok := tr.Horizon()
			done := tr.DoneIDs()
			tr, ref = NewTracker(), newRefTracker()
			tr.RestoreDone(done)
			ref.RestoreDone(done)
			if ok {
				tr.RestoreHorizon(h)
				ref.RestoreHorizon(h)
			}
			left := maps.Clone(inFlight)
			for _, id := range handed {
				if left[id] > 0 {
					left[id]--
					tr.Hand(id)
					ref.Hand(id)
				}
			}
			blocked := pen
			pen = nil
			for _, j := range blocked {
				arrive(j)
			}
		}
		gh, gok := tr.Horizon()
		wh, wok := ref.Horizon()
		if gh != wh || gok != wok {
			t.Fatalf("step %d: Horizon() = %d, %v; reference %d, %v", step, gh, gok, wh, wok)
		}
		if got, want := tr.DoneIDs(), ref.DoneIDs(); !slices.Equal(got, want) {
			t.Fatalf("step %d: DoneIDs() = %v, reference %v", step, got, want)
		}
		if got, want := ids(tr.Blocked()), ids(pen); !slices.Equal(got, want) {
			t.Fatalf("step %d: Blocked() = %v, want the pen in arrival order %v", step, got, want)
		}
	}
}
