package sched

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"trustgrid/internal/grid"
	"trustgrid/internal/rng"
)

// queueEngine builds an empty engine on one safe site with Δ=100 whose
// arrivals are recorded as "id@t", in execution order. hook, when set,
// runs inside the arrival's handler, on the engine's own clock.
func queueEngine(t *testing.T, arrivals *[]string, hook func(o *Online, ev EngineEvent)) *Online {
	t.Helper()
	var o *Online
	o, err := NewOnline(RunConfig{
		Sites: safeSites(1), Scheduler: &fifoScheduler{},
		BatchInterval: 100, Rand: rng.New(1),
		OnEvent: func(ev EngineEvent) {
			if ev.Kind != EventArrived {
				return
			}
			*arrivals = append(*arrivals, fmt.Sprintf("%d@%v", ev.Job.ID, ev.Time))
			if hook != nil {
				hook(o, ev)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func submitAt(t *testing.T, o *Online, id int, at float64) {
	t.Helper()
	if err := o.Submit(&grid.Job{ID: id, Arrival: at, Workload: 1, Nodes: 1, SecurityDemand: 0.6}); err != nil {
		t.Fatal(err)
	}
}

func sameList(t *testing.T, got, want []string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("arrivals %v, want %v", got, want)
	}
}

// TestQueueRunsInTimeOrder: events run in time order, whatever the
// order they were scheduled in.
func TestQueueRunsInTimeOrder(t *testing.T) {
	var got []string
	o := queueEngine(t, &got, nil)
	for id, at := range []float64{5, 1, 3, 2, 4} {
		submitAt(t, o, id, at)
	}
	if _, err := o.Drain(); err != nil {
		t.Fatal(err)
	}
	sameList(t, got, []string{"1@1", "3@2", "2@3", "4@4", "0@5"})
}

// TestQueueTiesInSchedulingOrder: events at the same time run in the
// order they were scheduled.
func TestQueueTiesInSchedulingOrder(t *testing.T) {
	var got []string
	o := queueEngine(t, &got, nil)
	for _, id := range []int{4, 0, 3, 1, 2} {
		submitAt(t, o, id, 7)
	}
	if _, err := o.Drain(); err != nil {
		t.Fatal(err)
	}
	sameList(t, got, []string{"4@7", "0@7", "3@7", "1@7", "2@7"})
}

// TestQueueHandlerSchedulesAtNow: a handler may schedule an event at the
// current time, and it runs within the same advance.
func TestQueueHandlerSchedulesAtNow(t *testing.T) {
	var got []string
	o := queueEngine(t, &got, func(o *Online, ev EngineEvent) {
		if ev.Job.ID == 0 {
			o.st.schedule(event{at: o.st.now, kind: evArrival,
				ref: o.st.hold(attempt{job: &grid.Job{ID: 1, Workload: 1, Nodes: 1, SecurityDemand: 0.6}})})
		}
	})
	submitAt(t, o, 0, 5)
	submitAt(t, o, 2, 5)
	if err := o.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}
	sameList(t, got, []string{"0@5", "2@5", "1@5"})
	if o.Now() != 5 {
		t.Fatalf("clock at %v, want 5", o.Now())
	}
}

// mustPanicAt schedules a batch event at t on an engine whose clock is
// at 10 and fails unless schedule panics.
func mustPanicAt(t *testing.T, at float64) {
	t.Helper()
	var got []string
	o := queueEngine(t, &got, nil)
	if err := o.AdvanceTo(10); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("scheduling at t=%v with the clock at 10 did not panic", at)
		}
	}()
	o.st.schedule(event{at: at, kind: evBatch})
}

// TestQueueRejectsPastTime: scheduling before the clock panics instead
// of silently reordering time.
func TestQueueRejectsPastTime(t *testing.T) { mustPanicAt(t, 5) }

// TestQueueRejectsNaNTime: a NaN time has no place in the order.
func TestQueueRejectsNaNTime(t *testing.T) { mustPanicAt(t, math.NaN()) }

// TestQueueFailureSticks: a failure stops the run at once, and every
// later advance or drain returns it without running anything.
func TestQueueFailureSticks(t *testing.T) {
	boom := errors.New("boom")
	var got []string
	o := queueEngine(t, &got, func(o *Online, ev EngineEvent) {
		if ev.Job.ID == 0 {
			o.st.fail(boom)
			o.st.fail(errors.New("later"))
		}
	})
	submitAt(t, o, 0, 1)
	submitAt(t, o, 1, 2)
	if err := o.AdvanceTo(3); !errors.Is(err, boom) {
		t.Fatalf("AdvanceTo = %v, want boom", err)
	}
	if err := o.AdvanceTo(4); !errors.Is(err, boom) {
		t.Fatalf("second AdvanceTo = %v, want boom", err)
	}
	if _, err := o.Drain(); !errors.Is(err, boom) {
		t.Fatalf("Drain = %v, want boom", err)
	}
	sameList(t, got, []string{"0@1"})
}

// TestQueueRunToDeadline: an advance runs the events up to its deadline
// and leaves the clock there; the rest stays queued for the next run.
func TestQueueRunToDeadline(t *testing.T) {
	var got []string
	o := queueEngine(t, &got, nil)
	for id, at := range []float64{1, 2, 3, 10, 20} {
		submitAt(t, o, id, at)
	}
	if err := o.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}
	sameList(t, got, []string{"0@1", "1@2", "2@3"})
	if o.Now() != 5 {
		t.Fatalf("clock at %v, want 5", o.Now())
	}
	if _, err := o.Drain(); err != nil {
		t.Fatal(err)
	}
	sameList(t, got, []string{"0@1", "1@2", "2@3", "3@10", "4@20"})
}

// TestQueueRunToDeadlineEmpty: an advance over an empty queue still
// moves the clock to the deadline.
func TestQueueRunToDeadlineEmpty(t *testing.T) {
	var got []string
	o := queueEngine(t, &got, nil)
	if err := o.AdvanceTo(42); err != nil {
		t.Fatal(err)
	}
	if o.Now() != 42 || len(got) != 0 {
		t.Fatalf("clock at %v with arrivals %v, want 42 and none", o.Now(), got)
	}
}

// TestQueueRunawayGuard: more events than the guard derived from the
// jobs seen stops the run with an error instead of running on, and the
// stop is for good. An empty engine has seen no jobs, so its guard is
// 200·1 + 10 000 events; a flood of empty rounds one past that trips it.
func TestQueueRunawayGuard(t *testing.T) {
	var got []string
	o := queueEngine(t, &got, nil)
	const guard = 10200
	for at := 1; at <= guard+5; at++ {
		o.st.schedule(event{at: float64(at), kind: evBatch})
	}
	_, err := o.Drain()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("exceeded %d events at t=%d", guard, guard+1)) {
		t.Fatalf("Drain = %v, want the runaway guard's error at event %d", err, guard+1)
	}
	if len(o.st.events) != 4 {
		t.Fatalf("%d events left queued, want the 4 past the tripping one", len(o.st.events))
	}
	if err2 := o.AdvanceTo(2 * guard); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("AdvanceTo after the guard = %v, want %v", err2, err)
	}
	if len(o.st.events) != 4 {
		t.Fatalf("a later advance ran events after the guard tripped: %d left", len(o.st.events))
	}
}

// TestQueueOrderingProperty: for any set of random arrival times, a
// drain admits every job once, in sorted time order.
func TestQueueOrderingProperty(t *testing.T) {
	r := rng.New(99)
	check := func(n uint16) bool {
		count := int(n%200) + 1
		var got []float64
		o, err := NewOnline(RunConfig{
			Sites: safeSites(1), Scheduler: &fifoScheduler{},
			BatchInterval: 100, Rand: rng.New(1),
			OnEvent: func(ev EngineEvent) {
				if ev.Kind == EventArrived {
					got = append(got, ev.Time)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := make([]float64, count)
		for i := range ts {
			ts[i] = r.Float64() * 1000
			submitAt(t, o, i, ts[i])
		}
		if _, err := o.Drain(); err != nil {
			t.Fatal(err)
		}
		sort.Float64s(ts)
		return slices.Equal(got, ts)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueHeapStress interleaves 5000 random pushes and pops on the
// heap; every pop must return the (at, seq)-least event still queued,
// and every push must come out exactly once.
func TestQueueHeapStress(t *testing.T) {
	r := rng.New(123)
	var q eventQueue
	var ref []event
	pushed, popped := 0, 0
	pop := func() {
		least := 0
		for i := range ref {
			if ref[i].before(&ref[least]) {
				least = i
			}
		}
		got := q.pop()
		if got.at != ref[least].at || got.seq != ref[least].seq {
			t.Fatalf("pop %d: (at %v, seq %d), want (at %v, seq %d)", popped, got.at, got.seq, ref[least].at, ref[least].seq)
		}
		ref = append(ref[:least], ref[least+1:]...)
		popped++
	}
	for range 5000 {
		if len(q) == 0 || r.Float64() < 0.6 {
			pushed++
			ev := event{at: r.Float64() * 100, seq: uint64(pushed)}
			q.push(ev)
			ref = append(ref, ev)
		} else {
			pop()
		}
	}
	for len(q) > 0 {
		pop()
	}
	if popped != pushed || len(ref) != 0 {
		t.Fatalf("popped %d of %d pushed, %d left in the reference", popped, pushed, len(ref))
	}
}

// FuzzEventQueue holds the heap to sort: each input byte either pushes
// an event (at from the byte's upper bits, so ties are common; seq in
// push order, as schedule hands it out) or pops one, and every pop must
// return the (at, seq)-least event still queued.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{9, 5, 9, 1, 0, 0, 0})
	f.Add([]byte{255, 3, 129, 7, 7, 2, 65, 0, 1, 0, 0, 0})
	deep, x := []byte{}, byte(7)
	for range 40 {
		x = x*73 + 41
		deep = append(deep, x|1) // 40 pushes in scrambled order
	}
	f.Add(append(deep, make([]byte, 40)...))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q eventQueue
		var ref []event
		seq := uint64(0)
		pop := func() {
			sort.Slice(ref, func(i, k int) bool {
				if ref[i].at != ref[k].at {
					return ref[i].at < ref[k].at
				}
				return ref[i].seq < ref[k].seq
			})
			got := q.pop()
			if got.at != ref[0].at || got.seq != ref[0].seq {
				t.Fatalf("pop (at %v, seq %d), want (at %v, seq %d)", got.at, got.seq, ref[0].at, ref[0].seq)
			}
			ref = ref[1:]
		}
		for _, b := range ops {
			if b&1 == 0 && len(ref) > 0 {
				pop()
				continue
			}
			seq++
			ev := event{at: float64(b >> 3), seq: seq}
			q.push(ev)
			ref = append(ref, ev)
		}
		for len(ref) > 0 {
			pop()
		}
		if len(q) != 0 {
			t.Fatalf("%d events left after every push was popped", len(q))
		}
	})
}
