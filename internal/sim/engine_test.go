package sim

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"trustgrid/internal/rng"
)

func TestRunExecutesInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []float64
	record := func(e *Engine) { order = append(order, e.Now()) }
	for _, at := range []float64{5, 1, 3, 2, 4} {
		e.Schedule(at, EventFunc(record))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.Float64sAreSorted(order) {
		t.Fatalf("events out of order: %v", order)
	}
	if len(order) != 5 {
		t.Fatalf("executed %d events, want 5", len(order))
	}
}

func TestTiesBrokenByInsertionOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(7.0, EventFunc(func(*Engine) { order = append(order, i) }))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order violated: %v", order)
		}
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var step func(e *Engine)
	step = func(e *Engine) {
		count++
		if count < 100 {
			e.Schedule(e.Now()+1, EventFunc(step))
		}
	}
	e.Schedule(0, EventFunc(step))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if e.Now() != 99 {
		t.Fatalf("clock = %v, want 99", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, EventFunc(func(e *Engine) {
		defer func() {
			if r := recover(); r == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		e.Schedule(5, EventFunc(func(*Engine) {}))
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NaN time should panic")
		}
	}()
	NewEngine().Schedule(math.NaN(), EventFunc(func(*Engine) {}))
}

func TestFail(t *testing.T) {
	e := NewEngine()
	boom := errors.New("boom")
	e.Schedule(1, EventFunc(func(e *Engine) { e.Fail(boom) }))
	e.Schedule(2, EventFunc(func(*Engine) { t.Error("event after Fail executed") }))
	if err := e.Run(); !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want boom", err)
	}
}

func TestMaxEvents(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 50
	var step func(e *Engine)
	step = func(e *Engine) { e.Schedule(e.Now()+1, EventFunc(step)) }
	e.Schedule(0, EventFunc(step))
	if err := e.Run(); err == nil {
		t.Fatal("expected MaxEvents error")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 10, 20} {
		e.Schedule(at, EventFunc(func(e *Engine) { fired = append(fired, e.Now()) }))
	}
	if err := e.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %v, want 3 events", fired)
	}
	if e.Now() != 5 {
		t.Fatalf("clock = %v, want 5", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	// Resume to completion.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 5 {
		t.Fatalf("after resume fired %v, want 5 events", fired)
	}
}

func TestRunUntilEmptyQueueAdvancesClock(t *testing.T) {
	e := NewEngine()
	if err := e.RunUntil(42); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 42 {
		t.Fatalf("clock = %v, want 42", e.Now())
	}
}

// Property: for any random set of timestamps, Run visits them in sorted
// order and executes exactly len(ts) events.
func TestQueueOrderingProperty(t *testing.T) {
	r := rng.New(99)
	check := func(n uint16) bool {
		count := int(n%200) + 1
		e := NewEngine()
		ts := make([]float64, count)
		var got []float64
		for i := range ts {
			ts[i] = r.Float64() * 1000
			e.Schedule(ts[i], EventFunc(func(e *Engine) { got = append(got, e.Now()) }))
		}
		if err := e.Run(); err != nil {
			return false
		}
		sort.Float64s(ts)
		if len(got) != len(ts) {
			return false
		}
		for i := range ts {
			if got[i] != ts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapStress(t *testing.T) {
	// Interleave pushes and pops; verify global ordering with a reference.
	r := rng.New(123)
	var q eventQueue
	var popped []float64
	pushed := 0
	for i := 0; i < 5000; i++ {
		if q.Len() == 0 || r.Float64() < 0.6 {
			at := r.Float64() * 100
			// Monotone floor: heap itself doesn't require monotone input.
			q.Push(&queued{at: at, seq: uint64(pushed)})
			pushed++
		} else {
			popped = append(popped, q.Pop().at)
		}
	}
	for q.Len() > 0 {
		popped = append(popped, q.Pop().at)
	}
	if len(popped) != pushed {
		t.Fatalf("popped %d, pushed %d", len(popped), pushed)
	}
}

func BenchmarkSchedulePop(b *testing.B) {
	r := rng.New(1)
	e := NewEngine()
	noop := EventFunc(func(*Engine) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+r.Float64()*10, noop)
		if e.Pending() > 1000 {
			_ = e.RunUntil(e.Now() + 1)
		}
	}
}
