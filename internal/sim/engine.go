package sim

import (
	"errors"
	"fmt"
	"math"
)

// Event is a scheduled occurrence. Implementations carry their own payload;
// the engine only needs Execute.
type Event interface {
	// Execute runs the event's effect at its scheduled time.
	Execute(e *Engine)
}

// EventFunc adapts a plain function to the Event interface.
type EventFunc func(e *Engine)

// Execute calls f.
func (f EventFunc) Execute(e *Engine) { f(e) }

// ErrNegativeDelay is returned (via panic recovery in tests) when an event
// is scheduled in the past.
var ErrNegativeDelay = errors.New("sim: event scheduled before current time")

// Engine is the simulation core. The zero value is not usable; call
// NewEngine.
type Engine struct {
	queue    eventQueue
	now      float64
	seq      uint64
	executed uint64
	// MaxEvents aborts a run after this many events as a runaway guard.
	// Zero means no limit.
	MaxEvents uint64
	stopped   bool
	err       error
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.queue.items = make([]*queued, 0, 1024)
	return e
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.queue.Len() }

// LastSeq returns the sequence number Schedule assigned most recently.
// Equal-timestamp events execute in sequence order, so a caller that
// needs to re-create a pending event after a restore records this and
// re-schedules in recorded order (see sched's engine snapshot).
func (e *Engine) LastSeq() uint64 { return e.seq }

// RestoreClock positions a fresh engine at a snapshot's clock and
// executed-event count. It is the restore-side counterpart of Now and
// Executed: events re-scheduled afterwards continue from exactly where
// the snapshotted run stood. Only an engine with an empty queue may be
// repositioned, and only forward.
func (e *Engine) RestoreClock(now float64, executed uint64) error {
	if e.queue.Len() != 0 {
		return fmt.Errorf("sim: RestoreClock with %d events queued", e.queue.Len())
	}
	if math.IsNaN(now) || now < e.now {
		return fmt.Errorf("sim: RestoreClock to t=%v behind now=%v", now, e.now)
	}
	e.now = now
	e.executed = executed
	return nil
}

// Schedule enqueues ev to run at absolute time t. Scheduling in the past
// (t < Now, beyond a tiny epsilon for float accumulation) is a programming
// error and panics: silently reordering time would corrupt every metric.
func (e *Engine) Schedule(t float64, ev Event) {
	if math.IsNaN(t) {
		panic("sim: event scheduled at NaN time")
	}
	if t < e.now {
		panic(fmt.Errorf("%w: t=%v now=%v", ErrNegativeDelay, t, e.now))
	}
	e.seq++
	e.queue.Push(&queued{at: t, seq: e.seq, ev: ev})
}

// Fail ends the run loop and records err, which Run returns.
func (e *Engine) Fail(err error) {
	e.err = err
	e.stopped = true
}

// Run executes events in timestamp order until the queue is empty, Fail
// is called, or MaxEvents is exceeded.
func (e *Engine) Run() error {
	e.stopped = false
	for !e.stopped && e.queue.Len() > 0 {
		q := e.queue.Pop()
		e.now = q.at
		e.executed++
		if e.MaxEvents > 0 && e.executed > e.MaxEvents {
			return fmt.Errorf("sim: exceeded MaxEvents=%d at t=%v", e.MaxEvents, e.now)
		}
		q.ev.Execute(e)
	}
	return e.err
}

// RunUntil executes events with timestamps <= deadline, then stops with the
// clock advanced to deadline (or the last event time if the queue drained
// earlier). Events after the deadline remain queued.
func (e *Engine) RunUntil(deadline float64) error {
	e.stopped = false
	for !e.stopped && e.queue.Len() > 0 {
		if e.queue.Peek().at > deadline {
			break
		}
		q := e.queue.Pop()
		e.now = q.at
		e.executed++
		if e.MaxEvents > 0 && e.executed > e.MaxEvents {
			return fmt.Errorf("sim: exceeded MaxEvents=%d at t=%v", e.MaxEvents, e.now)
		}
		q.ev.Execute(e)
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.err
}
