package sim

// Arrival is an externally produced event: run Ev at virtual time At.
// Arrivals are how the world outside the simulation — an HTTP handler, a
// trace replayer, a test — injects work into a running engine.
type Arrival struct {
	At float64
	Ev Event
}

// Online drives an Engine in incremental, clock-driven steps fed by an
// arrival channel instead of a fixed up-front event list. Producers on
// any goroutine send Arrivals with Inject; a single consumer goroutine
// owns the engine and advances the clock with AdvanceTo (or runs it dry
// with RunAll). Ingested arrivals whose timestamp has already passed are
// clamped to the current clock — from the simulation's point of view
// they arrive "now" — which is the only place wall-clock nondeterminism
// can enter; everything at or after the clamped timestamp is ordinary
// deterministic event execution (DESIGN.md §6.4).
type Online struct {
	eng *Engine
	in  chan Arrival
}

// DefaultArrivalBuffer is the arrival channel depth. A full channel
// blocks producers, which is the backpressure a service wants under
// overload.
const DefaultArrivalBuffer = 8192

// NewOnline wraps eng for incremental execution. The engine must not be
// driven directly (Run/RunUntil) while the Online wrapper is in use.
func NewOnline(eng *Engine) *Online {
	return &Online{eng: eng, in: make(chan Arrival, DefaultArrivalBuffer)}
}

// Engine returns the wrapped engine. Consumer goroutine only.
func (o *Online) Engine() *Engine { return o.eng }

// Inject sends one arrival. Safe to call from any goroutine; blocks when
// the channel buffer is full until the consumer drains it.
func (o *Online) Inject(at float64, ev Event) {
	o.in <- Arrival{At: at, Ev: ev}
}

// InjectOr is Inject with an abort signal: it reports false (dropping
// the arrival) if done closes before the buffer accepts it. Producers
// that must not wedge when the consumer is gone use this.
func (o *Online) InjectOr(done <-chan struct{}, at float64, ev Event) bool {
	select {
	case o.in <- Arrival{At: at, Ev: ev}:
		return true
	case <-done:
		return false
	}
}

// Backlog returns the number of arrivals sitting in the channel, not yet
// transferred to the engine's event queue.
func (o *Online) Backlog() int { return len(o.in) }

// drain moves every currently buffered arrival onto the engine's event
// queue, clamping past timestamps to the current clock, and returns how
// many it moved. Consumer goroutine only.
func (o *Online) drain() int {
	n := 0
	for {
		select {
		case a := <-o.in:
			t := a.At
			if t < o.eng.Now() {
				t = o.eng.Now()
			}
			o.eng.Schedule(t, a.Ev)
			n++
		default:
			return n
		}
	}
}

// AdvanceTo ingests all buffered arrivals and executes events up to and
// including virtual time t, leaving the clock at t. Arrivals injected
// concurrently during execution stay buffered until the next call.
// Consumer goroutine only.
func (o *Online) AdvanceTo(t float64) error {
	o.drain()
	return o.eng.RunUntil(t)
}

// RunAll alternates between ingesting buffered arrivals and running the
// engine until both the channel and the event queue are empty. It is the
// incremental equivalent of Engine.Run. Consumer goroutine only.
func (o *Online) RunAll() error {
	for {
		o.drain()
		if o.eng.Pending() == 0 {
			return nil
		}
		if err := o.eng.Run(); err != nil {
			return err
		}
	}
}
