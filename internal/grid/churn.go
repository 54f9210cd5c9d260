package grid

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"trustgrid/internal/rng"
	"trustgrid/internal/strictjson"
)

// ChurnKind labels one site-churn transition (DESIGN.md §7.2).
type ChurnKind int

const (
	// ChurnCrash takes the site down instantly: executions in flight are
	// interrupted and their jobs re-queued; the site rejoins cold (its
	// reputation evidence is discarded).
	ChurnCrash ChurnKind = iota
	// ChurnDrain is a planned leave: the site stops admitting new jobs
	// but finishes what it is running, and rejoins with its reputation
	// intact.
	ChurnDrain
	// ChurnJoin brings a departed site back into service.
	ChurnJoin
	// ChurnDegrade multiplies the site's base speed by Factor (capacity
	// degradation, e.g. partial node loss). It affects executions
	// dispatched after the event.
	ChurnDegrade
	// ChurnRestore returns the site's speed to its baseline.
	ChurnRestore
)

var churnKindNames = [...]string{
	ChurnCrash:   "crash",
	ChurnDrain:   "drain",
	ChurnJoin:    "join",
	ChurnDegrade: "degrade",
	ChurnRestore: "restore",
}

// name returns the wire label of a known kind.
func (k ChurnKind) name() (string, bool) {
	if k < 0 || int(k) >= len(churnKindNames) {
		return "", false
	}
	return churnKindNames[k], true
}

// churnKindNamed returns the kind whose wire label is b.
func churnKindNamed(b []byte) (ChurnKind, bool) {
	for k, name := range churnKindNames {
		if name == string(b) {
			return ChurnKind(k), true
		}
	}
	return 0, false
}

// String returns the wire label of the kind.
func (k ChurnKind) String() string {
	if s, ok := k.name(); ok {
		return s
	}
	return fmt.Sprintf("ChurnKind(%d)", int(k))
}

// MarshalText encodes the kind as its wire label (churn traces are
// JSONL, and "crash" reads better than 0).
func (k ChurnKind) MarshalText() ([]byte, error) {
	s, ok := k.name()
	if !ok {
		return nil, fmt.Errorf("grid: unknown churn kind %d", int(k))
	}
	return []byte(s), nil
}

// UnmarshalText decodes a wire label.
func (k *ChurnKind) UnmarshalText(b []byte) error {
	kind, ok := churnKindNamed(b)
	if !ok {
		return fmt.Errorf("grid: unknown churn kind %q", string(b))
	}
	*k = kind
	return nil
}

// ChurnEvent is one timed site transition. A slice of them, sorted by
// time, is a churn trace: together with the workload trace and the root
// seed it is the complete deterministic input of a dynamic-grid run.
type ChurnEvent struct {
	Time float64   `json:"t"`
	Site int       `json:"site"`
	Kind ChurnKind `json:"kind"`
	// Factor is the speed multiplier of a ChurnDegrade event, in (0, 1].
	Factor float64 `json:"factor,omitempty"`
}

// ValidateChurn checks a churn trace against a platform size: events
// sorted by time, non-negative times, site indices in range, degrade
// factors in (0, 1].
func ValidateChurn(events []ChurnEvent, nSites int) error {
	prev := 0.0
	for i, ev := range events {
		switch {
		case math.IsNaN(ev.Time) || ev.Time < 0:
			return fmt.Errorf("grid: churn event %d has bad time %v", i, ev.Time)
		case ev.Time < prev:
			return fmt.Errorf("grid: churn event %d at t=%v before predecessor t=%v (trace must be time-sorted)",
				i, ev.Time, prev)
		case ev.Site < 0 || ev.Site >= nSites:
			return fmt.Errorf("grid: churn event %d targets site %d outside [0,%d)", i, ev.Site, nSites)
		}
		if _, ok := ev.Kind.name(); !ok {
			return fmt.Errorf("grid: churn event %d has unknown kind %d", i, int(ev.Kind))
		}
		if ev.Kind == ChurnDegrade && (ev.Factor <= 0 || ev.Factor > 1 || math.IsNaN(ev.Factor)) {
			return fmt.Errorf("grid: churn event %d degrade factor %v outside (0,1]", i, ev.Factor)
		}
		prev = ev.Time
	}
	return nil
}

// ChurnConfig generates a seeded churn trace: each site alternates
// exponentially distributed up-times with incidents — crashes, planned
// drains or capacity degradations — whose recovery events are emitted
// even past the horizon, so a site never departs forever by truncation.
type ChurnConfig struct {
	// Horizon bounds incident starts: no incident begins at or after it.
	Horizon float64
	// MTBF is the mean up-time between incidents per site, seconds.
	MTBF float64
	// Outage is the mean down-time of a crash or drain, seconds.
	Outage float64
	// PDrain and PDegrade split incidents: a fresh incident is a drain
	// with probability PDrain, a degradation with PDegrade, and a crash
	// otherwise.
	PDrain, PDegrade float64
	// DegradeMin and DegradeMax bound the uniform speed factor of a
	// degradation; DegradeMean is its mean duration, seconds.
	DegradeMin, DegradeMax float64
	DegradeMean            float64
}

// DefaultChurnConfig returns a moderate churn regime for the given
// horizon: each site suffers about two incidents, mostly crashes, down
// for about a twentieth of the horizon each time.
func DefaultChurnConfig(horizon float64) ChurnConfig {
	return ChurnConfig{
		Horizon:     horizon,
		MTBF:        horizon / 2,
		Outage:      horizon / 20,
		PDrain:      0.2,
		PDegrade:    0.2,
		DegradeMin:  0.3,
		DegradeMax:  0.8,
		DegradeMean: horizon / 20,
	}
}

// Validate checks the configuration.
func (c ChurnConfig) Validate() error {
	switch {
	case c.Horizon <= 0:
		return fmt.Errorf("grid: churn Horizon %v must be positive", c.Horizon)
	case c.MTBF <= 0:
		return fmt.Errorf("grid: churn MTBF %v must be positive", c.MTBF)
	case c.Outage <= 0:
		return fmt.Errorf("grid: churn Outage %v must be positive", c.Outage)
	case c.PDrain < 0 || c.PDegrade < 0 || c.PDrain+c.PDegrade > 1:
		return fmt.Errorf("grid: churn incident probabilities drain=%v degrade=%v invalid", c.PDrain, c.PDegrade)
	case c.PDegrade > 0 && (c.DegradeMin <= 0 || c.DegradeMax > 1 || c.DegradeMin > c.DegradeMax):
		return fmt.Errorf("grid: churn degrade factor range [%v,%v] outside (0,1]", c.DegradeMin, c.DegradeMax)
	case c.PDegrade > 0 && c.DegradeMean <= 0:
		return fmt.Errorf("grid: churn DegradeMean %v must be positive", c.DegradeMean)
	}
	return nil
}

// Generate produces the deterministic churn trace for an nSites
// platform. Each site draws from its own derived stream, so one site's
// trace is independent of the platform size and of its siblings.
func (c ChurnConfig) Generate(r *rng.Stream, nSites int) ([]ChurnEvent, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if nSites <= 0 {
		return nil, fmt.Errorf("grid: churn generation for %d sites", nSites)
	}
	var events []ChurnEvent
	for site := 0; site < nSites; site++ {
		sr := r.DeriveIndexed("churn/site", site)
		t := sr.Exp(1 / c.MTBF)
		for t < c.Horizon {
			u := sr.Float64()
			switch {
			case u < c.PDegrade:
				factor := sr.Uniform(c.DegradeMin, c.DegradeMax)
				dur := sr.Exp(1 / c.DegradeMean)
				events = append(events,
					ChurnEvent{Time: t, Site: site, Kind: ChurnDegrade, Factor: factor},
					ChurnEvent{Time: t + dur, Site: site, Kind: ChurnRestore})
				t += dur
			case u < c.PDegrade+c.PDrain:
				dur := sr.Exp(1 / c.Outage)
				events = append(events,
					ChurnEvent{Time: t, Site: site, Kind: ChurnDrain},
					ChurnEvent{Time: t + dur, Site: site, Kind: ChurnJoin})
				t += dur
			default:
				dur := sr.Exp(1 / c.Outage)
				events = append(events,
					ChurnEvent{Time: t, Site: site, Kind: ChurnCrash},
					ChurnEvent{Time: t + dur, Site: site, Kind: ChurnJoin})
				t += dur
			}
			t += sr.Exp(1 / c.MTBF)
		}
	}
	sort.SliceStable(events, func(i, k int) bool {
		if events[i].Time != events[k].Time {
			return events[i].Time < events[k].Time
		}
		return events[i].Site < events[k].Site
	})
	return events, nil
}

// The churn line. A churn trace is read at every boot of a daemon run
// with one, and its events are logged at the head of every shard's WAL
// and read back by every recovery, so the event has a hand-written codec
// in both directions, with encoding/json as the fallback for input that
// is not canonical (DESIGN.md §9.7).

// AppendJSON appends the event's JSON object (no trailing newline) to
// dst and returns the extended slice. The bytes equal json.Marshal's; an
// event json.Marshal refuses (a NaN or infinite float, an unknown kind)
// leaves dst unchanged.
func (e *ChurnEvent) AppendJSON(dst []byte) []byte {
	name, ok := e.Kind.name()
	if !ok || !strictjson.Finite(e.Time) || !strictjson.Finite(e.Factor) {
		return dst
	}
	dst = strictjson.AppendFloat(append(dst, `{"t":`...), e.Time)
	dst = strconv.AppendInt(append(dst, `,"site":`...), int64(e.Site), 10)
	dst = append(append(append(dst, `,"kind":"`...), name...), '"')
	dst = strictjson.AppendOptFloat(dst, `,"factor":`, e.Factor)
	return append(dst, '}')
}

// ScanJSON reads, at c, the object AppendJSON renders and stores the
// fields it names in e — exactly what json.Unmarshal stores for those
// bytes; a factor it omits keeps its value. Any other spelling fails c,
// and a failed read may leave e partly written.
func (e *ChurnEvent) ScanJSON(c *strictjson.Cursor) {
	c.Lit(`{"t":`)
	e.Time = c.Float()
	c.Lit(`,"site":`)
	e.Site = c.Int()
	c.Lit(`,"kind":`)
	kind, ok := churnKindNamed(c.Quoted())
	c.Want(ok)
	e.Kind = kind
	if c.Opt(`,"factor":`) {
		e.Factor = c.Float()
		c.Want(e.Factor != 0) // omitempty never writes a zero
	}
	c.Lit("}")
}

// ParseChurnEvent decodes one churn line into ev with json.Unmarshal's
// semantics — fields the line does not name keep their values, and the
// error, if any, is json.Unmarshal's. A line in AppendJSON's form takes
// the fast path (ScanJSON); every other line, valid or not, goes to
// json.Unmarshal.
func ParseChurnEvent(line []byte, ev *ChurnEvent) error {
	tmp := *ev
	c := strictjson.NewCursor(line)
	if tmp.ScanJSON(&c); c.Done() {
		*ev = tmp
		return nil
	}
	slow := *ev
	err := json.Unmarshal(line, &slow)
	*ev = slow
	return err
}

// WriteChurnTrace writes events as JSONL, one event per line — the
// churn analogue of the arrival-trace format. The bytes are those of a
// json.Encoder.
func WriteChurnTrace(w io.Writer, events []ChurnEvent) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for i := range events {
		if line = events[i].AppendJSON(line[:0]); len(line) == 0 {
			// An event AppendJSON does not render is json.Marshal's to
			// judge, and it refuses it with the reason.
			var err error
			if line, err = json.Marshal(&events[i]); err != nil {
				return err
			}
		}
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadChurnTrace parses a JSONL churn trace. Blank lines are skipped;
// the result is not validated against a platform (use ValidateChurn once
// the site count is known).
func ReadChurnTrace(r io.Reader) ([]ChurnEvent, error) {
	var out []ChurnEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev ChurnEvent
		if err := ParseChurnEvent(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("grid: churn trace line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("grid: reading churn trace: %w", err)
	}
	return out, nil
}

// DeceptiveLevels builds a ground-truth security vector for sites that
// may overstate their declared SL: a fraction frac of sites (chosen by
// r) truly operate gap below what they declare, floored at zero. The
// returned slice feeds sched.DynamicsConfig.TrueLevels: the Eq. 1
// failure law samples from the truth while schedulers see the declared
// (or reputation-corrected) estimate — the divergence that online
// reputation exists to close.
func DeceptiveLevels(sites []*Site, frac, gap float64, r *rng.Stream) []float64 {
	levels := make([]float64, len(sites))
	for i, s := range sites {
		levels[i] = s.SecurityLevel
	}
	k := int(math.Ceil(frac * float64(len(sites))))
	if k <= 0 {
		return levels
	}
	if k > len(sites) {
		k = len(sites)
	}
	for _, i := range r.Perm(len(sites))[:k] {
		levels[i] -= gap
		if levels[i] < 0 {
			levels[i] = 0
		}
	}
	return levels
}
