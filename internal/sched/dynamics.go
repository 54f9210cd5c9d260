package sched

import (
	"fmt"

	"trustgrid/internal/fuzzy"
	"trustgrid/internal/grid"
)

// DynamicsConfig turns the fixed-platform simulator into a dynamic grid
// (DESIGN.md §7): sites join, leave and degrade over a deterministic
// churn trace, ground-truth security may diverge from declared levels,
// and — when Reputation is set — the scheduler-visible trust vector is
// re-derived online from observed job outcomes instead of staying at
// the declaration.
type DynamicsConfig struct {
	// Churn is the time-sorted site transition trace (generate one with
	// grid.ChurnConfig or load it with grid.ReadChurnTrace). The engine
	// schedules every event on the discrete-event queue up front, so a
	// run's placements are a pure function of (jobs, churn, seeds).
	Churn []grid.ChurnEvent
	// Reputation, when non-nil, enables the online trust feedback loop:
	// each completion/security-failure updates the site's
	// fuzzy.Reputation and the site's scheduler-visible SecurityLevel is
	// set to the new estimate. Nil keeps trust static (declared levels),
	// which is the paper's original model.
	Reputation *fuzzy.ReputationConfig
	// TrueLevels, when non-nil, is the per-site ground-truth security
	// level the Eq. 1 failure law samples from, independent of what the
	// scheduler believes (grid.DeceptiveLevels builds one). Nil means
	// the declared levels are the truth.
	TrueLevels []float64
}

// check validates the dynamics against the platform.
func (d *DynamicsConfig) check(sites []*grid.Site) error {
	if err := grid.ValidateChurn(d.Churn, len(sites)); err != nil {
		return err
	}
	if d.Reputation != nil {
		if err := d.Reputation.Validate(); err != nil {
			return err
		}
	}
	if d.TrueLevels != nil {
		if len(d.TrueLevels) != len(sites) {
			return fmt.Errorf("sched: %d true levels for %d sites", len(d.TrueLevels), len(sites))
		}
		for i, l := range d.TrueLevels {
			if l < 0 || l > 1 {
				return fmt.Errorf("sched: true level %v of site %d outside [0,1]", l, i)
			}
		}
	}
	return nil
}

// attempt is one execution in flight on a site. Dispatch precomputes
// whether the attempt fails (the Eq. 1 draw) and when the outcome
// manifests (start + busy), then queues an evAttempt event at that time,
// so the whole pending outcome is plain data a snapshot can serialize
// and a restore can re-queue. On dynamic grids a crash interrupts it by
// setting cancelled; its event then no-ops.
type attempt struct {
	job       *grid.Job
	site      int
	start     float64 // when the site begins executing it
	busy      float64 // site occupancy charged at dispatch time
	fails     bool    // outcome: Eq. 1 security failure vs completion
	cancelled bool
}

// dynState is the engine's dynamic-grid state. Nil on static runs — the
// paper's original closed-world model pays nothing for the extension.
type dynState struct {
	cfg       *DynamicsConfig
	alive     []bool
	crashed   []bool // down because of a crash: rejoin is cold
	baseSpeed []float64
	declared  []float64
	trueSL    []float64
	reps      []*fuzzy.Reputation // nil without reputation feedback
	inflight  [][]*attempt
}

// newDynState builds the dynamic state for a validated config over the
// engine's (cloned) site list.
func newDynState(cfg *DynamicsConfig, sites []*grid.Site) (*dynState, error) {
	d := &dynState{
		cfg:       cfg,
		alive:     make([]bool, len(sites)),
		crashed:   make([]bool, len(sites)),
		baseSpeed: make([]float64, len(sites)),
		declared:  make([]float64, len(sites)),
		trueSL:    make([]float64, len(sites)),
		inflight:  make([][]*attempt, len(sites)),
	}
	for i, s := range sites {
		d.alive[i] = true
		d.baseSpeed[i] = s.Speed
		d.declared[i] = s.SecurityLevel
		if cfg.TrueLevels != nil {
			d.trueSL[i] = cfg.TrueLevels[i]
		} else {
			d.trueSL[i] = s.SecurityLevel
		}
	}
	if cfg.Reputation != nil {
		d.reps = make([]*fuzzy.Reputation, len(sites))
		for i, s := range sites {
			rep, err := fuzzy.NewReputation(*cfg.Reputation, s.SecurityLevel)
			if err != nil {
				return nil, err
			}
			d.reps[i] = rep
		}
	}
	return d, nil
}

func (d *dynState) anyAlive() bool {
	for _, a := range d.alive {
		if a {
			return true
		}
	}
	return false
}

// launch queues an attempt's outcome event at at and, on dynamic grids,
// registers the attempt in its site's in-flight list so a crash can
// cancel it.
func (st *engineState) launch(att *attempt, at float64) {
	st.schedule(event{at: at, kind: evAttempt, att: att})
	if st.dyn != nil {
		st.dyn.inflight[att.site] = append(st.dyn.inflight[att.site], att)
	}
}

// untrack removes an attempt that ran to its scheduled completion or
// failure from its site's in-flight list.
func (st *engineState) untrack(att *attempt) {
	if st.dyn == nil {
		return
	}
	list := st.dyn.inflight[att.site]
	for i, x := range list {
		if x == att {
			st.dyn.inflight[att.site] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// effectiveSL returns the ground-truth security level the failure law
// samples from for a site.
func (st *engineState) effectiveSL(site int) float64 {
	if st.dyn != nil {
		return st.dyn.trueSL[site]
	}
	return st.cfg.Sites[site].SecurityLevel
}

// aliveVec returns the scheduler-visible liveness vector (nil = all
// alive, the static fast path).
func (st *engineState) aliveVec() []bool {
	if st.dyn == nil {
		return nil
	}
	return st.dyn.alive
}

// observeOutcome feeds one job outcome into the site's reputation and
// refreshes the scheduler-visible trust estimate. A no-op without
// reputation feedback.
func (st *engineState) observeOutcome(site int, sd float64, success bool) float64 {
	if st.dyn == nil || st.dyn.reps == nil {
		return st.cfg.Sites[site].SecurityLevel
	}
	rep := st.dyn.reps[site]
	rep.Observe(sd, success)
	level := rep.Level()
	st.cfg.Sites[site].SecurityLevel = level
	return level
}

// applyChurn executes one churn event at its scheduled time.
func (st *engineState) applyChurn(ev grid.ChurnEvent) {
	d := st.dyn
	i := ev.Site
	site := st.cfg.Sites[i]
	switch ev.Kind {
	case grid.ChurnCrash:
		wasAlive := d.alive[i]
		d.alive[i] = false
		// A crash always forces a cold rejoin, even if the site was
		// already drained; its in-flight work (drains keep running) is
		// interrupted either way.
		d.crashed[i] = true
		if wasAlive {
			st.emit(EngineEvent{Kind: EventSiteDown, Time: st.now, Job: grid.Job{ID: -1}, Site: i,
				Level: site.SecurityLevel})
		}
		requeued := 0
		for _, att := range d.inflight[i] {
			// The outcome event stays on the queue and no-ops; a
			// snapshot skips it.
			att.cancelled = true
			// Reverse the dispatch-time occupancy charge and charge only
			// the time the site actually spent before crashing.
			st.busy[i] -= att.busy
			if occ := st.now - att.start; occ > 0 {
				st.busy[i] += occ
			}
			j := att.job
			st.interrupted[j.ID]++
			if st.interrupted[j.ID] > maxRetries {
				st.fail(fmt.Errorf("sched: job %d interrupted more than %d times (site churn too hostile)",
					j.ID, maxRetries))
				return
			}
			// Infrastructure loss, not a security incident: the job
			// re-queues through the ordinary failure path but keeps its
			// risk eligibility and feeds no reputation evidence.
			st.emit(EngineEvent{Kind: EventInterrupted, Time: st.now, Job: *j, Site: i})
			st.queue = append(st.queue, j)
			requeued++
		}
		d.inflight[i] = nil
		st.ready[i] = st.now
		if requeued > 0 {
			st.ensureBatch()
		}
	case grid.ChurnDrain:
		if !d.alive[i] {
			return
		}
		d.alive[i] = false
		d.crashed[i] = false
		st.emit(EngineEvent{Kind: EventSiteDown, Time: st.now, Job: grid.Job{ID: -1}, Site: i,
			Level: site.SecurityLevel})
	case grid.ChurnJoin:
		if d.alive[i] {
			return
		}
		d.alive[i] = true
		if d.crashed[i] {
			d.crashed[i] = false
			// Cold rejoin: evidence does not survive a crash.
			if d.reps != nil {
				d.reps[i].Reset()
				site.SecurityLevel = d.reps[i].Level()
			}
		}
		if st.ready[i] < st.now {
			st.ready[i] = st.now
		}
		st.emit(EngineEvent{Kind: EventSiteUp, Time: st.now, Job: grid.Job{ID: -1}, Site: i,
			Level: site.SecurityLevel})
		if len(st.queue) > 0 {
			st.ensureBatch()
		}
	case grid.ChurnDegrade:
		site.Speed = d.baseSpeed[i] * ev.Factor
		st.emit(EngineEvent{Kind: EventSiteSpeed, Time: st.now, Job: grid.Job{ID: -1}, Site: i,
			Speed: site.Speed})
	case grid.ChurnRestore:
		site.Speed = d.baseSpeed[i]
		st.emit(EngineEvent{Kind: EventSiteSpeed, Time: st.now, Job: grid.Job{ID: -1}, Site: i,
			Speed: site.Speed})
	}
}

// SiteStatus is one site's live dynamic-grid state, as reported by
// Online.SiteStatuses (and the daemon's /v1/sites endpoint).
type SiteStatus struct {
	ID    int     `json:"id"`
	Alive bool    `json:"alive"`
	Speed float64 `json:"speed"`
	// BaseSpeed is the undegraded capacity.
	BaseSpeed float64 `json:"base_speed"`
	// Level is the scheduler-visible security level right now (the
	// reputation estimate under feedback, the declaration otherwise).
	Level float64 `json:"level"`
	// DeclaredLevel is the site's static declaration.
	DeclaredLevel float64 `json:"declared_level"`
	// Observations and Evidence summarize the reputation backing the
	// estimate (zero without reputation feedback).
	Observations int     `json:"observations"`
	Evidence     float64 `json:"evidence"`
}

// SiteStatuses reports every site's live state. Loop goroutine only.
// On static runs it reflects the immutable platform.
func (o *Online) SiteStatuses() []SiteStatus {
	st := o.st
	out := make([]SiteStatus, len(st.cfg.Sites))
	for i, s := range st.cfg.Sites {
		out[i] = SiteStatus{
			ID: i, Alive: true,
			Speed: s.Speed, BaseSpeed: s.Speed,
			Level: s.SecurityLevel, DeclaredLevel: s.SecurityLevel,
		}
	}
	if st.dyn == nil {
		return out
	}
	for i := range out {
		out[i].Alive = st.dyn.alive[i]
		out[i].BaseSpeed = st.dyn.baseSpeed[i]
		out[i].DeclaredLevel = st.dyn.declared[i]
		if st.dyn.reps != nil {
			out[i].Observations = st.dyn.reps[i].Observations()
			out[i].Evidence = st.dyn.reps[i].Evidence()
		}
	}
	return out
}
