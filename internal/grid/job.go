package grid

import (
	"fmt"
	"math"
)

// Job is an atomic, non-malleable unit of program execution (paper §1).
type Job struct {
	ID int
	// Tenant names the principal the job belongs to. The paper's batch
	// model is single-tenant ("" everywhere); the multi-tenant service
	// layer stamps the owning tenant here and it rides through the
	// engine, the kernel snapshot, events, metrics records and the
	// arrival trace. Tenant is identity, not runtime state: Clone keeps
	// it, and the scheduling core treats it as an opaque label (only
	// fair-share batch formation interprets it, via AdmissionConfig).
	Tenant  string
	Arrival float64 // submission time, seconds
	// Workload is the total computational demand in work units. For
	// NAS-style traces this is node-seconds (runtime × requested nodes);
	// for PSA it is the abstract 20-level demand of Table 1.
	Workload float64
	// Nodes is the number of processors the job requested in its source
	// trace. The aggregate-speed site model folds this into Workload;
	// the SWF writer divides it back out to recover the runtime.
	Nodes int
	// SecurityDemand is SD in the paper: [0.6, 0.9] uniform (Table 1).
	SecurityDemand float64

	// SafeOnly is a per-job risk policy: the job may only ever run
	// strictly safely (SL > SD), regardless of the scheduler's admission
	// mode. Tenants with a secure-only policy stamp it at submission.
	// Unlike MustBeSafe it is declared intent, not runtime state, so
	// Clone preserves it; the engine folds it into MustBeSafe at arrival
	// so the scheduling core needs no second flag.
	SafeOnly bool

	// MustBeSafe marks a job that already failed once: the scheduler must
	// dispatch it only to sites with SL > SD ("the scheduler will not
	// allow a failed job to take any risk again", §2).
	MustBeSafe bool
	// Failures counts how many times this job has failed so far.
	Failures int

	// DependsOn lists job IDs that must complete before this job may be
	// dispatched (ROADMAP item 5; Pop & Cristea's DAG model). Nil for the
	// paper's independent workloads. The json tag keeps every pre-DAG
	// serialization — engine snapshots, fleet spec fingerprints — byte
	// identical for edge-free jobs.
	DependsOn []int `json:",omitempty"`
	// Deadline is the absolute simulation time by which the job should
	// complete; 0 means none. The engine records misses (it never drops a
	// late job) so deadline-aware policies have an objective to optimize.
	Deadline float64 `json:",omitempty"`
}

// Validate reports whether the job's static fields are sensible.
func (j *Job) Validate() error {
	// Written so NaN fails the range tests and infinities fail too, as
	// in Site.Validate: a NaN workload or SD poisons every ETC and
	// failure draw the schedulers make from it.
	switch {
	case !(j.Workload > 0) || math.IsInf(j.Workload, 1):
		return fmt.Errorf("grid: job %d has workload %v, want positive and finite", j.ID, j.Workload)
	case j.Nodes <= 0:
		return fmt.Errorf("grid: job %d has non-positive node request %d", j.ID, j.Nodes)
	case !(j.Arrival >= 0) || math.IsInf(j.Arrival, 1):
		return fmt.Errorf("grid: job %d has arrival %v, want non-negative and finite", j.ID, j.Arrival)
	case !(j.SecurityDemand >= 0 && j.SecurityDemand <= 1):
		return fmt.Errorf("grid: job %d has SD %v outside [0,1]", j.ID, j.SecurityDemand)
	case !(j.Deadline >= 0) || math.IsInf(j.Deadline, 1):
		return fmt.Errorf("grid: job %d has deadline %v, want non-negative and finite", j.ID, j.Deadline)
	}
	for _, d := range j.DependsOn {
		if d == j.ID {
			return fmt.Errorf("grid: job %d depends on itself", j.ID)
		}
	}
	return nil
}

// Clone returns a copy of the job with runtime state (MustBeSafe,
// Failures) reset, for re-running the same workload through another
// scheduler. Identity and declared policy (Tenant, SafeOnly, DependsOn,
// Deadline) are kept; the dependency list is copied so clones
// never alias the original's edges.
func (j *Job) Clone() *Job {
	c := *j
	c.MustBeSafe = false
	c.Failures = 0
	if j.DependsOn != nil {
		c.DependsOn = append([]int(nil), j.DependsOn...)
	}
	return &c
}

// TotalWorkload sums the workloads of a job list.
func TotalWorkload(jobs []*Job) float64 {
	var total float64
	for _, j := range jobs {
		total += j.Workload
	}
	return total
}

// CloneAll deep-copies a job slice with runtime state reset.
func CloneAll(jobs []*Job) []*Job {
	out := make([]*Job, len(jobs))
	for i, j := range jobs {
		out[i] = j.Clone()
	}
	return out
}
