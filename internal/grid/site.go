package grid

import (
	"fmt"
	"math"
)

// Site is a grid resource site (a supercomputing center or cluster).
// The default execution model is the paper's: the site processes one job
// at a time at its aggregate Speed, so ETC(job, site) = Workload / Speed.
type Site struct {
	ID int
	// Speed is the aggregate processing speed in work units per second.
	// For NAS-style configurations Speed equals the node count (Table 1
	// lists site processing speeds as "8×8 nodes and 4×16 nodes").
	Speed float64
	// Nodes is the processor count, used by the space-shared extension.
	Nodes int
	// SecurityLevel is SL in the paper: [0.4, 1.0] uniform (Table 1).
	SecurityLevel float64
}

// Validate reports whether the site's fields are sensible.
func (s *Site) Validate() error {
	// Written so NaN fails the range tests: the schedulers order sites
	// by SL, and a NaN speed or level would poison every comparison.
	switch {
	case !(s.Speed > 0) || math.IsInf(s.Speed, 1):
		return fmt.Errorf("grid: site %d has speed %v, want positive and finite", s.ID, s.Speed)
	case s.Nodes <= 0:
		return fmt.Errorf("grid: site %d has non-positive node count %d", s.ID, s.Nodes)
	case !(s.SecurityLevel >= 0 && s.SecurityLevel <= 1):
		return fmt.Errorf("grid: site %d has SL %v outside [0,1]", s.ID, s.SecurityLevel)
	}
	return nil
}

// ExecTime returns the execution time of job j on site s under the
// aggregate-speed model.
func (s *Site) ExecTime(j *Job) float64 {
	return j.Workload / s.Speed
}

// ValidateSites checks a whole site list and that IDs equal slice indices
// (the schedulers index sites positionally).
func ValidateSites(sites []*Site) error {
	if len(sites) == 0 {
		return fmt.Errorf("grid: empty site list")
	}
	for i, s := range sites {
		if s.ID != i {
			return fmt.Errorf("grid: site at index %d has ID %d; IDs must be positional", i, s.ID)
		}
		if err := s.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// TotalSpeed returns the aggregate speed of all sites.
func TotalSpeed(sites []*Site) float64 {
	var total float64
	for _, s := range sites {
		total += s.Speed
	}
	return total
}

// MaxSecurityLevel returns the highest SL in the site list and its index.
func MaxSecurityLevel(sites []*Site) (level float64, index int) {
	level = math.Inf(-1)
	index = -1
	for i, s := range sites {
		if s.SecurityLevel > level {
			level = s.SecurityLevel
			index = i
		}
	}
	return level, index
}

// ETCMatrix computes the jobs×sites matrix of execution times under the
// aggregate-speed model, flattened row-major (job-major). The schedulers
// and the STGA history table both consume this layout.
func ETCMatrix(jobs []*Job, sites []*Site) []float64 {
	m := make([]float64, len(jobs)*len(sites))
	for i, j := range jobs {
		row := m[i*len(sites) : (i+1)*len(sites)]
		for k, s := range sites {
			row[k] = s.ExecTime(j)
		}
	}
	return m
}
