package grid

import (
	"fmt"
	"math"
)

// RiskMode selects how a scheduler treats the security risk of dispatching
// a job to a site whose security level is below the job's demand (paper
// §2, Fig. 3).
type RiskMode int

const (
	// Secure dispatches only to sites with SD <= SL: no risk ever taken.
	Secure RiskMode = iota
	// Risky dispatches to any site, accepting 100% of the risk.
	Risky
	// FRisky dispatches only where the failure probability is at most f.
	// f = 0 degenerates to Secure and f = 1 to Risky.
	FRisky
)

// String returns the paper's name for the mode.
func (m RiskMode) String() string {
	switch m {
	case Secure:
		return "Secure"
	case Risky:
		return "Risky"
	case FRisky:
		return "f-Risky"
	default:
		return fmt.Sprintf("RiskMode(%d)", int(m))
	}
}

// DefaultLambda is the failure-law coefficient λ of Eq. 1. The paper does
// not state its value; 3.0 makes the f = 0.5 threshold genuinely
// intermediate between Secure and Risky (see DESIGN.md §2.1).
const DefaultLambda = 3.0

// SecurityModel is the failure law of Eq. 1:
//
//	P(fail) = 0                      if SD <= SL
//	P(fail) = 1 - exp(-λ(SD - SL))   if SD >  SL
type SecurityModel struct {
	Lambda float64
}

// NewSecurityModel returns the model with the default λ.
func NewSecurityModel() SecurityModel { return SecurityModel{Lambda: DefaultLambda} }

// FailProb returns the failure probability for demand sd on level sl.
func (m SecurityModel) FailProb(sd, sl float64) float64 {
	if sd <= sl {
		return 0
	}
	return 1 - math.Exp(-m.Lambda*(sd-sl))
}

// Risky reports whether running demand sd on level sl takes any risk.
func (m SecurityModel) Risky(sd, sl float64) bool { return sd > sl }

// MaxDeficit returns the largest SD−SL gap admitted by an f-risky
// scheduler with threshold f: FailProb(sd, sl) <= f  iff  sd−sl <= MaxDeficit(f).
func (m SecurityModel) MaxDeficit(f float64) float64 {
	if f >= 1 {
		return math.Inf(1)
	}
	if f <= 0 {
		return 0
	}
	return -math.Log(1-f) / m.Lambda
}

// Policy is a concrete dispatch admission rule: a risk mode plus the
// f threshold (used only when Mode == FRisky) and the failure law.
type Policy struct {
	Mode  RiskMode
	F     float64
	Model SecurityModel
}

// SecurePolicy, RiskyPolicy and FRiskyPolicy build the three paper modes.
func SecurePolicy() Policy { return Policy{Mode: Secure, Model: NewSecurityModel()} }

// RiskyPolicy admits every site.
func RiskyPolicy() Policy { return Policy{Mode: Risky, Model: NewSecurityModel()} }

// FRiskyPolicy admits sites with failure probability at most f.
func FRiskyPolicy(f float64) Policy {
	return Policy{Mode: FRisky, F: f, Model: NewSecurityModel()}
}

// Name returns a short label such as "Secure" or "0.5-Risky".
func (p Policy) Name() string {
	if p.Mode == FRisky {
		return fmt.Sprintf("%.1f-Risky", p.F)
	}
	return p.Mode.String()
}

// Admits reports whether the policy lets job j run on site s. A job that
// already failed once must run strictly safely regardless of mode.
func (p Policy) Admits(j *Job, s *Site) bool {
	if j.MustBeSafe {
		return s.SecurityLevel > j.SecurityDemand
	}
	switch p.Mode {
	case Secure:
		return j.SecurityDemand <= s.SecurityLevel
	case Risky:
		return true
	case FRisky:
		return p.Model.FailProb(j.SecurityDemand, s.SecurityLevel) <= p.F
	default:
		panic(fmt.Sprintf("grid: unknown risk mode %d", int(p.Mode)))
	}
}

// admitGuard is the half-width, in failure probability, of the band
// around F inside which DeficitBand leaves the verdict to Admits.
// FailProb's computed value is within ~5e-16 of the true 1−exp(−λd)
// (one rounding each for the product, exp and the subtraction, all on
// values in [0, 1]), so 1e-9 is seven orders of magnitude of slack and
// still narrower than any spacing of real SD/SL values around the cut.
const admitGuard = 1e-9

// DeficitBand returns the deficits d = SD − SL between which a
// non-MustBeSafe job's admission needs the exact Admits: d <= lo is
// admitted and d >= hi refused without evaluating the failure law, and
// the answer is Admits' own, bit for bit. The edges are the analytic
// cut MaxDeficit taken at F ∓ admitGuard, so the guard is measured in
// the probability FailProb compares (a band relative to the cut itself
// would shrink below FailProb's rounding error as F nears 0 or 1); they
// clamp to 0 and +Inf there. ok is false when every probe must go
// through Admits: modes other than f-risky (already one compare), F
// outside (0, 1) or NaN, and a failure law without a positive λ.
func (p Policy) DeficitBand() (lo, hi float64, ok bool) {
	if p.Mode != FRisky || !(p.F > 0 && p.F < 1) || !(p.Model.Lambda > 0) {
		return 0, 0, false
	}
	return p.Model.MaxDeficit(p.F - admitGuard), p.Model.MaxDeficit(p.F + admitGuard), true
}

// EligibleSites returns the indices of sites the policy admits for job j.
// If none qualify (impossible with feasible site generation, but the API
// is total), it returns the single max-SL site and fellBack = true.
func (p Policy) EligibleSites(j *Job, sites []*Site) (idx []int, fellBack bool) {
	idx = make([]int, 0, len(sites))
	for i, s := range sites {
		if p.Admits(j, s) {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		_, best := MaxSecurityLevel(sites)
		return []int{best}, true
	}
	return idx, false
}

// EligibleMask fills mask (len == len(sites)) with admission flags and
// returns whether at least one site is eligible. It allocates nothing,
// for use in scheduler inner loops.
func (p Policy) EligibleMask(j *Job, sites []*Site, mask []bool) bool {
	any := false
	for i, s := range sites {
		ok := p.Admits(j, s)
		mask[i] = ok
		any = any || ok
	}
	return any
}
