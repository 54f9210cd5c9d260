package grid

import (
	"math"
	"testing"
	"testing/quick"

	"trustgrid/internal/rng"
)

func TestJobValidate(t *testing.T) {
	good := &Job{ID: 1, Workload: 100, Nodes: 4, SecurityDemand: 0.7}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	bad := []*Job{
		{ID: 2, Workload: 0, Nodes: 1, SecurityDemand: 0.7},
		{ID: 3, Workload: 10, Nodes: 0, SecurityDemand: 0.7},
		{ID: 4, Workload: 10, Nodes: 1, SecurityDemand: 1.5},
		{ID: 5, Workload: 10, Nodes: 1, SecurityDemand: 0.7, Arrival: -1},
	}
	for _, j := range bad {
		if err := j.Validate(); err == nil {
			t.Errorf("job %d should be invalid", j.ID)
		}
	}
}

func TestJobClone(t *testing.T) {
	j := &Job{ID: 1, Tenant: "acme", Workload: 5, Nodes: 1, SecurityDemand: 0.8,
		SafeOnly: true, MustBeSafe: true, Failures: 2}
	c := j.Clone()
	if c.MustBeSafe || c.Failures != 0 {
		t.Fatal("Clone must reset runtime state")
	}
	if c.ID != 1 || c.Workload != 5 || c.SecurityDemand != 0.8 {
		t.Fatal("Clone must keep static fields")
	}
	if c.Tenant != "acme" || !c.SafeOnly {
		t.Fatal("Clone must keep identity and declared policy (Tenant, SafeOnly)")
	}
	c.Workload = 99
	if j.Workload != 5 {
		t.Fatal("Clone must not alias")
	}
}

func TestSiteExecTime(t *testing.T) {
	s := &Site{ID: 0, Speed: 8, Nodes: 8, SecurityLevel: 0.5}
	j := &Job{ID: 0, Workload: 80, Nodes: 1, SecurityDemand: 0.6}
	if got := s.ExecTime(j); got != 10 {
		t.Fatalf("ExecTime = %v, want 10", got)
	}
}

// TestSiteValidate: NaN must fail the SL range check and a NaN or
// infinite speed the speed check, as out-of-range values always did.
func TestSiteValidate(t *testing.T) {
	for _, tc := range []struct {
		name      string
		speed, sl float64
		ok        bool
	}{
		{"valid", 8, 0.5, true},
		{"SL 0", 8, 0, true},
		{"SL 1", 8, 1, true},
		{"SL NaN", 8, math.NaN(), false},
		{"SL below 0", 8, -0.1, false},
		{"SL above 1", 8, 1.1, false},
		{"SL +Inf", 8, math.Inf(1), false},
		{"speed 0", 0, 0.5, false},
		{"speed negative", -1, 0.5, false},
		{"speed NaN", math.NaN(), 0.5, false},
		{"speed +Inf", math.Inf(1), 0.5, false},
	} {
		s := &Site{ID: 0, Speed: tc.speed, Nodes: 1, SecurityLevel: tc.sl}
		if err := s.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err := ValidateSites([]*Site{s}); (err == nil) != tc.ok {
			t.Errorf("%s: ValidateSites = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestValidateSitesPositionalIDs(t *testing.T) {
	sites := []*Site{
		{ID: 0, Speed: 1, Nodes: 1, SecurityLevel: 0.5},
		{ID: 2, Speed: 1, Nodes: 1, SecurityLevel: 0.5},
	}
	if err := ValidateSites(sites); err == nil {
		t.Fatal("non-positional IDs should fail validation")
	}
	if err := ValidateSites(nil); err == nil {
		t.Fatal("empty site list should fail validation")
	}
}

func TestETCMatrix(t *testing.T) {
	sites := []*Site{
		{ID: 0, Speed: 2, Nodes: 1, SecurityLevel: 0.5},
		{ID: 1, Speed: 4, Nodes: 1, SecurityLevel: 0.5},
	}
	jobs := []*Job{
		{ID: 0, Workload: 8, Nodes: 1, SecurityDemand: 0.6},
		{ID: 1, Workload: 16, Nodes: 1, SecurityDemand: 0.6},
	}
	m := ETCMatrix(jobs, sites)
	want := []float64{4, 2, 8, 4}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("ETCMatrix = %v, want %v", m, want)
		}
	}
}

func TestFailProbEquationOne(t *testing.T) {
	m := SecurityModel{Lambda: 3}
	if p := m.FailProb(0.6, 0.8); p != 0 {
		t.Fatalf("SD<=SL must be safe, got %v", p)
	}
	if p := m.FailProb(0.7, 0.7); p != 0 {
		t.Fatalf("SD==SL must be safe, got %v", p)
	}
	want := 1 - math.Exp(-3*0.2)
	if p := m.FailProb(0.9, 0.7); math.Abs(p-want) > 1e-12 {
		t.Fatalf("FailProb = %v, want %v", p, want)
	}
}

func TestFailProbMonotone(t *testing.T) {
	m := NewSecurityModel()
	check := func(a, b uint8) bool {
		sd := 0.6 + float64(a%31)/100.0 // 0.6..0.9
		sl1 := 0.4 + float64(b%61)/100.0
		sl2 := sl1 + 0.05
		p1 := m.FailProb(sd, sl1)
		p2 := m.FailProb(sd, sl2)
		return p1 >= p2 && p1 >= 0 && p1 < 1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxDeficitInvertsFailProb(t *testing.T) {
	m := NewSecurityModel()
	for _, f := range []float64{0.1, 0.3, 0.5, 0.9} {
		d := m.MaxDeficit(f)
		// At exactly the deficit the probability equals f.
		if p := m.FailProb(0.6+d, 0.6); math.Abs(p-f) > 1e-9 {
			t.Fatalf("FailProb at MaxDeficit(%v) = %v", f, p)
		}
	}
	if m.MaxDeficit(0) != 0 {
		t.Fatal("MaxDeficit(0) must be 0")
	}
	if !math.IsInf(m.MaxDeficit(1), 1) {
		t.Fatal("MaxDeficit(1) must be +Inf")
	}
}

// TestDeficitBandAgreesWithAdmits is DeficitBand's contract: outside the
// band the compare alone gives Admits' answer. Thresholds run to both
// ends of (0, 1), where the cut's slope in f vanishes or blows up and
// the edges clamp, λ over ten orders of magnitude, and every level is
// probed at the cut, at both edges and a few ulps either side of each.
func TestDeficitBandAgreesWithAdmits(t *testing.T) {
	for _, p := range []Policy{SecurePolicy(), RiskyPolicy(), FRiskyPolicy(0), FRiskyPolicy(1),
		FRiskyPolicy(-0.5), FRiskyPolicy(math.NaN()), {Mode: FRisky, F: 0.5}, {Mode: FRisky, F: 0.5, Model: SecurityModel{Lambda: math.NaN()}}} {
		if _, _, ok := p.DeficitBand(); ok {
			t.Fatalf("%+v: every probe must go through Admits", p)
		}
	}
	r := rng.New(41)
	fs := []float64{1e-300, 1e-12, 1e-9, 2e-9, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-3, 1 - 2e-9, 1 - 1e-9, 1 - 1e-12, math.Nextafter(1, 0)}
	for _, lambda := range []float64{1e-5, 0.5, DefaultLambda, 40, 1e5} {
		for _, f := range fs {
			p := Policy{Mode: FRisky, F: f, Model: SecurityModel{Lambda: lambda}}
			lo, hi, ok := p.DeficitBand()
			if !ok || !(0 <= lo && lo <= hi) {
				t.Fatalf("λ=%v f=%v: band [%v, %v] ok=%v", lambda, f, lo, hi, ok)
			}
			for trial := 0; trial < 200; trial++ {
				site := &Site{SecurityLevel: r.Float64()}
				targets := []float64{p.Model.MaxDeficit(f), lo, hi, r.Float64() * 2 * p.Model.MaxDeficit(f), -r.Float64()}
				for _, target := range targets {
					if math.IsInf(target, 0) {
						continue
					}
					for _, n := range []int64{0, 1, -1, 2, -2, 1024, -1024} {
						sd := site.SecurityLevel + target
						if sd > 0 {
							sd = math.Float64frombits(uint64(int64(math.Float64bits(sd)) + n))
						}
						j := &Job{SecurityDemand: sd}
						d, got := sd-site.SecurityLevel, p.Admits(j, site)
						if (d <= lo && !got) || (d >= hi && got) {
							t.Fatalf("λ=%v f=%v: deficit %v outside [%v, %v] but Admits = %v", lambda, f, d, lo, hi, got)
						}
					}
				}
			}
		}
	}
}

func TestPolicyAdmits(t *testing.T) {
	unsafe := &Site{ID: 0, Speed: 1, Nodes: 1, SecurityLevel: 0.5}
	nearSafe := &Site{ID: 1, Speed: 1, Nodes: 1, SecurityLevel: 0.75}
	safe := &Site{ID: 2, Speed: 1, Nodes: 1, SecurityLevel: 0.95}
	j := &Job{ID: 0, Workload: 1, Nodes: 1, SecurityDemand: 0.8}

	sec := SecurePolicy()
	if sec.Admits(j, unsafe) || sec.Admits(j, nearSafe) {
		t.Fatal("secure mode must reject SL<SD sites")
	}
	if !sec.Admits(j, safe) {
		t.Fatal("secure mode must admit SL>=SD sites")
	}

	risky := RiskyPolicy()
	if !risky.Admits(j, unsafe) || !risky.Admits(j, safe) {
		t.Fatal("risky mode must admit everything")
	}

	// f=0.5 with λ=3 admits deficits up to ln2/3 ≈ 0.231.
	fr := FRiskyPolicy(0.5)
	if fr.Admits(j, unsafe) { // deficit 0.3 > 0.231
		t.Fatal("0.5-risky must reject deficit 0.3")
	}
	if !fr.Admits(j, nearSafe) { // deficit 0.05
		t.Fatal("0.5-risky must admit deficit 0.05")
	}

	// f-risky degenerate ends.
	if FRiskyPolicy(0).Admits(j, nearSafe) {
		t.Fatal("0-risky must equal secure")
	}
	if !FRiskyPolicy(1).Admits(j, unsafe) {
		t.Fatal("1-risky must equal risky")
	}
}

func TestMustBeSafeOverridesMode(t *testing.T) {
	exact := &Site{ID: 0, Speed: 1, Nodes: 1, SecurityLevel: 0.8}
	above := &Site{ID: 1, Speed: 1, Nodes: 1, SecurityLevel: 0.81}
	j := &Job{ID: 0, Workload: 1, Nodes: 1, SecurityDemand: 0.8, MustBeSafe: true}
	risky := RiskyPolicy()
	// Strictly safe required: SL == SD is not enough after a failure.
	if risky.Admits(j, exact) {
		t.Fatal("must-be-safe job admitted at SL == SD")
	}
	if !risky.Admits(j, above) {
		t.Fatal("must-be-safe job rejected at SL > SD")
	}
}

func TestEligibleSitesFallback(t *testing.T) {
	sites := []*Site{
		{ID: 0, Speed: 1, Nodes: 1, SecurityLevel: 0.5},
		{ID: 1, Speed: 1, Nodes: 1, SecurityLevel: 0.7},
	}
	j := &Job{ID: 0, Workload: 1, Nodes: 1, SecurityDemand: 0.9}
	idx, fellBack := SecurePolicy().EligibleSites(j, sites)
	if !fellBack {
		t.Fatal("expected fallback when no site is safe")
	}
	if len(idx) != 1 || idx[0] != 1 {
		t.Fatalf("fallback should pick max-SL site, got %v", idx)
	}

	idx, fellBack = RiskyPolicy().EligibleSites(j, sites)
	if fellBack || len(idx) != 2 {
		t.Fatalf("risky should admit all, got %v fellBack=%v", idx, fellBack)
	}
}

func TestEligibleMask(t *testing.T) {
	sites := []*Site{
		{ID: 0, Speed: 1, Nodes: 1, SecurityLevel: 0.95},
		{ID: 1, Speed: 1, Nodes: 1, SecurityLevel: 0.5},
	}
	j := &Job{ID: 0, Workload: 1, Nodes: 1, SecurityDemand: 0.9}
	mask := make([]bool, 2)
	if !SecurePolicy().EligibleMask(j, sites, mask) {
		t.Fatal("expected an eligible site")
	}
	if !mask[0] || mask[1] {
		t.Fatalf("mask = %v", mask)
	}
}

func TestPolicyNames(t *testing.T) {
	if got := SecurePolicy().Name(); got != "Secure" {
		t.Fatalf("got %q", got)
	}
	if got := RiskyPolicy().Name(); got != "Risky" {
		t.Fatalf("got %q", got)
	}
	if got := FRiskyPolicy(0.5).Name(); got != "0.5-Risky" {
		t.Fatalf("got %q", got)
	}
}

func TestNASPlatform(t *testing.T) {
	cfg := NASPlatform()
	sites, err := cfg.Generate(rng.New(1).Derive("sites"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 12 {
		t.Fatalf("NAS platform has %d sites, want 12", len(sites))
	}
	var total float64
	sixteens := 0
	for _, s := range sites {
		total += s.Speed
		if s.Nodes == 16 {
			sixteens++
		}
		if s.SecurityLevel < 0.4 || s.SecurityLevel > 1.0 {
			t.Fatalf("SL %v out of Table 1 range", s.SecurityLevel)
		}
	}
	if total != 128 {
		t.Fatalf("aggregate speed %v, want 128 (the iPSC/860 node count)", total)
	}
	if sixteens != 4 {
		t.Fatalf("%d sixteen-node sites, want 4", sixteens)
	}
	if err := ValidateSites(sites); err != nil {
		t.Fatal(err)
	}
}

func TestPSAPlatform(t *testing.T) {
	cfg := PSAPlatform()
	sites, err := cfg.Generate(rng.New(2).Derive("sites"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 20 {
		t.Fatalf("PSA platform has %d sites, want 20", len(sites))
	}
	levels := map[float64]bool{}
	for _, s := range sites {
		levels[s.Speed] = true
	}
	if len(levels) != 10 {
		t.Fatalf("PSA speeds span %d levels, want 10", len(levels))
	}
}

func TestGuaranteeSafeSL(t *testing.T) {
	// Across many seeds, the generated platform must always contain a
	// site able to host the max demand (0.9) safely.
	for seed := uint64(0); seed < 200; seed++ {
		sites, err := NASPlatform().Generate(rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		level, _ := MaxSecurityLevel(sites)
		if level <= 0.9 {
			t.Fatalf("seed %d: max SL %v cannot safely host SD=0.9", seed, level)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := PSAPlatform().Generate(rng.New(7))
	b, _ := PSAPlatform().Generate(rng.New(7))
	for i := range a {
		if a[i].SecurityLevel != b[i].SecurityLevel {
			t.Fatal("platform generation not deterministic")
		}
	}
}

func TestTotalWorkloadAndSpeed(t *testing.T) {
	jobs := []*Job{
		{ID: 0, Workload: 3, Nodes: 1, SecurityDemand: 0.6},
		{ID: 1, Workload: 4, Nodes: 1, SecurityDemand: 0.6},
	}
	if TotalWorkload(jobs) != 7 {
		t.Fatal("TotalWorkload wrong")
	}
	sites := []*Site{
		{ID: 0, Speed: 2, Nodes: 1, SecurityLevel: 0.5},
		{ID: 1, Speed: 5, Nodes: 1, SecurityLevel: 0.5},
	}
	if TotalSpeed(sites) != 7 {
		t.Fatal("TotalSpeed wrong")
	}
}

func TestCloneAll(t *testing.T) {
	jobs := []*Job{
		{ID: 0, Workload: 3, Nodes: 1, SecurityDemand: 0.6, Failures: 1, MustBeSafe: true},
	}
	c := CloneAll(jobs)
	if c[0] == jobs[0] || c[0].Failures != 0 || c[0].MustBeSafe {
		t.Fatal("CloneAll must deep-copy and reset")
	}
}

func TestPlatformConfigValidate(t *testing.T) {
	bad := PlatformConfig{Speeds: []float64{1}, Nodes: []int{1, 2}, SLMin: 0.4, SLMax: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("mismatched speeds/nodes should fail")
	}
	bad2 := PlatformConfig{Speeds: []float64{1}, Nodes: []int{1}, SLMin: 0.9, SLMax: 0.4}
	if err := bad2.Validate(); err == nil {
		t.Fatal("inverted SL range should fail")
	}
}
