package grid

import (
	"bytes"
	"math"
	"testing"

	"trustgrid/internal/rng"
)

func TestChurnGenerateDeterministic(t *testing.T) {
	cfg := DefaultChurnConfig(100000)
	a, err := cfg.Generate(rng.New(3), 12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Generate(rng.New(3), 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("no churn events generated")
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestChurnGenerateValidAndPaired(t *testing.T) {
	cfg := DefaultChurnConfig(50000)
	events, err := cfg.Generate(rng.New(7), 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateChurn(events, 20); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	// Every departure has a matching recovery (possibly past the
	// horizon), so no site is lost to truncation.
	down := make(map[int]int)
	degraded := make(map[int]int)
	for _, ev := range events {
		switch ev.Kind {
		case ChurnCrash, ChurnDrain:
			down[ev.Site]++
		case ChurnJoin:
			down[ev.Site]--
		case ChurnDegrade:
			degraded[ev.Site]++
		case ChurnRestore:
			degraded[ev.Site]--
		}
	}
	for site, n := range down {
		if n != 0 {
			t.Errorf("site %d: %d unmatched departures", site, n)
		}
	}
	for site, n := range degraded {
		if n != 0 {
			t.Errorf("site %d: %d unmatched degradations", site, n)
		}
	}
}

func TestChurnSiteStreamsIndependent(t *testing.T) {
	// A site's personal event stream must not depend on the platform
	// size: growing the grid leaves existing sites' churn untouched.
	cfg := DefaultChurnConfig(80000)
	small, err := cfg.Generate(rng.New(5), 4)
	if err != nil {
		t.Fatal(err)
	}
	large, err := cfg.Generate(rng.New(5), 8)
	if err != nil {
		t.Fatal(err)
	}
	filter := func(evs []ChurnEvent, site int) []ChurnEvent {
		var out []ChurnEvent
		for _, ev := range evs {
			if ev.Site == site {
				out = append(out, ev)
			}
		}
		return out
	}
	for site := 0; site < 4; site++ {
		a, b := filter(small, site), filter(large, site)
		if len(a) != len(b) {
			t.Fatalf("site %d: %d events in small grid, %d in large", site, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("site %d event %d differs across platform sizes", site, i)
			}
		}
	}
}

func TestChurnTraceRoundTrip(t *testing.T) {
	events, err := DefaultChurnConfig(30000).Generate(rng.New(11), 6)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChurnTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := ReadChurnTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("round trip lost events: %d vs %d", len(back), len(events))
	}
	for i := range events {
		if events[i] != back[i] {
			t.Fatalf("event %d differs after round trip: %+v vs %+v", i, events[i], back[i])
		}
	}
}

func TestChurnKindTextRoundTrip(t *testing.T) {
	for k := range churnKindNames {
		kind := ChurnKind(k)
		b, err := kind.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back ChurnKind
		if err := back.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if back != kind {
			t.Fatalf("kind %v round-tripped to %v", kind, back)
		}
	}
	var k ChurnKind
	if err := k.UnmarshalText([]byte("meltdown")); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestValidateChurnRejectsBadTraces(t *testing.T) {
	cases := []struct {
		name   string
		events []ChurnEvent
	}{
		{"negative time", []ChurnEvent{{Time: -1, Site: 0, Kind: ChurnCrash}}},
		{"NaN time", []ChurnEvent{{Time: math.NaN(), Site: 0, Kind: ChurnCrash}}},
		{"unsorted", []ChurnEvent{{Time: 10, Site: 0, Kind: ChurnCrash}, {Time: 5, Site: 0, Kind: ChurnJoin}}},
		{"site out of range", []ChurnEvent{{Time: 1, Site: 3, Kind: ChurnCrash}}},
		{"bad factor", []ChurnEvent{{Time: 1, Site: 0, Kind: ChurnDegrade, Factor: 1.5}}},
		{"zero factor", []ChurnEvent{{Time: 1, Site: 0, Kind: ChurnDegrade}}},
		{"unknown kind", []ChurnEvent{{Time: 1, Site: 0, Kind: ChurnKind(99)}}},
	}
	for _, tc := range cases {
		if err := ValidateChurn(tc.events, 3); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestChurnConfigValidate(t *testing.T) {
	ok := DefaultChurnConfig(1000)
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []ChurnConfig{
		{},
		{Horizon: 100, MTBF: 0, Outage: 10},
		{Horizon: 100, MTBF: 50, Outage: 0},
		{Horizon: 100, MTBF: 50, Outage: 10, PDrain: 0.7, PDegrade: 0.6},
		{Horizon: 100, MTBF: 50, Outage: 10, PDegrade: 0.2, DegradeMin: 0, DegradeMax: 0.5, DegradeMean: 5},
		{Horizon: 100, MTBF: 50, Outage: 10, PDegrade: 0.2, DegradeMin: 0.3, DegradeMax: 0.5, DegradeMean: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestDeceptiveLevels(t *testing.T) {
	sites := make([]*Site, 10)
	for i := range sites {
		sites[i] = &Site{ID: i, Speed: 1, Nodes: 1, SecurityLevel: 0.9}
	}
	levels := DeceptiveLevels(sites, 0.4, 0.3, rng.New(2))
	again := DeceptiveLevels(sites, 0.4, 0.3, rng.New(2))
	lowered := 0
	for i, l := range levels {
		if l != again[i] {
			t.Fatal("DeceptiveLevels not deterministic")
		}
		switch {
		case l == 0.9:
		case math.Abs(l-0.6) < 1e-12:
			lowered++
		default:
			t.Fatalf("site %d unexpected true level %v", i, l)
		}
		if sites[i].SecurityLevel != 0.9 {
			t.Fatal("DeceptiveLevels mutated the site")
		}
	}
	if lowered != 4 {
		t.Fatalf("lowered %d sites, want ceil(0.4*10) = 4", lowered)
	}
	// frac 0 is the identity.
	for i, l := range DeceptiveLevels(sites, 0, 0.3, rng.New(2)) {
		if l != sites[i].SecurityLevel {
			t.Fatal("frac=0 changed a level")
		}
	}
}
