package fuzzy_test

import (
	"fmt"
	"log"
	"math"

	"trustgrid/internal/fuzzy"
)

// ExampleSecurityLevel derives site security levels from observable
// security attributes, the paper's ref [23] substrate, instead of
// sampling them uniformly. The secure mode places a job only where
// SL >= SD, so the last column is the share of the PSA workload's
// demand range, SD uniform in [0.6, 0.9], that each site may serve.
func ExampleSecurityLevel() {
	profiles := []struct {
		name  string
		attrs fuzzy.Attributes
	}{
		{"national-lab", fuzzy.Attributes{IntrusionDetection: 0.95, Firewall: 0.95, Authentication: 0.9, SuccessHistory: 0.98}},
		{"university-hpc", fuzzy.Attributes{IntrusionDetection: 0.7, Firewall: 0.8, Authentication: 0.7, SuccessHistory: 0.85}},
		{"department-cluster", fuzzy.Attributes{IntrusionDetection: 0.4, Firewall: 0.6, Authentication: 0.5, SuccessHistory: 0.6}},
		{"campus-lab", fuzzy.Attributes{IntrusionDetection: 0.15, Firewall: 0.3, Authentication: 0.3, SuccessHistory: 0.35}},
	}
	fmt.Printf("%-20s %-6s %-5s %s\n", "profile", "trust", "SL", "secure share")
	for _, p := range profiles {
		trust, err := fuzzy.TrustIndex(p.attrs)
		if err != nil {
			log.Fatal(err)
		}
		sl, err := fuzzy.SecurityLevel(p.attrs)
		if err != nil {
			log.Fatal(err)
		}
		share := math.Min(1, math.Max(0, (sl-0.6)/0.3))
		fmt.Printf("%-20s %-6.2f %-5.2f %3.0f%%\n", p.name, trust, sl, 100*share)
	}
	// Output:
	// profile              trust  SL    secure share
	// national-lab         0.83   0.90  100%
	// university-hpc       0.78   0.87   89%
	// department-cluster   0.53   0.72   40%
	// campus-lab           0.35   0.61    3%
}
