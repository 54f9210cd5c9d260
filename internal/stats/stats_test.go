package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{1, 2, 3}, 2},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); got != c.want {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) must be NaN (package contract)")
	}
}

// TestDegenerateInputContract pins the package-level contract for every
// helper: empty aggregates are NaN, spread of n<2 is 0, empty index
// selection is -1, and NaN elements propagate without panicking.
func TestDegenerateInputContract(t *testing.T) {
	// Empty input.
	for name, got := range map[string]float64{
		"Mean":       Mean(nil),
		"Min":        Min(nil),
		"Max":        Max(nil),
		"Median":     Median(nil),
		"Percentile": Percentile(nil, 50),
	} {
		if !math.IsNaN(got) {
			t.Errorf("%s(nil) = %v, want NaN", name, got)
		}
	}
	if StdDev(nil) != 0 || CI95(nil) != 0 {
		t.Error("spread of empty input must be 0")
	}
	if ArgMin(nil) != -1 {
		t.Error("ArgMin(nil) must be -1")
	}

	// Single element: aggregates are the element, spread is 0.
	one := []float64{7.5}
	for name, got := range map[string]float64{
		"Mean":       Mean(one),
		"Min":        Min(one),
		"Max":        Max(one),
		"Median":     Median(one),
		"Percentile": Percentile(one, 99),
	} {
		if got != 7.5 {
			t.Errorf("%s([7.5]) = %v, want 7.5", name, got)
		}
	}
	if StdDev(one) != 0 || CI95(one) != 0 {
		t.Error("spread of a single observation must be 0")
	}
	if ArgMin(one) != 0 {
		t.Error("ArgMin of one element must be 0")
	}

	// NaN-bearing input: no panic, NaN propagates through the mean, and
	// the order statistics stay defined (sort places NaN first).
	withNaN := []float64{1, math.NaN(), 3}
	if !math.IsNaN(Mean(withNaN)) {
		t.Error("Mean with a NaN element must be NaN")
	}
	if !math.IsNaN(StdDev(withNaN)) {
		t.Error("StdDev with a NaN element must be NaN")
	}
	if got := Max(withNaN); got != 3 {
		t.Errorf("Max with NaN element = %v, want 3", got)
	}
	if got := Percentile(withNaN, 100); got != 3 {
		t.Errorf("P100 with NaN element = %v, want 3", got)
	}
	_ = Median(withNaN) // defined by sort order; must not panic
	_ = ArgMin(withNaN)
}

func TestStdDev(t *testing.T) {
	if StdDev(nil) != 0 || StdDev([]float64{3}) != 0 {
		t.Fatal("StdDev of <2 samples must be 0")
	}
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	want := math.Sqrt(32.0 / 7.0) // sample variance
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("StdDev = %v, want %v", got, want)
	}
}

func TestCI95(t *testing.T) {
	if CI95([]float64{1}) != 0 {
		t.Fatal("CI95 of one sample must be 0")
	}
	xs := []float64{10, 12, 14, 16}
	want := 1.96 * StdDev(xs) / 2 // sqrt(4) = 2
	if got := CI95(xs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("CI95 = %v, want %v", got, want)
	}
}

func TestTCI95(t *testing.T) {
	if TCI95([]float64{1}) != 0 || TCI95(nil) != 0 {
		t.Fatal("TCI95 of fewer than two samples must be 0")
	}
	xs := []float64{10, 12, 14, 16}
	want := 3.182 * StdDev(xs) / 2 // t(0.975, 3), sqrt(4) = 2
	if got := TCI95(xs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("TCI95 = %v, want %v", got, want)
	}
	// Past the table the expansion meets the table's last entry and
	// falls toward z = 1.96.
	for nu, want := range map[int]float64{31: 2.0395, 40: 2.0211, 60: 2.0003, 120: 1.9799, 1000: 1.9623} {
		if got := t975(nu); math.Abs(got-want) > 2e-4 {
			t.Fatalf("t975(%d) = %v, want %v", nu, got, want)
		}
	}
}

func TestMinMaxMedian(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if Min(xs) != 1 || Max(xs) != 5 {
		t.Fatal("Min/Max wrong")
	}
	if Median(xs) != 3 {
		t.Fatalf("odd median = %v", Median(xs))
	}
	if Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("even median wrong")
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) || !math.IsNaN(Median(nil)) {
		t.Fatal("empty inputs must be NaN")
	}
	// Median must not mutate its argument.
	if xs[0] != 3 || xs[4] != 5 {
		t.Fatal("Median mutated input")
	}
}

func TestArgMin(t *testing.T) {
	if ArgMin(nil) != -1 {
		t.Fatal("empty ArgMin must be -1")
	}
	if got := ArgMin([]float64{3, 1, 2, 1}); got != 1 {
		t.Fatalf("ArgMin = %d, want first minimum 1", got)
	}
}

func TestSample(t *testing.T) {
	var s Sample
	for _, v := range []float64{1, 2, 3} {
		s.Add(v)
	}
	if s.Mean() != 2 {
		t.Fatal("Sample mean wrong")
	}
	if !strings.Contains(s.String(), "±") {
		t.Fatalf("Sample string %q missing ±", s.String())
	}
}

func TestHumanSeconds(t *testing.T) {
	if got := HumanSeconds(100); !strings.HasSuffix(got, " s") || strings.Contains(got, "(") {
		t.Fatalf("short duration rendered %q", got)
	}
	if got := HumanSeconds(2 * 3600); !strings.Contains(got, "h)") {
		t.Fatalf("hours rendered %q", got)
	}
	if got := HumanSeconds(3 * 86400); !strings.Contains(got, "days") {
		t.Fatalf("days rendered %q", got)
	}
}

// Properties: Min <= Mean <= Max; StdDev >= 0; shifting by a constant
// shifts the mean and preserves the deviation.
func TestMomentsProperty(t *testing.T) {
	check := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
				xs = append(xs, v)
			}
		}
		if len(xs) < 2 {
			return true
		}
		m, lo, hi := Mean(xs), Min(xs), Max(xs)
		if m < lo-1e-6 || m > hi+1e-6 {
			return false
		}
		sd := StdDev(xs)
		if sd < 0 {
			return false
		}
		shifted := make([]float64, len(xs))
		for i, v := range xs {
			shifted[i] = v + 1000
		}
		if math.Abs(Mean(shifted)-(m+1000)) > 1e-6 {
			return false
		}
		return math.Abs(StdDev(shifted)-sd) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
