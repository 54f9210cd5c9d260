package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden-figure regression suite: canonical benchsuite outputs at a
// small fixed scale, committed under testdata/golden/ and compared
// byte-for-byte. A refactor that changes any paper number — a reordered
// rng draw, a float reassociation, an altered tie-break — fails here
// before it silently rewrites the figures. Regenerate intentionally
// with:
//
//	go test ./internal/experiments -run TestGolden -update
var updateGolden = flag.Bool("update", false, "rewrite the golden experiment outputs under testdata/golden/")

// goldenRNGVersion narrows the suite to one draw contract. By default
// every golden runs under both: v1 against the original goldens under
// testdata/golden/, v2 (the batched DrawsV2 layout the benchmark runs)
// against testdata/golden/v2/, so neither contract can silently drift
// into the other. Regenerate one set with:
//
//	go test ./internal/experiments -run TestGolden -update -rng-version=2
var goldenRNGVersion = flag.Int("rng-version", 0, "draw contract for the golden suite: 0 = both (default), 1 = original serial sequence, 2 = batched DrawsV2 (goldens under testdata/golden/v2/)")

// goldenSetup pins the scale and seed of every golden run. Workers is
// left on auto: the fan-out layer is result-invariant, and the suite
// doubles as a regression test of that claim.
func goldenSetup(version int) Setup {
	s := TestSetup()
	s.Seed = 11
	s.RNGVersion = version
	return s
}

// goldenPath maps a figure name to its on-disk golden file for a draw
// contract. v1 keeps the historical flat layout.
func goldenPath(version int, name string) string {
	if version == 1 {
		return filepath.Join("testdata", "golden", name)
	}
	return filepath.Join("testdata", "golden", fmt.Sprintf("v%d", version), name)
}

// runGolden runs one figure as a subtest per selected draw contract
// (v1, v2) and compares each output with that contract's golden file.
func runGolden(t *testing.T, name string, run func(Setup) (string, error)) {
	versions := []int{1, 2}
	if *goldenRNGVersion != 0 {
		versions = []int{*goldenRNGVersion}
	}
	for _, v := range versions {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			got, err := run(goldenSetup(v))
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, goldenPath(v, name), got)
		})
	}
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if got == "" {
		t.Fatal("experiment produced empty output")
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with -update): %v", path, err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from its golden output.\nIf the change is intentional, rerun with -update and review the diff.\n%s",
			path, firstDiff(string(want), got))
	}
}

// firstDiff renders the first differing line for a readable failure.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("first difference at line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: golden %d vs got %d", len(wl), len(gl))
}

func TestGoldenFig7a(t *testing.T) {
	runGolden(t, "fig7a.csv", func(s Setup) (string, error) {
		r, err := RunFig7a(s)
		if err != nil {
			return "", err
		}
		return r.CSV(), nil
	})
}

func TestGoldenFig10(t *testing.T) {
	runGolden(t, "fig10.csv", func(s Setup) (string, error) {
		r, err := RunFig10(s, []int{250, 500})
		if err != nil {
			return "", err
		}
		return r.CSV(), nil
	})
}

func TestGoldenChurn(t *testing.T) {
	runGolden(t, "churn.csv", func(s Setup) (string, error) {
		r, err := RunChurnStudy(s)
		if err != nil {
			return "", err
		}
		return r.CSV(), nil
	})
}

func TestGoldenDAGStudy(t *testing.T) {
	runGolden(t, "dagstudy.csv", func(s Setup) (string, error) {
		r, err := RunDAGStudy(s)
		if err != nil {
			return "", err
		}
		return r.CSV(), nil
	})
}

func TestGoldenFig7b(t *testing.T) {
	runGolden(t, "fig7b.csv", func(s Setup) (string, error) {
		r, err := RunFig7b(s, []int{5, 15, 30})
		if err != nil {
			return "", err
		}
		return r.CSV(), nil
	})
}
