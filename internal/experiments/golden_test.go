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

// runGolden runs one figure at the golden scale and seed and compares
// its output with testdata/golden/<name>. Workers is left on auto: the
// fan-out layer is result-invariant, and the suite doubles as a
// regression test of that claim. The subtest is named after the draw
// contract the goldens were generated under (rng.V2, the only one), so
// a later contract change shows up as a new subtest name, not a silent
// rewrite of this one.
func runGolden(t *testing.T, name string, run func(Setup) (string, error)) {
	t.Run("v2", func(t *testing.T) {
		s := TestSetup()
		s.Seed = 11
		got, err := run(s)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, filepath.Join("testdata", "golden", name), got)
	})
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
