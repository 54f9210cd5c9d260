package rng

import (
	"fmt"
	"testing"
)

// window collects the next n outputs of a copy of s (the original is
// not advanced).
func window(s *Stream, n int) []uint64 {
	c := *s
	out := make([]uint64, n)
	for i := range out {
		out[i] = c.Uint64()
	}
	return out
}

// assertDisjointWindows fails if any 64-bit output appears in two of
// the windows. With 64-bit outputs and a few thousand samples, a single
// honest collision has probability ~2^-40; any overlap means the
// streams share a subsequence.
func assertDisjointWindows(t *testing.T, names []string, windows [][]uint64) {
	t.Helper()
	seen := make(map[uint64]int, len(windows)*len(windows[0]))
	for wi, w := range windows {
		for _, v := range w {
			if prev, dup := seen[v]; dup && prev != wi {
				t.Fatalf("streams %s and %s share output %#x", names[prev], names[wi], v)
			}
			seen[v] = wi
		}
	}
}

// TestForkWindowsPairwiseDisjoint is the stronger form of the sibling
// independence test: not only do forks disagree position-by-position,
// their sampled output windows are pairwise non-overlapping — no fork
// wanders into a sibling's subsequence at any offset within the window.
func TestForkWindowsPairwiseDisjoint(t *testing.T) {
	const forks, width = 16, 4096
	parent := New(99)
	names := make([]string, forks)
	windows := make([][]uint64, forks)
	for i := 0; i < forks; i++ {
		names[i] = fmt.Sprintf("Fork(%d)", i)
		windows[i] = window(parent.Fork(i), width)
	}
	assertDisjointWindows(t, names, windows)
}

// TestJumpIsFixedStride verifies the documented 2^128-stride semantics
// structurally: Jump is a fixed power of the engine's linear transition
// map, so it commutes with ordinary stepping — jumping then advancing n
// steps reaches exactly the state of advancing n steps then jumping.
// A Jump that were anything other than a constant T^k (for the one
// engine transition T) would fail this for some n.
func TestJumpIsFixedStride(t *testing.T) {
	for _, n := range []int{1, 7, 64, 1000} {
		a := New(123)
		a.Jump()
		for i := 0; i < n; i++ {
			a.Uint64()
		}
		b := New(123)
		for i := 0; i < n; i++ {
			b.Uint64()
		}
		b.Jump()
		for i := 0; i < 100; i++ {
			if a.Uint64() != b.Uint64() {
				t.Fatalf("n=%d: jump-then-step diverged from step-then-jump", n)
			}
		}
	}
}

// TestJumpPartitionsSequence: successive jumps partition the master
// sequence into blocks whose sampled windows never overlap — the
// classical use of Jump to hand out provably disjoint subsequences.
func TestJumpPartitionsSequence(t *testing.T) {
	const blocks, width = 8, 4096
	s := New(7)
	names := make([]string, blocks)
	windows := make([][]uint64, blocks)
	for i := 0; i < blocks; i++ {
		names[i] = fmt.Sprintf("jump^%d", i)
		windows[i] = window(s, width)
		s.Jump()
	}
	assertDisjointWindows(t, names, windows)
}

// codebaseLabels are the Derive/DeriveIndexed labels the repository
// actually uses (grep for `Derive(` when adding one). The injectivity
// test below is what lets every caller assume two distinct labels give
// two unrelated streams.
var codebaseLabels = []string{
	"engine", "engine/failtime", "engine/failures",
	"jobs", "loadgen", "nas/arrivals", "nas/runtimes", "nas/sd",
	"nas/sizes", "psa/arrivals", "psa/levels", "psa/sd", "random",
	"recpsa/arrivals", "recpsa/spec", "sched", "scheduler", "sites",
	"stga", "swf/sd", "training", "churn", "deceptive", "sd",
	// DeriveIndexed(label, i) expands to "label/i": cover the indexed
	// families alongside their neighbors.
	"churn/site/0", "churn/site/1", "churn/site/2",
	"batch/1", "batch/2", "batch/3",
}

// TestDeriveLabelInjective: across every label the codebase uses, the
// derived child streams are pairwise distinct and their sampled output
// windows are disjoint — no two subsystems ever consume the same
// randomness.
func TestDeriveLabelInjective(t *testing.T) {
	parent := New(1)
	windows := make([][]uint64, len(codebaseLabels))
	for i, label := range codebaseLabels {
		windows[i] = window(parent.Derive(label), 512)
	}
	assertDisjointWindows(t, codebaseLabels, windows)

	// And the derivation must not depend on sibling order: deriving the
	// same label twice (parent state unchanged in between) is identical.
	for _, label := range codebaseLabels {
		a, b := parent.Derive(label), parent.Derive(label)
		for i := 0; i < 64; i++ {
			if a.Uint64() != b.Uint64() {
				t.Fatalf("Derive(%q) not reproducible", label)
			}
		}
	}
}

// TestDeriveIndexedMatchesDerive pins the documented DeriveIndexed
// expansion so the label lists above stay meaningful.
func TestDeriveIndexedMatchesDerive(t *testing.T) {
	parent := New(42)
	a := parent.DeriveIndexed("churn/site", 3)
	b := parent.Derive("churn/site/3")
	for i := 0; i < 64; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("DeriveIndexed(label, i) != Derive(label/i)")
		}
	}
}
