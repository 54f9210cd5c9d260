package idset

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// check holds m to the oracle through every read the Map offers: Get and
// Has for every key the run touched and a margin around them, Len, and
// the in-order walk.
func check(t *testing.T, step int, m *Map[uint32], oracle map[int]uint32, lo, hi int) {
	t.Helper()
	if m.Len() != len(oracle) {
		t.Fatalf("step %d: Len = %d, oracle %d", step, m.Len(), len(oracle))
	}
	for k := lo - 2; k <= hi+2; k++ {
		v, ok := m.Get(k)
		want, wantOK := oracle[k]
		if ok != wantOK || v != want || m.Has(k) != wantOK {
			t.Fatalf("step %d: Get(%d) = %d, %v; oracle %d, %v", step, k, v, ok, want, wantOK)
		}
	}
	keys, vals := m.Columns()
	want := make([]int, 0, len(oracle))
	for k := range oracle {
		want = append(want, k)
	}
	slices.Sort(want)
	if !slices.Equal(keys, want) {
		t.Fatalf("step %d: walk keys %v, oracle %v", step, keys, want)
	}
	for i, k := range keys {
		if vals[i] != oracle[k] {
			t.Fatalf("step %d: walk value of %d = %d, oracle %d", step, k, vals[i], oracle[k])
		}
	}
}

// TestMapMatchesOracle runs random operation sequences — ascending,
// late and duplicate inserts, overwritten values, enough late keys to
// cross the fold threshold, and walks in between — against a Go map.
func TestMapMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewPCG(seed, 0))
		var m Map[uint32]
		oracle := make(map[int]uint32)
		var written []int
		top, lo := 0, 0
		steps := 200 + r.IntN(3000)
		for step := 0; step < steps; step++ {
			var k int
			switch op := r.IntN(10); {
			case op < 4: // ascending, with gaps
				top += 1 + r.IntN(3)
				k = top
			case op < 7: // late: anywhere below the top, often a gap
				k = lo + r.IntN(top-lo+1)
			case op < 8: // far below everything so far
				lo -= 1 + r.IntN(5)
				k = lo
			default: // an existing key gets a new value
				if len(written) == 0 {
					continue
				}
				k = written[r.IntN(len(written))]
			}
			v := uint32(r.IntN(7))
			m.Put(k, v)
			oracle[k] = v
			written = append(written, k)
			if r.IntN(100) == 0 {
				check(t, step, &m, oracle, lo, top)
			}
		}
		check(t, steps, &m, oracle, lo, top)
	}
}

// TestMapFoldThreshold crosses the fold threshold exactly: below it the
// late keys are only in the late set and still found; at it they are in
// the column and the late set is empty.
func TestMapFoldThreshold(t *testing.T) {
	var m Map[struct{}]
	n := 1024
	for k := 0; k < 2*n; k += 2 {
		m.Put(k, struct{}{})
	}
	limit := max(minLate, n/lateFraction)
	for i := 1; i < limit; i++ {
		m.Put(2*i-1, struct{}{})
		if len(m.lateKeys) != i || !m.Has(2*i-1) || m.Has(2*i+1) {
			t.Fatalf("after %d late keys: late set %d, Has(%d) %v", i, len(m.lateKeys), 2*i-1, m.Has(2*i-1))
		}
	}
	m.Put(2*limit-1, struct{}{})
	if len(m.late) != 0 || len(m.lateKeys) != 0 || len(m.keys) != n+limit {
		t.Fatalf("at the threshold (%d late keys): late set %d, column %d, want 0 and %d", limit, len(m.lateKeys), len(m.keys), n+limit)
	}
	if m.Len() != n+limit || !slices.IsSorted(m.keys) {
		t.Fatalf("Len %d, sorted %v", m.Len(), slices.IsSorted(m.keys))
	}
}

// TestMapDescendingIsLinear is the worst case: every key below all the
// others. Folds move elements, so a quadratic scheme — inserting each
// late key into the column, or folding at a fixed late-set size — moves
// ~n²/2 of them (3.4e10 here); this one must stay within a constant per
// key.
func TestMapDescendingIsLinear(t *testing.T) {
	const n = 1 << 18
	var m Map[struct{}]
	for k := n; k > 0; k-- {
		m.Put(k, struct{}{})
	}
	keys, _ := m.Columns()
	if len(keys) != n || keys[0] != 1 || keys[n-1] != n || !slices.IsSorted(keys) {
		t.Fatalf("column of %d keys, [%d … %d], sorted %v", len(keys), keys[0], keys[len(keys)-1], slices.IsSorted(keys))
	}
	if limit := 2 * (lateFraction + 1) * n; m.moves > limit {
		t.Fatalf("%d descending inserts moved %d elements (%.1f per key), want at most %d", n, m.moves, float64(m.moves)/n, limit)
	}
	t.Logf("%d descending inserts: %d moves (%.2f per key)", n, m.moves, float64(m.moves)/n)
}

// TestMapDropMatchesOracle interleaves DropThrough with ascending, late
// and overwritten inserts, and holds the Map to a Go map: the keys at or
// below each cut are gone, late ones included, and every other key keeps
// its value.
func TestMapDropMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewPCG(seed, 7))
		var m Map[uint32]
		oracle := make(map[int]uint32)
		floor, top := 0, 0 // no key at or below floor is ever written again
		for step := 0; step < 3000; step++ {
			switch op := r.IntN(10); {
			case op < 5: // ascending
				top += 1 + r.IntN(3)
				v := uint32(r.IntN(4))
				m.Put(top, v)
				oracle[top] = v
			case op < 8: // late, above the floor
				k := floor + 1 + r.IntN(top-floor+1)
				v := uint32(r.IntN(4))
				m.Put(k, v)
				oracle[k] = v
				top = max(top, k)
			default: // drop through a cut at or above the floor
				cut := floor + r.IntN(top-floor+2)
				m.DropThrough(cut)
				for k := range oracle {
					if k <= cut {
						delete(oracle, k)
					}
				}
				floor = max(floor, cut)
				top = max(top, floor)
			}
			if step%7 == 0 {
				check(t, step, &m, oracle, floor-2, top)
			}
		}
	}
}

// TestMapDropReusesStorage: a column that keeps a bounded window of keys
// — append at the top, drop at the bottom — holds storage for the window,
// not for every key ever written.
func TestMapDropReusesStorage(t *testing.T) {
	var m Map[struct{}]
	for k := 0; k < 1_000_000; k++ {
		m.Put(k, struct{}{})
		if k >= 500 {
			m.DropThrough(k - 500)
		}
	}
	if m.Len() != 500 || cap(m.keys) > 4096 {
		t.Fatalf("Len %d, column capacity %d; want 500 keys in a few thousand slots", m.Len(), cap(m.keys))
	}
}
