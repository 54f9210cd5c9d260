package server

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
)

// walkThenSort is the registry snapshot as a map-based registry would
// build it: walk every (ID, tenant) above the horizon, sort each
// tenant's list.
func walkThenSort(owners map[int]string, retired bool, horizon int) map[string][]int {
	var out map[string][]int
	for id, tenant := range owners {
		if !retired || id > horizon {
			if out == nil {
				out = make(map[string][]int)
			}
			out[tenant] = append(out[tenant], id)
		}
	}
	for _, ids := range out {
		sort.Ints(ids)
	}
	return out
}

// byTenant decodes an owners field into the tenant → ascending IDs map
// walkThenSort builds; nil for a nil field.
func byTenant(t *testing.T, c *ownerColumns) map[string][]int {
	t.Helper()
	if c == nil {
		return nil
	}
	ids, tenants, err := c.decode()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]int)
	for i, id := range ids {
		out[c.Names[tenants[i]]] = append(out[c.Names[tenants[i]]], id)
	}
	return out
}

// oracleHorizon is the retention horizon of a registry that keeps every
// ID: the largest accepted ID such that every accepted ID at or below
// it is done, or prev when the smallest one above prev is not done.
func oracleHorizon(owners map[int]string, done map[int]bool, retired bool, prev int) (int, bool) {
	var ids []int
	for id := range owners {
		if !retired || id > prev {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		if !done[id] {
			break
		}
		prev, retired = id, true
	}
	return prev, retired
}

// TestOwnersSnapshotMatchesWalkThenSort drives the registry the way the
// server does — counter-assigned claims, explicit IDs far below and
// above the counter, completions in any order and retirements between
// submissions — and holds every snapshot, every lookup and the horizon
// to a map oracle that keeps every ID; a restore of each snapshot, with
// the jobs not done as the engines' in-flight set, writes the same
// columns again and refuses the same IDs.
func TestOwnersSnapshotMatchesWalkThenSort(t *testing.T) {
	tenants := []string{"default", "acme", "umbrella", "initech", "hooli"}
	for seed := uint64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewPCG(seed, 1))
		var reg jobOwners
		oracle := make(map[int]string)
		done := make(map[int]bool)
		var horizon int
		var retired bool
		next := 0
		for step := 0; step < 4000; step++ {
			tenant := tenants[r.IntN(len(tenants))]
			var id int
			switch op := r.IntN(10); {
			case op < 4: // live mode: the counter
				next++
				id = next
			case op < 6: // an explicit ID anywhere, mostly below the counter
				id = r.IntN(next+50) - 20
				next = max(next, id)
			case op < 9: // a job completes
				for p := range oracle {
					if !done[p] {
						done[p] = true
						reg.complete(p)
						break
					}
				}
				continue
			default: // a submission commits: the horizon moves
				reg.retire()
				horizon, retired = oracleHorizon(oracle, done, retired, horizon)
				if reg.retired != retired || reg.horizon != horizon {
					t.Fatalf("seed %d step %d: horizon %d (%v), oracle %d (%v)", seed, step, reg.horizon, reg.retired, horizon, retired)
				}
				continue
			}
			if _, dup := oracle[id]; dup || retired && id <= horizon {
				continue // claimIDs refuses duplicates and IDs at or below the horizon
			}
			reg.add(id, tenant)
			oracle[id] = tenant
			if step%250 != 0 {
				continue
			}
			cols := reg.snapshot()
			want := walkThenSort(oracle, retired, horizon)
			if got := byTenant(t, cols); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: snapshot differs from walk-then-sort\n got %v\nwant %v", seed, step, got, want)
			}
			back := jobOwners{horizon: reg.horizon, retired: reg.retired}
			if cols != nil {
				ids, tenants, err := cols.decode()
				if err != nil {
					t.Fatal(err)
				}
				inFlight := make(map[int]struct{})
				for id := range oracle {
					if !done[id] {
						inFlight[id] = struct{}{}
					}
				}
				back.restore(cols.Names, ids, tenants, inFlight)
			}
			if again := back.snapshot(); !reflect.DeepEqual(again, cols) {
				t.Fatalf("seed %d step %d: restored registry snapshots as %+v, want %+v", seed, step, again, cols)
			}
			back.retire()
			if h, ok := oracleHorizon(oracle, done, retired, horizon); back.horizon != h || back.retired != ok {
				t.Fatalf("seed %d step %d: restored registry retires to %d (%v), oracle %d (%v)", seed, step, back.horizon, back.retired, h, ok)
			}
		}
		for id := -25; id <= next+50; id++ {
			owner, ok := reg.owner(id)
			want, wantOK := oracle[id]
			if reg.belowHorizon(id) {
				want, wantOK = "", false
				if !retired || id > horizon {
					t.Fatalf("seed %d: %d is below the registry's horizon %d, oracle's %d", seed, id, reg.horizon, horizon)
				}
			}
			if owner != want || ok != wantOK || reg.has(id) != wantOK {
				t.Fatalf("seed %d: owner(%d) = %q, %v; oracle %q, %v", seed, id, owner, ok, want, wantOK)
			}
		}
	}
}

// TestOwnersSnapshotEmpty: nothing accepted, or everything retired
// below the horizon, is a nil owners field (omitted from the payload).
func TestOwnersSnapshotEmpty(t *testing.T) {
	var reg jobOwners
	if got := reg.snapshot(); got != nil {
		t.Fatalf("empty registry snapshots as %v", got)
	}
	for id := 5; id > 0; id-- {
		reg.add(id, fmt.Sprint("t", id%2))
		reg.complete(id)
	}
	reg.retire()
	if got := reg.snapshot(); got != nil || !reg.belowHorizon(5) || reg.belowHorizon(6) {
		t.Fatalf("all-retired registry snapshots as %v, horizon %d", got, reg.horizon)
	}
}

// TestOwnerColumnsDecodeRefuses: columns that do not describe a
// registry are an error, not a registry.
func TestOwnerColumnsDecodeRefuses(t *testing.T) {
	ok := ownerColumns{IDs: []byte{2, 1, 1}, Tenants: []byte{0, 1, 0}, Names: []string{"a", "b"}}
	if ids, tenants, err := ok.decode(); err != nil || !reflect.DeepEqual(ids, []int{1, 2, 3}) || !reflect.DeepEqual(tenants, []uint32{0, 1, 0}) {
		t.Fatalf("well-formed columns decode as %v, %v, %v", ids, tenants, err)
	}
	for name, c := range map[string]ownerColumns{
		"ids not ascending":   {IDs: []byte{2, 0}, Tenants: []byte{0, 0}, Names: []string{"a"}},
		"index out of table":  {IDs: []byte{2, 1}, Tenants: []byte{0, 2}, Names: []string{"a", "b"}},
		"truncated index":     {IDs: []byte{2}, Tenants: []byte{0x80}, Names: []string{"a"}},
		"fewer indices":       {IDs: []byte{2, 1}, Tenants: []byte{0}, Names: []string{"a"}},
		"more indices":        {IDs: []byte{2}, Tenants: []byte{0, 0}, Names: []string{"a"}},
		"indices without ids": {Tenants: []byte{0}, Names: []string{"a"}},
	} {
		if ids, tenants, err := c.decode(); err == nil {
			t.Errorf("%s: decoded as %v, %v", name, ids, tenants)
		}
	}
}
