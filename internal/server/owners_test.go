package server

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
)

// walkThenSort is the registry snapshot as the map-based registry built
// it: walk every (ID, tenant), drop pending IDs, sort each tenant's list.
func walkThenSort(owners map[int]string, pending map[int]struct{}) map[string][]int {
	var out map[string][]int
	for id, tenant := range owners {
		if _, claimed := pending[id]; !claimed {
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

// TestOwnersSnapshotMatchesWalkThenSort drives the registry the way the
// server does — counter-assigned claims, explicit IDs far below and
// above the counter, claims that stay pending across snapshots and are
// then logged — and holds every snapshot, every lookup and a restore of
// each snapshot to a map oracle; a restored registry writes the same
// columns again.
func TestOwnersSnapshotMatchesWalkThenSort(t *testing.T) {
	tenants := []string{"default", "acme", "umbrella", "initech", "hooli"}
	for seed := uint64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewPCG(seed, 1))
		var reg jobOwners
		oracle := make(map[int]string)
		pending := make(map[int]struct{})
		next := 0
		for step := 0; step < 4000; step++ {
			tenant := tenants[r.IntN(len(tenants))]
			var id int
			switch op := r.IntN(10); {
			case op < 5: // live mode: the counter
				next++
				id = next
			case op < 8: // an explicit ID anywhere, mostly below the counter
				id = r.IntN(next+50) - 20
			default: // a pending claim gets logged
				for p := range pending {
					delete(pending, p)
					break
				}
				continue
			}
			if _, dup := oracle[id]; dup {
				continue // claimIDs refuses duplicates
			}
			reg.add(id, tenant)
			oracle[id] = tenant
			if r.IntN(3) == 0 {
				pending[id] = struct{}{}
			}
			if step%250 != 0 {
				continue
			}
			cols := reg.snapshot(pending)
			want := walkThenSort(oracle, pending)
			if got := byTenant(t, cols); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: snapshot differs from walk-then-sort\n got %v\nwant %v", seed, step, got, want)
			}
			var back jobOwners
			if cols != nil {
				ids, tenants, err := cols.decode()
				if err != nil {
					t.Fatal(err)
				}
				back.restore(cols.Names, ids, tenants)
			}
			if again := back.snapshot(nil); !reflect.DeepEqual(again, cols) {
				t.Fatalf("seed %d step %d: restored registry snapshots as %+v, want %+v", seed, step, again, cols)
			}
		}
		for id := -25; id <= next+50; id++ {
			owner, ok := reg.owner(id)
			want, wantOK := oracle[id]
			if owner != want || ok != wantOK || reg.has(id) != wantOK {
				t.Fatalf("seed %d: owner(%d) = %q, %v; oracle %q, %v", seed, id, owner, ok, want, wantOK)
			}
		}
	}
}

// TestOwnersSnapshotEmpty: nothing accepted, or everything still
// pending, is a nil owners field (omitted from the payload) as before.
func TestOwnersSnapshotEmpty(t *testing.T) {
	var reg jobOwners
	if got := reg.snapshot(nil); got != nil {
		t.Fatalf("empty registry snapshots as %v", got)
	}
	pending := make(map[int]struct{})
	for id := 5; id > 0; id-- {
		reg.add(id, fmt.Sprint("t", id%2))
		pending[id] = struct{}{}
	}
	if got := reg.snapshot(pending); got != nil {
		t.Fatalf("all-pending registry snapshots as %v", got)
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
