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

// TestOwnersSnapshotMatchesWalkThenSort drives the registry the way the
// server does — counter-assigned claims, explicit IDs far below and
// above the counter, claims that stay pending across snapshots and are
// then logged — and holds every snapshot, every lookup and a restore of
// each snapshot to a map oracle.
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
			got := reg.snapshot(pending)
			want := walkThenSort(oracle, pending)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: snapshot differs from walk-then-sort\n got %v\nwant %v", seed, step, got, want)
			}
			var back jobOwners
			back.restore(got)
			if again := back.snapshot(nil); !reflect.DeepEqual(again, want) {
				t.Fatalf("seed %d step %d: restored registry snapshots as %v, want %v", seed, step, again, want)
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
