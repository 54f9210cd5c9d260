package server

import (
	"slices"

	"trustgrid/internal/idset"
)

// jobOwners is the job-ID registry: every accepted job ID with the
// tenant that owns it. The IDs are an ascending column (idset.Map) whose
// value is an index into a table of tenant names, so the registry holds
// no string per ID and a snapshot reads it in order instead of walking
// and sorting a map (DESIGN.md §14.3). Guarded by Server.idMu.
type jobOwners struct {
	ids   idset.Map[uint32]
	names []string          // tenant index -> tenant ID
	index map[string]uint32 // tenant ID -> tenant index
	lists [][]int           // snapshot's per-tenant lists, reused
}

// add records tenant as id's owner.
func (o *jobOwners) add(id int, tenant string) { o.ids.Put(id, o.intern(tenant)) }

// intern returns tenant's index, giving it the next one if it is new.
func (o *jobOwners) intern(tenant string) uint32 {
	t, ok := o.index[tenant]
	if !ok {
		if o.index == nil {
			o.index = make(map[string]uint32)
		}
		t = uint32(len(o.names))
		o.names = append(o.names, tenant)
		o.index[tenant] = t
	}
	return t
}

// owner returns the tenant that owns id, if id was accepted.
func (o *jobOwners) owner(id int) (string, bool) {
	t, ok := o.ids.Get(id)
	if !ok {
		return "", false
	}
	return o.names[t], true
}

// has reports whether id was accepted.
func (o *jobOwners) has(id int) bool { return o.ids.Has(id) }

// snapshot returns the snapshot's owners field: tenant → ascending IDs,
// leaving out the IDs in skip, nil when nothing is left. One in-order
// pass over the column fills every tenant's list already sorted. The
// lists are reused by the next call, so the result must be consumed
// (marshaled) before it.
func (o *jobOwners) snapshot(skip map[int]struct{}) map[string][]int {
	skipped := make([]int, 0, len(skip))
	for id := range skip {
		skipped = append(skipped, id)
	}
	slices.Sort(skipped)
	for len(o.lists) < len(o.names) {
		o.lists = append(o.lists, nil)
	}
	for t := range o.lists {
		o.lists[t] = o.lists[t][:0]
	}
	ids, owners := o.ids.Columns()
	for i, id := range ids {
		for len(skipped) > 0 && skipped[0] < id {
			skipped = skipped[1:]
		}
		if len(skipped) > 0 && skipped[0] == id {
			skipped = skipped[1:]
			continue
		}
		o.lists[owners[i]] = append(o.lists[owners[i]], id)
	}
	var out map[string][]int
	for t, ids := range o.lists {
		if len(ids) > 0 {
			if out == nil {
				out = make(map[string][]int)
			}
			out[o.names[t]] = ids
		}
	}
	return out
}

// restore installs a snapshot's owners field into an empty registry,
// merging the per-tenant lists into the one ascending column as it goes.
func (o *jobOwners) restore(byTenant map[string][]int) {
	type run struct {
		ids    []int
		tenant uint32
	}
	runs := make([]run, 0, len(byTenant))
	for tenant, ids := range byTenant {
		runs = append(runs, run{ids, o.intern(tenant)})
	}
	for {
		next := -1
		for r := range runs {
			if len(runs[r].ids) > 0 && (next < 0 || runs[r].ids[0] < runs[next].ids[0]) {
				next = r
			}
		}
		if next < 0 {
			return
		}
		o.ids.Put(runs[next].ids[0], runs[next].tenant)
		runs[next].ids = runs[next].ids[1:]
	}
}
