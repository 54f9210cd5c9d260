package server

import (
	"encoding/binary"
	"fmt"
	"slices"

	"trustgrid/internal/idset"
)

// jobOwners is the job-ID registry: every accepted job ID with the
// tenant that owns it. The IDs are an ascending column (idset.Map) whose
// value is an index into a table of tenant names, so the registry holds
// no string per ID, and a snapshot writes that shape as it stands
// (ownerColumns) instead of walking and sorting a map (DESIGN.md §14.3).
// Guarded by Server.idMu.
type jobOwners struct {
	ids   idset.Map[uint32]
	names []string          // tenant index -> tenant ID
	index map[string]uint32 // tenant ID -> tenant index
	// snapshot's scratch columns, reused: the IDs and tenant indices
	// left once pending IDs are dropped
	keptIDs     []int
	keptTenants []uint32
}

// ownerColumns is the registry as a version-3 snapshot carries it: the
// accepted IDs as an idset byte column, a parallel column of one uvarint
// tenant index per ID, and the tenant-name table those indices point
// into. encoding/json writes the byte columns as base64.
type ownerColumns struct {
	IDs     []byte   `json:"ids"`
	Tenants []byte   `json:"tenants"`
	Names   []string `json:"names"`
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

// snapshot returns the snapshot's owners field, leaving out the IDs in
// skip; nil when nothing is left. Without pending IDs the columns are
// encoded straight from the registry's; otherwise from one in-order pass
// that drops them.
func (o *jobOwners) snapshot(skip map[int]struct{}) *ownerColumns {
	ids, tenants := o.ids.Columns()
	if len(skip) > 0 {
		skipped := make([]int, 0, len(skip))
		for id := range skip {
			skipped = append(skipped, id)
		}
		slices.Sort(skipped)
		o.keptIDs, o.keptTenants = o.keptIDs[:0], o.keptTenants[:0]
		for i, id := range ids {
			for len(skipped) > 0 && skipped[0] < id {
				skipped = skipped[1:]
			}
			if len(skipped) > 0 && skipped[0] == id {
				skipped = skipped[1:]
				continue
			}
			o.keptIDs = append(o.keptIDs, id)
			o.keptTenants = append(o.keptTenants, tenants[i])
		}
		ids, tenants = o.keptIDs, o.keptTenants
	}
	if len(ids) == 0 {
		return nil
	}
	col := make([]byte, 0, len(tenants))
	for _, t := range tenants {
		col = binary.AppendUvarint(col, uint64(t))
	}
	return &ownerColumns{IDs: idset.AppendColumn(nil, ids), Tenants: col, Names: o.names}
}

// decode expands the columns, checking that they describe a registry:
// an ascending ID column, exactly one tenant index per ID, each naming
// an entry of the table.
func (c *ownerColumns) decode() (ids []int, tenants []uint32, err error) {
	if ids, err = idset.ParseColumn(c.IDs); err != nil {
		return nil, nil, fmt.Errorf("owners: %w", err)
	}
	tenants = make([]uint32, 0, len(ids))
	for b := c.Tenants; len(b) > 0; {
		t, w := binary.Uvarint(b)
		if w <= 0 || t >= uint64(len(c.Names)) {
			return nil, nil, fmt.Errorf("owners: tenant column entry %d is not an index into %d names", len(tenants), len(c.Names))
		}
		tenants = append(tenants, uint32(t))
		b = b[w:]
	}
	if len(tenants) != len(ids) {
		return nil, nil, fmt.Errorf("owners: %d IDs but %d tenant indices", len(ids), len(tenants))
	}
	return ids, tenants, nil
}

// restore installs a snapshot's decoded owners columns into an empty
// registry. The IDs arrive in order, so every one is an append.
func (o *jobOwners) restore(names []string, ids []int, tenants []uint32) {
	index := make([]uint32, len(names))
	for t, name := range names {
		index[t] = o.intern(name)
	}
	for i, id := range ids {
		o.ids.Put(id, index[tenants[i]])
	}
}
