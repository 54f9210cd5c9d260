package server

import (
	"encoding/binary"
	"fmt"

	"trustgrid/internal/idset"
)

// jobOwners is the job-ID registry: every accepted job ID above the
// retention horizon with the tenant that owns it and whether it has
// completed. The IDs are an ascending column (idset.Map) whose value is
// an index into a table of tenant names, shifted left one bit to make
// room for the done bit, so the registry holds no string per ID, and a
// snapshot writes that shape as it stands (ownerColumns) instead of
// walking and sorting a map (DESIGN.md §14.3).
//
// The horizon W is the largest accepted ID such that every accepted ID
// at or below it has completed; retire raises it by dropping the
// completed prefix of the column, so the registry holds the jobs in
// flight and the completed ones above the lowest of them, not every job
// ever accepted. An ID at or below W is never accepted again, and a
// dependency on one is satisfied: the answer is the same whether the ID
// was the asker's, another tenant's or never used. Loop goroutine only.
type jobOwners struct {
	ids   idset.Map[uint32]
	names []string          // tenant index -> tenant ID
	index map[string]uint32 // tenant ID -> tenant index
	// horizon is W once retired says a job has been retired; before
	// that no ID is at or below the horizon.
	horizon int
	retired bool
}

// doneBit marks a completed job in a registry value; the tenant index
// is the value shifted right one bit.
const doneBit = 1

// ownerColumns is the registry as a snapshot carries it: the IDs above
// the horizon as an idset byte column, a parallel column of one uvarint
// tenant index per ID, and the tenant-name table those indices point
// into. encoding/json writes the byte columns as base64. Whether an ID
// has completed is not written: it has unless its job is in flight in
// an engine snapshot of the same payload.
type ownerColumns struct {
	IDs     []byte   `json:"ids"`
	Tenants []byte   `json:"tenants"`
	Names   []string `json:"names"`
}

// add records tenant as id's owner, id not done.
func (o *jobOwners) add(id int, tenant string) { o.ids.Put(id, o.intern(tenant)<<1) }

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

// owner returns the tenant that owns id, if id was accepted and is
// above the horizon.
func (o *jobOwners) owner(id int) (string, bool) {
	v, ok := o.ids.Get(id)
	if !ok {
		return "", false
	}
	return o.names[v>>1], true
}

// has reports whether id was accepted and is above the horizon.
func (o *jobOwners) has(id int) bool { return o.ids.Has(id) }

// belowHorizon reports whether id is at or below the horizon.
func (o *jobOwners) belowHorizon(id int) bool { return o.retired && id <= o.horizon }

// complete marks id done; an ID the registry does not hold is ignored.
func (o *jobOwners) complete(id int) {
	if v, ok := o.ids.Get(id); ok {
		o.ids.Put(id, v|doneBit)
	}
}

// retire raises the horizon over the completed prefix of the column and
// drops it: O(dropped), no scan past the first job still in flight, plus
// the fold of any IDs accepted out of order since the last one.
func (o *jobOwners) retire() {
	ids, vals := o.ids.Columns()
	n := 0
	for n < len(vals) && vals[n]&doneBit != 0 {
		n++
	}
	if n > 0 {
		o.horizon, o.retired = ids[n-1], true
		o.ids.DropThrough(o.horizon)
	}
}

// snapshot returns the snapshot's owners field; nil when the registry
// is empty.
func (o *jobOwners) snapshot() *ownerColumns {
	ids, vals := o.ids.Columns()
	if len(ids) == 0 {
		return nil
	}
	col := make([]byte, 0, len(vals))
	for _, v := range vals {
		col = binary.AppendUvarint(col, uint64(v>>1))
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
// registry, every ID done unless inFlight holds it. The IDs arrive in
// order, so every one is an append.
func (o *jobOwners) restore(names []string, ids []int, tenants []uint32, inFlight map[int]struct{}) {
	index := make([]uint32, len(names))
	for t, name := range names {
		index[t] = o.intern(name)
	}
	for i, id := range ids {
		v := index[tenants[i]] << 1
		if _, live := inFlight[id]; !live {
			v |= doneBit
		}
		o.ids.Put(id, v)
	}
}
