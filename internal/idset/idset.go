package idset

import "slices"

// Fold policy: the late set is merged into the columns once it holds
// max(minLate, len(column)/lateFraction) keys. Each fold moves at most
// the whole column, and the column has grown by at least 1/lateFraction
// since the last one, so even all-descending inserts cost O(lateFraction)
// moves per key, never O(n).
const (
	lateFraction = 8
	minLate      = 32
)

// Map maps int IDs to values of type V. Keys written in ascending order —
// the common case for IDs a counter hands out — are appended to the
// columns; a key below the current maximum waits in the late set until a
// fold. Lookups are a binary search plus, while the late set is not
// empty, one probe of it. V should be pointer-free (a small integer
// index, or struct{} for a plain set) so the columns are never scanned by
// the GC. The zero Map is empty and ready to use; it is not safe for
// concurrent use.
type Map[V any] struct {
	keys []int // ascending, distinct
	vals []V   // vals[i] belongs to keys[i]
	// late maps the keys below keys[len(keys)-1] that are not in keys to
	// their values; lateKeys lists them in insertion order, so a fold
	// sorts a slice instead of walking the map.
	late     map[int]V
	lateKeys []int
	moves    int // elements written by folds, for the complexity test
}

// Len returns the number of keys.
func (m *Map[V]) Len() int { return len(m.keys) + len(m.lateKeys) }

// Put sets k's value, adding k if it is new.
func (m *Map[V]) Put(k int, v V) {
	n := len(m.keys)
	if n == 0 || k > m.keys[n-1] {
		m.keys = append(m.keys, k)
		m.vals = append(m.vals, v)
		return
	}
	if i, ok := slices.BinarySearch(m.keys, k); ok {
		m.vals[i] = v
		return
	}
	if m.late == nil {
		m.late = make(map[int]V)
	}
	had := len(m.late)
	if m.late[k] = v; len(m.late) > had {
		m.lateKeys = append(m.lateKeys, k)
	}
	if len(m.lateKeys) >= max(minLate, n/lateFraction) {
		m.fold()
	}
}

// Get returns k's value and whether k is present.
func (m *Map[V]) Get(k int) (V, bool) {
	var zero V
	n := len(m.keys)
	if n == 0 || k > m.keys[n-1] {
		return zero, false
	}
	if i, ok := slices.BinarySearch(m.keys, k); ok {
		return m.vals[i], true
	}
	if len(m.lateKeys) == 0 {
		return zero, false
	}
	v, ok := m.late[k]
	return v, ok
}

// Has reports whether k is present.
func (m *Map[V]) Has(k int) bool {
	_, ok := m.Get(k)
	return ok
}

// Columns folds the late set in and returns every key in ascending
// order with its value at the same index. Both slices belong to the Map:
// read them only, and only until the next Put.
func (m *Map[V]) Columns() ([]int, []V) {
	if len(m.lateKeys) > 0 {
		m.fold()
	}
	return m.keys, m.vals
}

// fold merges the late set into the columns: sort only the late keys,
// then one backward merge in place, which leaves every column entry
// below the smallest late key where it is.
func (m *Map[V]) fold() {
	late := m.lateKeys
	slices.Sort(late)
	n, l := len(m.keys), len(late)
	m.keys = slices.Grow(m.keys, l)[:n+l]
	m.vals = slices.Grow(m.vals, l)[:n+l]
	i, w := n-1, n+l-1
	for j := l - 1; j >= 0; w-- {
		if i >= 0 && m.keys[i] > late[j] {
			m.keys[w], m.vals[w] = m.keys[i], m.vals[i]
			i--
		} else {
			m.keys[w], m.vals[w] = late[j], m.late[late[j]]
			j--
		}
		m.moves++
	}
	clear(m.late)
	m.lateKeys = late[:0]
}
