package core

import "slices"

// Slots is the neighbour-slot table: a node's per-neighbour protocol
// state as one dense slice of (ID, record) pairs kept in ascending ID
// order. It is the paper's per-neighbour arrays (L[], at[], color[],
// higher[], S — each of size at most δ) laid out as one record per
// neighbour, so a handler resolves the sender to a slot once and every
// later access is an index into memory it has already pulled in. With at
// most δ entries the search is a scan over one or two cache lines, which
// beats hashing the key into a table several times its size.
//
// Slot lifetime: Insert and Remove shift the slots above the affected one,
// so a slot number — and a pointer returned by At — is valid only until
// the next Insert or Remove. Writing through At never moves a slot, which
// is what lets callers clear a flag on the slot they are iterating over.
//
// The zero value is an empty table.
type Slots[T any] struct {
	s []slot[T]
}

type slot[T any] struct {
	id  NodeID
	rec T
}

// Reset replaces the table's contents with one zero record per ID. ids
// must be in ascending order without duplicates (the form Env.Neighbors
// returns); the table keeps no reference to it.
func (t *Slots[T]) Reset(ids []NodeID) {
	t.s = slices.Grow(t.s[:0], len(ids))
	for _, id := range ids {
		t.s = append(t.s, slot[T]{id: id})
	}
}

// Len returns the number of neighbours. Slots are numbered 0..Len()-1 in
// ascending ID order.
func (t *Slots[T]) Len() int { return len(t.s) }

// ID returns the neighbour occupying slot i.
func (t *Slots[T]) ID(i int) NodeID { return t.s[i].id }

// At returns the record in slot i, for reading or writing in place.
func (t *Slots[T]) At(i int) *T { return &t.s[i].rec }

// Find returns id's slot, or -1 when id is not a neighbour.
func (t *Slots[T]) Find(id NodeID) int {
	if i := t.search(id); i < len(t.s) && t.s[i].id == id {
		return i
	}
	return -1
}

// Insert adds id with a zero record and returns its slot; fresh is false
// when id was already present, in which case its record is left as it is.
func (t *Slots[T]) Insert(id NodeID) (i int, fresh bool) {
	i = t.search(id)
	if i < len(t.s) && t.s[i].id == id {
		return i, false
	}
	t.s = slices.Insert(t.s, i, slot[T]{id: id})
	return i, true
}

// Remove deletes id and returns the slot it occupied together with its
// final record, or -1 and a zero record when id was not a neighbour.
func (t *Slots[T]) Remove(id NodeID) (i int, rec T) {
	i = t.Find(id)
	if i >= 0 {
		rec = t.s[i].rec
		t.s = slices.Delete(t.s, i, i+1)
	}
	return i, rec
}

// search returns the first slot whose ID is at least id: a binary search
// down to a window of eight, finished by a scan — at the degrees the
// algorithms are specified for, the scan alone.
func (t *Slots[T]) search(id NodeID) int {
	lo, hi := 0, len(t.s)
	for hi-lo > 8 {
		mid := int(uint(lo+hi) >> 1)
		if t.s[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for lo < hi && t.s[lo].id < id {
		lo++
	}
	return lo
}
