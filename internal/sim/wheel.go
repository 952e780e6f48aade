package sim

import "math/bits"

// The wheel's geometry: 256 buckets of 64 µs, a 16.384 ms horizon. The
// default message delay is at most 10 ms, so almost every event a tile
// queues lands on the ring; a far timer (a waypoint pause, a long think
// time) goes to the overflow heap, whose items are few and migrate onto
// the ring when the base comes within range.
const (
	wheelShift = 6
	wheelSlots = 256
	wheelMask  = wheelSlots - 1
	wheelWords = wheelSlots / 64
)

// wheelNode is one slab cell: a queued item and the 1-based index of the
// next node of its bucket chain (or of the free list); 0 ends a chain.
// 64 bytes, one cache line.
type wheelNode struct {
	it   Item
	next int32
}

// Wheel is a calendar queue (Brown, CACM 1988) of Items whose Pop order
// is exactly Key order, the same as EventHeap's. The zero value is an
// empty, usable wheel.
//
// A ring of wheelSlots buckets covers the absolute slots [base, base +
// wheelSlots), an item's slot being At >> wheelShift; base is the slot of
// the last popped item (it never decreases, and starts at 0). Each bucket
// holds a chain of nodes sorted by Key, and an occupancy bitmap finds the
// next non-empty bucket. Items outside the ring's range — beyond the
// horizon, or below the base — wait in the overflow heap far; when the
// base advances, far items that come into range migrate onto the ring.
// The minimum over ring and overflow is cached, so MinKey is a load.
//
// Invariants, each checked by FuzzWheel after every operation, beside its
// sorted-slice oracle:
//   - every ring item's slot lies in [base, base + wheelSlots), so a ring
//     index names one absolute slot;
//   - no far item's slot lies in that range: the ones the horizon covers
//     have migrated;
//   - first is the earliest occupied ring slot whenever the ring is not
//     empty;
//   - min is the smallest key queued, and minFar says it sits in far.
//
// Steady state allocates nothing: a popped node's payload is cleared and
// the node goes to a free list the next Push reuses
// (TestWheelChurnAllocFree).
type Wheel struct {
	min    Key
	minFar bool
	ring   int32 // items on the ring
	free   int32 // head of the free-node list
	base   Time  // slot of the last popped item
	first  Time  // earliest occupied ring slot, when ring > 0
	nodes  []wheelNode
	far    EventHeap
	occ    [wheelWords]uint64
	heads  [wheelSlots]int32
}

// Len reports how many events are queued.
func (w *Wheel) Len() int { return int(w.ring) + w.far.Len() }

// MinKey returns the smallest queued key, if any.
func (w *Wheel) MinKey() (Key, bool) {
	if w.ring == 0 && w.far.Len() == 0 {
		return Key{}, false
	}
	return w.min, true
}

// Push queues it: on the ring when its slot is within the horizon of the
// base, in the overflow heap otherwise.
func (w *Wheel) Push(it Item) {
	isMin := w.ring == 0 && len(w.far.items) == 0 || keyLess(&it.K, &w.min)
	s := it.K.At >> wheelShift
	if s < w.base || s >= w.base+wheelSlots {
		if isMin {
			w.min, w.minFar = it.K, true
		}
		w.far.Push(it)
		return
	}
	if isMin {
		w.min, w.minFar = it.K, false
	}
	w.insert(s, &it)
}

// keyLess is Key.Less through pointers. Inlined, Less copies both keys
// with 16-byte moves before comparing; when a key is an argument the
// caller has just spilled field by field, those loads cannot be forwarded
// from the narrower stores and stall, which cost Push a third of its time.
func keyLess(a, b *Key) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Owner != b.Owner {
		return a.Owner < b.Owner
	}
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	if a.A != b.A {
		return a.A < b.A
	}
	return a.B < b.B
}

// insert links a copy of *it into the chain of ring slot s, which must
// lie in [base, base + wheelSlots), without touching the cached minimum.
func (w *Wheel) insert(s Time, it *Item) {
	i := w.free
	if i != 0 {
		w.free = w.nodes[i-1].next
	} else {
		w.nodes = append(w.nodes, wheelNode{})
		i = int32(len(w.nodes))
	}
	nodes := w.nodes
	nd := &nodes[i-1]
	// Field by field, for the reason keyLess gives: *it is Push's spilled
	// argument.
	k := &nd.it.K
	k.At, k.Owner, k.Class, k.A, k.B = it.K.At, it.K.Owner, it.K.Class, it.K.A, it.K.B
	nd.it.X, nd.it.W = it.X, it.W
	b := int(s & wheelMask)
	p := &w.heads[b]
	for *p != 0 && keyLess(&nodes[*p-1].it.K, k) {
		p = &nodes[*p-1].next
	}
	nd.next = *p
	*p = i
	w.occ[b>>6] |= 1 << (b & 63)
	if w.ring == 0 || s < w.first {
		w.first = s
	}
	w.ring++
}

// Pop removes and returns the earliest event. The caller must have checked
// that the wheel is non-empty.
func (w *Wheel) Pop() (it Item) {
	if w.minFar {
		it = w.far.Pop()
		if s := it.K.At >> wheelShift; s > w.base {
			w.advance(s)
		}
		w.refresh()
		return it
	}
	s := w.first
	b := int(s & wheelMask)
	i := w.heads[b]
	nd := &w.nodes[i-1]
	it = nd.it
	nd.it.X = nil // release the payload reference
	w.heads[b] = nd.next
	nd.next = w.free
	w.free = i
	w.ring--
	if w.heads[b] == 0 {
		w.occ[b>>6] &^= 1 << (b & 63)
		if w.ring > 0 {
			w.first = w.next(s)
		}
	}
	if s > w.base {
		w.advance(s)
	}
	w.refresh()
	return it
}

// advance moves the base up to slot s, which no queued item precedes,
// and migrates the far items the new horizon covers onto the ring.
func (w *Wheel) advance(s Time) {
	w.base = s
	for len(w.far.items) > 0 && w.far.items[0].K.At>>wheelShift < s+wheelSlots {
		it := w.far.Pop()
		w.insert(it.K.At>>wheelShift, &it)
	}
}

// next returns the earliest occupied ring slot at or after slot s, which
// must lie in [base, base + wheelSlots) with no ring item before it. The
// ring must not be empty.
func (w *Wheel) next(s Time) Time {
	r := int(s & wheelMask)
	wi := r >> 6
	m := w.occ[wi] & (^uint64(0) << (r & 63))
	for m == 0 {
		wi = (wi + 1) & (wheelWords - 1)
		m = w.occ[wi]
	}
	f := wi<<6 + bits.TrailingZeros64(m)
	return s + Time((f-r)&wheelMask)
}

// refresh recomputes the cached minimum: the head of the first ring
// bucket or far's minimum, whichever orders first.
func (w *Wheel) refresh() {
	if w.ring == 0 {
		w.min, w.minFar = w.far.MinKey()
		return
	}
	w.min = w.nodes[w.heads[w.first&wheelMask]-1].it.K
	w.minFar = false
	if len(w.far.items) > 0 && keyLess(&w.far.items[0].K, &w.min) {
		w.min, w.minFar = w.far.items[0].K, true
	}
}

// ExtractOwner removes every event whose key names the given owner,
// appends them to buf and returns it, as EventHeap.ExtractOwner does. It
// walks every occupied bucket — migrations happen at mobility-tick
// granularity, not per event.
func (w *Wheel) ExtractOwner(owner int32, buf []Item) []Item {
	before := len(buf)
	for wi := range w.occ {
		for m := w.occ[wi]; m != 0; m &= m - 1 {
			b := wi<<6 + bits.TrailingZeros64(m)
			p := &w.heads[b]
			for *p != 0 {
				i := *p
				nd := &w.nodes[i-1]
				if nd.it.K.Owner != owner {
					p = &nd.next
					continue
				}
				buf = append(buf, nd.it)
				nd.it.X = nil
				*p = nd.next
				nd.next = w.free
				w.free = i
				w.ring--
			}
			if w.heads[b] == 0 {
				w.occ[wi] &^= 1 << (b & 63)
			}
		}
	}
	buf = w.far.ExtractOwner(owner, buf)
	if len(buf) == before {
		return buf
	}
	if w.ring > 0 {
		w.first = w.next(w.base)
	}
	w.refresh()
	return buf
}
