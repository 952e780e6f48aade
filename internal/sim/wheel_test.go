package sim

import (
	"fmt"
	"testing"
)

// checkWheel verifies the Wheel's structural invariants: every ring item
// sits in the bucket of its slot, within [base, base + wheelSlots), in a
// key-sorted chain, with the bucket's occupancy bit set exactly when its
// chain is non-empty; every overflow item's slot lies outside that range
// (the far items the horizon covers have migrated); first is the
// earliest occupied slot; and the cached minimum is the smallest key,
// found where minFar says.
func checkWheel(w *Wheel) error {
	ring := 0
	var first Time = -1
	for b := range wheelSlots {
		occupied := w.occ[b>>6]&(1<<(b&63)) != 0
		if occupied != (w.heads[b] != 0) {
			return fmt.Errorf("bucket %d: occupancy bit %v, chain head %d", b, occupied, w.heads[b])
		}
		var prev *Key
		for i := w.heads[b]; i != 0; i = w.nodes[i-1].next {
			k := w.nodes[i-1].it.K
			s := k.At >> wheelShift
			if s < w.base || s >= w.base+wheelSlots || int(s&wheelMask) != b {
				return fmt.Errorf("bucket %d holds %+v (slot %d), base %d", b, k, s, w.base)
			}
			if prev != nil && !prev.Less(k) {
				return fmt.Errorf("bucket %d: %+v chained after %+v", b, k, *prev)
			}
			prev = &k
			if first < 0 || s < first {
				first = s
			}
			ring++
		}
	}
	if ring != int(w.ring) {
		return fmt.Errorf("ring holds %d items, counter says %d", ring, w.ring)
	}
	if ring > 0 && first != w.first {
		return fmt.Errorf("first occupied slot %d, cached %d", first, w.first)
	}
	for _, it := range w.far.items {
		if s := it.K.At >> wheelShift; s >= w.base && s < w.base+wheelSlots {
			return fmt.Errorf("overflow holds %+v (slot %d) within the horizon of base %d", it.K, s, w.base)
		}
	}
	if w.Len() == 0 {
		return nil
	}
	min, far := w.far.MinKey()
	if ring > 0 {
		head := w.nodes[w.heads[first&wheelMask]-1].it.K
		if !far || head.Less(min) {
			min, far = head, false
		}
	}
	if min != w.min || far != w.minFar {
		return fmt.Errorf("cached minimum %+v (far %v), want %+v (far %v)", w.min, w.minFar, min, far)
	}
	return nil
}

// churn holds a standing population of n events on q and then, per
// call of step, pops the earliest and pushes one due a message delay (1
// to 10 ms, the default Config's bounds) after it, as a tile's queue sees
// deliveries.
func churn(q queue, n int) (step func()) {
	rng := NewRand(1)
	var seq uint64
	for range n {
		seq++
		q.Push(Item{K: Key{At: Time(rng.IntN(10_000)), Owner: int32(rng.IntN(64)), Class: ClassDeliver, B: seq}, X: q})
	}
	return func() {
		k, _ := q.MinKey()
		it := q.Pop()
		seq++
		it.K = Key{At: k.At + 1_000 + Time(rng.IntN(9_001)), Owner: int32(rng.IntN(64)), Class: ClassDeliver, B: seq}
		q.Push(it)
	}
}

// TestWheelChurnAllocFree: once its slab has grown to the standing
// population, a Wheel's push/pop churn allocates nothing.
func TestWheelChurnAllocFree(t *testing.T) {
	w := &Wheel{}
	step := churn(w, 256)
	for range 10_000 {
		step()
	}
	if allocs := testing.AllocsPerRun(1_000, step); allocs != 0 {
		t.Fatalf("Wheel churn at 256 standing events allocates %.2f times per push/pop", allocs)
	}
	if err := checkWheel(w); err != nil {
		t.Fatal(err)
	}
}
