package core

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// rec is the test record: a value and a flag, like a protocol's peer.
type rec struct {
	v    int
	flag bool
}

// checkAgainstOracle compares the whole table with the map it shadows:
// same key set, ascending slots, same records, Find consistent with ID.
func checkAgainstOracle(t *testing.T, step int, tab *Slots[rec], oracle map[NodeID]rec) {
	t.Helper()
	if tab.Len() != len(oracle) {
		t.Fatalf("step %d: Len = %d, oracle has %d", step, tab.Len(), len(oracle))
	}
	for i := 0; i < tab.Len(); i++ {
		id := tab.ID(i)
		if i > 0 && tab.ID(i-1) >= id {
			t.Fatalf("step %d: slots not ascending at %d: %d then %d", step, i, tab.ID(i-1), id)
		}
		want, ok := oracle[id]
		if !ok {
			t.Fatalf("step %d: slot %d holds %d, which the oracle lacks", step, i, id)
		}
		if got := *tab.At(i); got != want {
			t.Fatalf("step %d: record of %d = %+v, oracle %+v", step, id, got, want)
		}
		if tab.Find(id) != i {
			t.Fatalf("step %d: Find(%d) = %d, want slot %d", step, id, tab.Find(id), i)
		}
	}
}

// TestSlotsMatchMapOracle drives the table and a map[NodeID]rec with the
// same random inserts, removals, in-place writes, lookups and
// iterate-while-clearing passes, over a key space small enough to hit
// duplicates and misses and a size range that crosses from the scan into
// the binary search.
func TestSlotsMatchMapOracle(t *testing.T) {
	for _, keys := range []int{6, 40} {
		rng := rand.New(rand.NewPCG(uint64(keys), 0x5107))
		var tab Slots[rec]
		oracle := map[NodeID]rec{}
		for step := 0; step < 20_000; step++ {
			id := NodeID(rng.IntN(keys)) - 2 // negative IDs too
			switch rng.IntN(6) {
			case 0, 1: // insert: fresh gets a zero record, a duplicate keeps its own
				_, had := oracle[id]
				i, fresh := tab.Insert(id)
				if fresh == had || tab.ID(i) != id {
					t.Fatalf("step %d: Insert(%d) = (%d, fresh %v), oracle had it: %v", step, id, i, fresh, had)
				}
				if !had {
					oracle[id] = rec{}
				}
			case 2: // remove: returns the final record
				want, had := oracle[id]
				i, got := tab.Remove(id)
				if (i >= 0) != had || got != want {
					t.Fatalf("step %d: Remove(%d) = (%d, %+v), oracle (%v, %+v)", step, id, i, got, had, want)
				}
				delete(oracle, id)
			case 3: // set through the slot pointer
				if i := tab.Find(id); i >= 0 {
					r := rec{v: rng.Int(), flag: rng.IntN(2) == 0}
					*tab.At(i) = r
					oracle[id] = r
				} else if _, had := oracle[id]; had {
					t.Fatalf("step %d: Find(%d) missed a key the oracle has", step, id)
				}
			case 4: // lookup
				want, had := oracle[id]
				i := tab.Find(id)
				if (i >= 0) != had || (had && *tab.At(i) != want) {
					t.Fatalf("step %d: Find(%d) = %d, oracle (%v, %+v)", step, id, i, had, want)
				}
			case 5: // iterate slots clearing flags as the loop passes them
				var visited []NodeID
				for i := 0; i < tab.Len(); i++ {
					if p := tab.At(i); p.flag {
						p.flag = false
						visited = append(visited, tab.ID(i))
					}
				}
				var want []NodeID
				for id, r := range oracle {
					if r.flag {
						want = append(want, id)
						r.flag = false
						oracle[id] = r
					}
				}
				slices.Sort(want)
				if !slices.Equal(visited, want) {
					t.Fatalf("step %d: clearing pass visited %v, oracle (sorted) %v", step, visited, want)
				}
			}
			checkAgainstOracle(t, step, &tab, oracle)
		}
	}
}

func TestSlotsReset(t *testing.T) {
	var tab Slots[rec]
	tab.Insert(9)
	tab.At(0).v = 1
	ids := []NodeID{2, 5, 7}
	tab.Reset(ids)
	ids[0] = 99 // the table keeps no reference to its argument
	if tab.Len() != 3 || tab.ID(0) != 2 || tab.ID(2) != 7 || tab.Find(9) >= 0 {
		t.Fatalf("Reset left IDs %d %d %d (len %d)", tab.ID(0), tab.ID(1), tab.ID(2), tab.Len())
	}
	for i := 0; i < tab.Len(); i++ {
		if *tab.At(i) != (rec{}) {
			t.Fatalf("Reset left a non-zero record in slot %d", i)
		}
	}
	tab.Reset(nil)
	if tab.Len() != 0 || tab.Find(2) >= 0 {
		t.Fatal("Reset(nil) did not empty the table")
	}
	if i, _ := tab.Remove(2); i >= 0 {
		t.Fatal("Remove on an empty table found something")
	}
}
