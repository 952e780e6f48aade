package sim

import (
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// heapOps decodes a fuzz input into EventHeap operations, one opcode byte
// each (value mod 16):
//
//	0     ExtractOwner(owner)         owner byte
//	1..8  Push(key)                   at (2 bytes LE), owner, class, A bytes
//	9..15 Pop, or Push when empty     (no operands)
//
// An owner byte b names owner b%8 − 1 (NoOwner included); class is b%3 and
// A is b%4. B is the push's sequence number, so every key is unique, as
// the engine's are. The mix and ranges mirror
// TestEventHeapMatchesSortedOracle, whose random runs seed the corpus.
type heapOps struct{ b []byte }

func (d *heapOps) next() (byte, bool) {
	if len(d.b) == 0 {
		return 0, false
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c, true
}

func (d *heapOps) byte() byte { c, _ := d.next(); return c }

func (d *heapOps) at() Time {
	var buf [2]byte
	buf[0], buf[1] = d.byte(), d.byte()
	return Time(binary.LittleEndian.Uint16(buf[:]))
}

func ownerOf(b byte) int32 { return int32(b%8) - 1 }

// encodeOracleRun re-encodes steps of TestEventHeapMatchesSortedOracle's
// random operation stream (its PCG seeds, its op mix and key ranges) in
// heapOps' format, so the fuzzer starts from the cases the table test runs.
func encodeOracleRun(rng *rand.Rand, steps int) []byte {
	var out []byte
	var queued []Key // what the test's heap holds, to know which owner a pop takes
	for range steps {
		switch op := rng.IntN(16); {
		case op == 0:
			owner := int32(rng.IntN(6))
			queued = slices.DeleteFunc(queued, func(k Key) bool { return k.Owner == owner })
			out = append(out, 0, byte(owner+1))
		case op < 9 || len(queued) == 0:
			k := Key{At: Time(rng.IntN(50)), Owner: int32(rng.IntN(6)), A: uint64(rng.IntN(3)), B: uint64(len(out))} // B grows per push, as the decoder's seq does
			i := sort.Search(len(queued), func(i int) bool { return k.Less(queued[i]) })
			queued = slices.Insert(queued, i, k)
			out = append(out, byte(op))
			out = binary.LittleEndian.AppendUint16(out, uint16(k.At))
			out = append(out, byte(k.Owner+1), ClassDeliver, byte(k.A))
		default:
			queued = queued[1:]
			out = append(out, byte(op))
		}
	}
	return out
}

// FuzzEventHeap checks every Push, Pop, MinKey and ExtractOwner result of
// an arbitrary operation sequence against a slice kept sorted by key, and
// that each item leaves the heap whole (its payload and word still those
// it was pushed with).
//
//	go test -run '^$' -fuzz FuzzEventHeap -fuzztime 15s ./internal/sim
func FuzzEventHeap(f *testing.F) {
	rng := rand.New(rand.NewPCG(3, 4))
	for range 20 {
		f.Add(encodeOracleRun(rng, 1000))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 3, 12, 1, 0, 1, 1, 1, 12})                       // extract from an empty heap; a pop there pushes instead
	f.Add([]byte{1, 0xff, 0xff, 0, 2, 3, 1, 0, 0, 0, 0, 0, 0, 9, 9}) // NoOwner and a far key
	f.Fuzz(func(t *testing.T, data []byte) {
		d := heapOps{b: data}
		var h EventHeap
		var want []Key
		var seq uint64
		var buf []Item
		sentinel := Item{K: Key{Owner: -2}}
		for step := 0; ; step++ {
			op, ok := d.next()
			if !ok {
				break
			}
			switch op %= 16; {
			case op == 0:
				owner := ownerOf(d.byte())
				buf = h.ExtractOwner(owner, append(buf[:0], sentinel))
				if buf[0] != sentinel {
					t.Fatalf("step %d: ExtractOwner overwrote the buffer's prefix", step)
				}
				var wantOut []Key
				kept := want[:0]
				for _, k := range want {
					if k.Owner == owner {
						wantOut = append(wantOut, k)
					} else {
						kept = append(kept, k)
					}
				}
				want = kept
				got := make([]Key, 0, len(buf)-1)
				for _, it := range buf[1:] {
					checkWhole(t, step, it)
					got = append(got, it.K)
				}
				slices.SortFunc(got, cmpKey)
				if !slices.Equal(got, wantOut) {
					t.Fatalf("step %d: ExtractOwner(%d) = %v, want %v", step, owner, got, wantOut)
				}
			case op < 9 || len(want) == 0:
				seq++
				k := Key{At: d.at(), Owner: ownerOf(d.byte()), Class: d.byte() % 3, A: uint64(d.byte() % 4), B: seq}
				h.Push(Item{K: k, X: seq, W: int64(seq)})
				i := sort.Search(len(want), func(i int) bool { return k.Less(want[i]) })
				want = slices.Insert(want, i, k)
			default:
				it := h.Pop()
				checkWhole(t, step, it)
				if it.K != want[0] {
					t.Fatalf("step %d: popped %+v, want %+v", step, it.K, want[0])
				}
				want = want[1:]
			}
			if h.Len() != len(want) {
				t.Fatalf("step %d: Len %d, want %d", step, h.Len(), len(want))
			}
			if min, ok := h.MinKey(); ok != (len(want) > 0) || (ok && min != want[0]) {
				t.Fatalf("step %d: MinKey %+v/%v, want head of %v", step, min, ok, want)
			}
		}
	})
}

// checkWhole fails unless it carries the payload and word its push gave
// it: the push's sequence number, which is also its key's B.
func checkWhole(t *testing.T, step int, it Item) {
	t.Helper()
	if seq, ok := it.X.(uint64); !ok || seq != it.K.B || it.W != int64(seq) {
		t.Fatalf("step %d: item %+v lost its payload or word", step, it)
	}
}

func cmpKey(a, b Key) int {
	switch {
	case a.Less(b):
		return -1
	case b.Less(a):
		return 1
	}
	return 0
}
