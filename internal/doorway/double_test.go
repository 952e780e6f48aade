package doorway

import (
	"testing"

	"lme/internal/core"
)

type doubleRec struct {
	announces []string // "ad+"/"ad-"/"sd+"/"sd-"
	entered   int
}

func newDouble(neighbors ...core.NodeID) (*Double, *doubleRec) {
	r := &doubleRec{}
	d := NewDouble(neighbors,
		func(inner, cross bool) {
			tag := "ad"
			if inner {
				tag = "sd"
			}
			if cross {
				tag += "+"
			} else {
				tag += "-"
			}
			r.announces = append(r.announces, tag)
		},
		func() { r.entered++ })
	return d, r
}

func TestDoubleEntryOrder(t *testing.T) {
	d, r := newDouble(1)
	d.BeginEntry()
	if !d.Behind() || r.entered != 1 {
		t.Fatal("did not fully enter with neighbour outside")
	}
	// Asynchronous cross must precede the synchronous one.
	if len(r.announces) != 2 || r.announces[0] != "ad+" || r.announces[1] != "sd+" {
		t.Fatalf("announces = %v", r.announces)
	}
	d.Exit()
	// Exit order reversed: synchronous first.
	if len(r.announces) != 4 || r.announces[2] != "sd-" || r.announces[3] != "ad-" {
		t.Fatalf("announces = %v", r.announces)
	}
	if d.Behind() || d.BehindOuter() {
		t.Fatal("still behind after exit")
	}
}

func TestDoubleBlockedAtInner(t *testing.T) {
	d, r := newDouble(1)
	// Neighbour is behind the inner doorway but outside the outer one —
	// the window in which a node crosses AD but waits at SD.
	d.Observe(1, true, Behind)
	d.BeginEntry()
	if !d.BehindOuter() || d.Behind() {
		t.Fatalf("positions wrong: outer=%v inner=%v", d.BehindOuter(), d.Behind())
	}
	if !d.Entering() {
		t.Fatal("inner entry not in progress")
	}
	d.Observe(1, true, Outside)
	if !d.Behind() || r.entered != 1 {
		t.Fatal("did not cross the inner doorway once unblocked")
	}
}

func TestDoubleBlockedAtOuter(t *testing.T) {
	d, _ := newDouble(1)
	d.Observe(1, false, Behind)
	d.BeginEntry()
	if d.BehindOuter() {
		t.Fatal("crossed the asynchronous doorway past a behind neighbour")
	}
	d.Observe(1, false, Outside)
	if !d.Behind() {
		t.Fatal("did not complete both entries after the outer unblocked")
	}
}

func TestDoubleReturnPath(t *testing.T) {
	d, r := newDouble(1)
	d.BeginEntry()
	if r.entered != 1 {
		t.Fatal("setup failed")
	}
	d.ReturnToInner()
	if !d.Behind() || r.entered != 2 {
		t.Fatalf("return path did not re-enter (entered=%d)", r.entered)
	}
	if !d.BehindOuter() {
		t.Fatal("return path left the asynchronous doorway")
	}
	// The wire saw sd-, sd+ — no asynchronous traffic.
	tail := r.announces[len(r.announces)-2:]
	if tail[0] != "sd-" || tail[1] != "sd+" {
		t.Fatalf("announces = %v", r.announces)
	}
}

func TestDoubleReturnPathBlocksUntilNeighborExits(t *testing.T) {
	d, r := newDouble(1)
	d.BeginEntry()
	// The neighbour slips behind the inner doorway; our return path must
	// wait for it.
	d.Observe(1, true, Behind)
	d.ReturnToInner()
	if d.Behind() {
		t.Fatal("re-entered past a behind neighbour")
	}
	d.Observe(1, true, Outside)
	if !d.Behind() || r.entered != 2 {
		t.Fatal("never re-entered")
	}
}

func TestDoubleAbort(t *testing.T) {
	d, r := newDouble(1)
	d.Observe(1, true, Behind)
	d.BeginEntry() // crosses outer, blocks at inner
	d.Abort()
	if d.Entering() || d.Behind() {
		t.Fatal("abort left entry state")
	}
	// The outer doorway had been crossed, so the abort must announce its
	// exit (neighbours saw our ad+).
	last := r.announces[len(r.announces)-1]
	if last != "ad-" {
		t.Fatalf("announces = %v", r.announces)
	}
	// Fresh entry works after abort.
	d.Observe(1, true, Outside)
	d.BeginEntry()
	if !d.Behind() {
		t.Fatal("re-entry after abort failed")
	}
}

func TestDoubleLinkChurn(t *testing.T) {
	d, _ := newDouble(1)
	d.AddNeighbor(2, Behind, Outside)
	d.BeginEntry() // outer ok (2 outside), inner blocked (2 behind)
	if d.Behind() {
		t.Fatal("crossed past new behind neighbour")
	}
	d.Forget(2)
	if !d.Behind() {
		t.Fatal("departure did not unblock the inner entry")
	}
}

// TestDoubleNonNeighbor pins what the ID-keyed layer does with a node it
// has no slot for: an announcement from it is dropped (it must not grow
// the neighbour set — nothing would ever Forget it) and forgetting it
// changes nothing, not even by re-evaluating a pending entry.
func TestDoubleNonNeighbor(t *testing.T) {
	d, r := newDouble(1)
	d.Observe(1, false, Behind)
	d.BeginEntry() // outer blocked by 1
	d.Observe(7, false, Behind)
	d.Observe(7, true, Behind)
	d.Forget(7)
	if d.BehindOuter() || len(r.announces) != 0 {
		t.Fatalf("non-neighbour traffic moved the doorway (announces=%v)", r.announces)
	}
	d.Observe(1, false, Outside)
	if !d.Behind() {
		t.Fatal("a dropped non-neighbour observation still blocks the entry")
	}
}

// TestDoubleAddExistingNeighbor pins re-adding a current neighbour: its
// observed positions are overwritten in place — no second slot, so one
// Forget removes it — the asynchronous doorway's sticky seen-outside mark
// survives, and like any AddNeighbor it does not itself cross.
func TestDoubleAddExistingNeighbor(t *testing.T) {
	d, r := newDouble(1, 2)
	d.Observe(2, false, Behind)
	d.BeginEntry()                   // 1 seen outside; waiting for 2
	d.AddNeighbor(1, Behind, Behind) // 1 re-added behind both: still seen
	d.AddNeighbor(2, Outside, Outside)
	if d.BehindOuter() || len(r.announces) != 0 {
		t.Fatal("AddNeighbor of an existing neighbour caused a crossing")
	}
	d.Observe(2, false, Outside) // re-evaluates: both seen outside once
	if !d.BehindOuter() || d.Behind() {
		t.Fatalf("outer=%v inner=%v, want across the outer doorway, held at the inner by 1", d.BehindOuter(), d.Behind())
	}
	d.Forget(1) // one Forget suffices: the re-add made no duplicate
	if !d.Behind() {
		t.Fatal("re-added neighbour left a second slot behind")
	}
}
