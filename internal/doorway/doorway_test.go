package doorway

import "testing"

// recorder captures announce/cross callbacks.
type recorder struct {
	announces []bool // true = cross, false = exit
	crossings int
}

// newDoorway builds a doorway over n neighbours, in slots 0..n-1.
func newDoorway(kind Kind, n int) (*Doorway, *recorder) {
	r := &recorder{}
	d := New(kind, n,
		func(cross bool) { r.announces = append(r.announces, cross) },
		func() { r.crossings++ })
	return d, r
}

func TestCrossImmediatelyWhenAlone(t *testing.T) {
	for _, kind := range []Kind{Synchronous, Asynchronous} {
		d, r := newDoorway(kind, 0)
		d.BeginEntry()
		if !d.Behind() || r.crossings != 1 {
			t.Fatalf("%v: lone node did not cross", kind)
		}
		if len(r.announces) != 1 || !r.announces[0] {
			t.Fatalf("%v: announces = %v", kind, r.announces)
		}
	}
}

func TestCrossWhenAllNeighborsOutside(t *testing.T) {
	for _, kind := range []Kind{Synchronous, Asynchronous} {
		d, r := newDoorway(kind, 2)
		d.BeginEntry()
		if !d.Behind() || r.crossings != 1 {
			t.Fatalf("%v: did not cross with all neighbours outside", kind)
		}
	}
}

func TestBlockedByBehindNeighbor(t *testing.T) {
	for _, kind := range []Kind{Synchronous, Asynchronous} {
		d, r := newDoorway(kind, 1)
		d.Observe(0, Behind)
		d.BeginEntry()
		if d.Behind() {
			t.Fatalf("%v: crossed past a behind neighbour", kind)
		}
		if !d.Entering() {
			t.Fatalf("%v: entry not in progress", kind)
		}
		d.Observe(0, Outside)
		if !d.Behind() || r.crossings != 1 {
			t.Fatalf("%v: did not cross after neighbour exited", kind)
		}
	}
}

// TestAsyncSeenOnceSemantics is the defining difference of Figure 2: the
// asynchronous doorway only needs each neighbour outside at least once,
// even if it is behind again by the time the last observation arrives.
func TestAsyncSeenOnceSemantics(t *testing.T) {
	d, r := newDoorway(Asynchronous, 2)
	d.Observe(1, Behind) // slot 1 is behind before we start
	d.BeginEntry()       // slot 0 seen outside immediately; waiting for slot 1
	if d.Behind() {
		t.Fatal("crossed without seeing slot 1 outside")
	}
	d.Observe(0, Behind)  // slot 0 crosses; we already saw it outside
	d.Observe(1, Outside) // slot 1 exits: now every neighbour was seen outside
	if !d.Behind() || r.crossings != 1 {
		t.Fatal("async doorway did not cross on seen-once condition")
	}
}

// TestSyncNeedsSimultaneity: the synchronous doorway must observe all
// neighbours outside at the same evaluation, so the async scenario above
// does not let it through.
func TestSyncNeedsSimultaneity(t *testing.T) {
	d, _ := newDoorway(Synchronous, 2)
	d.Observe(1, Behind)
	d.BeginEntry()
	d.Observe(0, Behind)
	d.Observe(1, Outside)
	if d.Behind() {
		t.Fatal("sync doorway crossed without simultaneous outside view")
	}
	d.Observe(0, Outside)
	if !d.Behind() {
		t.Fatal("sync doorway did not cross once views aligned")
	}
}

func TestForgetUnblocks(t *testing.T) {
	for _, kind := range []Kind{Synchronous, Asynchronous} {
		d, _ := newDoorway(kind, 2)
		d.Observe(0, Behind)
		d.BeginEntry()
		if d.Behind() {
			t.Fatalf("%v: crossed prematurely", kind)
		}
		d.Forget(0) // the blocking neighbour moved away
		if !d.Behind() {
			t.Fatalf("%v: did not cross after Forget", kind)
		}
	}
}

func TestAddNeighborDoesNotTriggerCross(t *testing.T) {
	d, _ := newDoorway(Synchronous, 1)
	d.Observe(0, Behind)
	d.BeginEntry()
	d.Add(1, Outside)
	if d.Behind() {
		t.Fatal("AddNeighbor caused a crossing")
	}
	// But the added neighbour participates in the condition.
	d.Add(2, Behind)
	d.Observe(0, Outside)
	if d.Behind() {
		t.Fatal("crossed past the behind new neighbour")
	}
	d.Observe(2, Outside)
	if !d.Behind() {
		t.Fatal("did not cross after all outside")
	}
}

func TestExitAnnouncesOnceAndIsIdempotent(t *testing.T) {
	d, r := newDoorway(Synchronous, 0)
	d.BeginEntry()
	d.Exit()
	d.Exit()
	// announces: cross, exit — second Exit is a no-op.
	if len(r.announces) != 2 || !r.announces[0] || r.announces[1] {
		t.Fatalf("announces = %v", r.announces)
	}
	if d.Behind() {
		t.Fatal("still behind after exit")
	}
}

func TestAbortCancelsEntrySilently(t *testing.T) {
	d, r := newDoorway(Asynchronous, 1)
	d.Observe(0, Behind)
	d.BeginEntry()
	d.Abort()
	if d.Entering() {
		t.Fatal("still entering after abort")
	}
	d.Observe(0, Outside) // must not cross: entry was aborted
	if d.Behind() || len(r.announces) != 0 {
		t.Fatalf("aborted entry crossed anyway (announces=%v)", r.announces)
	}
}

func TestReentryAfterExit(t *testing.T) {
	d, r := newDoorway(Synchronous, 1)
	d.BeginEntry()
	d.Exit()
	d.BeginEntry()
	if !d.Behind() || r.crossings != 2 {
		t.Fatal("re-entry failed")
	}
}

func TestBeginEntryWhileBehindPanics(t *testing.T) {
	d, _ := newDoorway(Synchronous, 0)
	d.BeginEntry()
	defer func() {
		if recover() == nil {
			t.Fatal("BeginEntry while behind did not panic")
		}
	}()
	d.BeginEntry()
}

func TestObservedPosDefaultsOutside(t *testing.T) {
	d, _ := newDoorway(Synchronous, 1)
	if d.ObservedPos(0) != Outside {
		t.Fatal("unobserved neighbour not outside")
	}
	d.Observe(0, Behind)
	if d.ObservedPos(0) != Behind {
		t.Fatal("observation lost")
	}
	d.Add(1, Outside)
	if d.ObservedPos(1) != Outside || d.ObservedPos(0) != Behind {
		t.Fatal("added neighbour not outside, or it disturbed slot 0")
	}
}

// TestAsyncRestartsSeenSetOnReentry: after exiting and re-entering, stale
// "seen outside" marks from the previous entry must not carry over for
// currently-behind neighbours.
func TestAsyncRestartsSeenSetOnReentry(t *testing.T) {
	d, _ := newDoorway(Asynchronous, 1)
	d.BeginEntry() // 1 outside → cross
	d.Exit()
	d.Observe(0, Behind)
	d.BeginEntry()
	if d.Behind() {
		t.Fatal("stale seen set let re-entry through")
	}
	d.Observe(0, Outside)
	if !d.Behind() {
		t.Fatal("re-entry never crossed")
	}
}

func TestKindAndPosStrings(t *testing.T) {
	if Synchronous.String() != "sync" || Asynchronous.String() != "async" || Kind(0).String() != "invalid" {
		t.Fatal("Kind strings wrong")
	}
	if Outside.String() != "outside" || Behind.String() != "behind" || Pos(0).String() != "invalid" {
		t.Fatal("Pos strings wrong")
	}
}
