package sim

import (
	"testing"
	"unsafe"
)

// recorder is a Runner that appends its tag to a shared log.
type recorder struct {
	log *[]int
	tag int
}

func (r *recorder) Run() { *r.log = append(*r.log, r.tag) }

// TestAtRunnerSharesFIFOOrder pins that AtRunner and At draw from the
// same sequence space: same-instant events fire in schedule order
// regardless of which entry point scheduled them.
func TestAtRunnerSharesFIFOOrder(t *testing.T) {
	s := NewScheduler(1)
	var log []int
	s.At(10, func() { log = append(log, 0) })
	s.AtRunner(10, &recorder{log: &log, tag: 1})
	s.At(10, func() { log = append(log, 2) })
	s.AtRunner(10, &recorder{log: &log, tag: 3})
	s.AtRunner(5, &recorder{log: &log, tag: 4}) // earlier instant jumps the queue
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []int{4, 0, 1, 2, 3}
	if len(log) != len(want) {
		t.Fatalf("ran %d events, want %d", len(log), len(want))
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("execution order %v, want %v", log, want)
		}
	}
	if got := s.Processed(); got != 5 {
		t.Fatalf("Processed() = %d, want 5", got)
	}
}

// TestAtRunnerAllocFree pins the closure-free path: scheduling a
// pointer-shaped Runner must not allocate (the property the world's
// movement-tick and waypoint records depend on).
func TestAtRunnerAllocFree(t *testing.T) {
	s := NewScheduler(2)
	var log []int
	r := &recorder{log: &log}
	// Pre-grow the heap so append never reallocates inside the
	// measured region.
	for i := 0; i < 64; i++ {
		s.AtRunner(Time(i), r)
	}
	for s.Step() {
	}
	log = log[:0]
	allocs := testing.AllocsPerRun(100, func() {
		s.AtRunner(s.Now()+1, r)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("AtRunner+Step allocates %.1f times per op, want 0", allocs)
	}
}

// TestClosureChurnAllocFree: a standing population of events where every
// executed one reschedules the same closure at a pseudo-random later
// instant — the timer churn of a running world — allocates nothing per
// event.
func TestClosureChurnAllocFree(t *testing.T) {
	s := NewScheduler(42)
	var fire func()
	fire = func() { s.After(Time(1+s.Rand().Int64N(1_000)), fire) }
	for i := 0; i < 512; i++ {
		s.At(Time(i), fire)
	}
	for i := 0; i < 10_000; i++ {
		s.Step()
	}
	if allocs := testing.AllocsPerRun(1_000, func() { s.Step() }); allocs != 0 {
		t.Fatalf("a churning Step allocates %.2f times", allocs)
	}
}

// TestItemIs56Bytes pins the event record's size: a key, one interface
// word pair and the user word. A heap of them is one dense slice, and the
// sift loops move whole items, so every byte more is paid per level.
func TestItemIs56Bytes(t *testing.T) {
	if size := unsafe.Sizeof(Item{}); size != 56 {
		t.Fatalf("sim.Item is %d bytes, want 56", size)
	}
}

// TestExecDispatch: Exec runs a func() payload and a Runner payload, and
// panics on anything else — a nil payload and a nil func included.
func TestExecDispatch(t *testing.T) {
	var log []int
	fn := Item{X: func() { log = append(log, 1) }}
	fn.Exec()
	r := Item{X: &recorder{log: &log, tag: 2}}
	r.Exec()
	if len(log) != 2 || log[0] != 1 || log[1] != 2 {
		t.Fatalf("ran %v, want [1 2]", log)
	}
	var nilFn func()
	for _, x := range []any{nil, "a message", 7, nilFn} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Exec of a %T payload did not panic", x)
				}
			}()
			it := Item{K: Key{At: 3}, X: x}
			it.Exec()
		}()
	}
}
