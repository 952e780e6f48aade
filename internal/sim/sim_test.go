package sim

import (
	"errors"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events out of FIFO order at %d: got %d", i, v)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler(1)
	var fired []Time
	s.At(10, func() {
		fired = append(fired, s.Now())
		s.After(5, func() { fired = append(fired, s.Now()) })
		s.At(12, func() { fired = append(fired, s.Now()) })
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 12, 15}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestSchedulerPastEventClampedToNow(t *testing.T) {
	s := NewScheduler(1)
	var at Time = -1
	s.At(10, func() {
		s.At(3, func() { at = s.Now() }) // in the past
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if at != 10 {
		t.Fatalf("past event ran at %v, want clamp to 10", at)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	s := NewScheduler(1)
	ran := 0
	s.At(10, func() { ran++ })
	s.At(20, func() { ran++ })
	s.At(30, func() { ran++ })
	if err := s.RunUntil(20, 0); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("ran = %d events by deadline 20, want 2", ran)
	}
	if s.Now() != 20 {
		t.Fatalf("Now() = %v, want 20", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", s.Pending())
	}
}

func TestRunEventLimit(t *testing.T) {
	s := NewScheduler(1)
	var loop func()
	loop = func() { s.After(1, loop) }
	s.After(1, loop)
	err := s.Run(1000)
	if !errors.Is(err, ErrEventLimit) {
		t.Fatalf("err = %v, want ErrEventLimit", err)
	}
}

func TestStep(t *testing.T) {
	s := NewScheduler(1)
	n := 0
	s.At(1, func() { n++ })
	s.At(2, func() { n++ })
	if !s.Step() || n != 1 {
		t.Fatalf("first Step: n = %d", n)
	}
	if !s.Step() || n != 2 {
		t.Fatalf("second Step: n = %d", n)
	}
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed uint64) []int64 {
		s := NewScheduler(seed)
		var out []int64
		for i := 0; i < 50; i++ {
			d := Time(s.Rand().Int64N(1000))
			s.After(d, func() { out = append(out, int64(s.Now())) })
		}
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestTimeDurationRoundTrip(t *testing.T) {
	if FromDuration(time.Millisecond) != 1000 {
		t.Fatalf("FromDuration(1ms) = %d", FromDuration(time.Millisecond))
	}
	if ToDuration(2500) != 2500*time.Microsecond {
		t.Fatalf("ToDuration(2500) = %v", ToDuration(2500))
	}
	if Infinity.String() != "∞" {
		t.Fatalf("Infinity.String() = %q", Infinity.String())
	}
}

// TestHeapProperty checks via testing/quick that, for arbitrary schedules,
// events always fire in nondecreasing time order.
func TestHeapProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		s := NewScheduler(7)
		var fired []Time
		for _, d := range delays {
			s.At(Time(d), func() { fired = append(fired, s.Now()) })
		}
		if err := s.Run(0); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEventHeapMatchesSortedOracle drives Push, Pop and ExtractOwner with
// random operations against a slice kept sorted by key, through heaps of
// every small size (an extraction may leave zero or one item to re-heapify).
func TestEventHeapMatchesSortedOracle(t *testing.T) {
	matchSortedOracle(t, &EventHeap{})
}

// TestWheelMatchesSortedOracle is the same random run over a Wheel: its
// keys all fall within 50 µs, so every item shares the first bucket or
// two and the run stresses the sorted chains.
func TestWheelMatchesSortedOracle(t *testing.T) {
	matchSortedOracle(t, &Wheel{})
}

func matchSortedOracle(t *testing.T, h queue) {
	rng := rand.New(rand.NewPCG(3, 4))
	var want []Key
	var seq uint64
	for step := 0; step < 20_000; step++ {
		switch op := rng.IntN(16); {
		case op == 0:
			owner := int32(rng.IntN(6))
			got := h.ExtractOwner(owner, nil)
			kept := want[:0]
			extracted := 0
			for _, k := range want {
				if k.Owner == owner {
					extracted++
				} else {
					kept = append(kept, k)
				}
			}
			want = kept
			if len(got) != extracted {
				t.Fatalf("step %d: extracted %d events of owner %d, want %d", step, len(got), owner, extracted)
			}
		case op < 9 || len(want) == 0:
			seq++
			k := Key{At: Time(rng.IntN(50)), Owner: int32(rng.IntN(6)), Class: ClassDeliver, A: uint64(rng.IntN(3)), B: seq}
			h.Push(Item{K: k})
			i := sort.Search(len(want), func(i int) bool { return k.Less(want[i]) })
			want = slices.Insert(want, i, k)
		default:
			if got := h.Pop().K; got != want[0] {
				t.Fatalf("step %d: popped %+v, want %+v", step, got, want[0])
			}
			want = want[1:]
		}
		if h.Len() != len(want) {
			t.Fatalf("step %d: Len %d, want %d", step, h.Len(), len(want))
		}
		if min, ok := h.MinKey(); ok != (len(want) > 0) || (ok && min != want[0]) {
			t.Fatalf("step %d: MinKey %+v/%v, want head of %d", step, min, ok, len(want))
		}
	}
}
