// Package sim provides the discrete-event substrate on which the MANET
// model of internal/manet executes. Virtual time is a monotone int64
// microsecond counter; events are ordered by a canonical key (time, owner,
// class, a, b) whose comparison is a total order independent of how the
// event population is partitioned — the property the tile engine of
// internal/manet relies on to execute the same sequence for every tiling.
// An Item is a key, a payload and one word for the scheduler's user: a
// callback item's payload is a func() or a Runner, which Item.Exec runs,
// and an engine may give its own event classes other payloads
// (internal/manet's message deliveries carry the message itself).
//
// Two queues hold Items and pop them in Key order. Wheel, a calendar
// queue over 64 µs buckets, is the queue every tile runs on: message
// delays are bounded, so almost every event falls due within its
// 16.4 ms horizon and is queued and popped without a comparison sift.
// EventHeap, a 4-ary min-heap, takes what is farther off: it is the
// wheel's overflow, the tile engine's queue of serial events (movement
// ticks are due a tick ahead, past the horizon), and the queue of
// Scheduler, a standalone single-heap loop for code that needs a bare
// event queue: its At/After/AtRunner events carry the reserved NoOwner
// owner and the scheduler's monotone sequence number, so same-instant
// events fire in schedule order.
package sim

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"
)

// Time is a virtual time instant, in microseconds since the start of the
// run. It is a plain integer rather than time.Time because simulated time
// has no calendar meaning; convert with FromDuration / ToDuration at the
// boundary.
type Time int64

// Infinity is a time later than any event a run can produce.
const Infinity Time = 1<<63 - 1

// FromDuration converts a wall-clock duration to virtual time units.
func FromDuration(d time.Duration) Time { return Time(d.Microseconds()) }

// ToDuration converts a virtual time span to a wall-clock duration.
func ToDuration(t Time) time.Duration { return time.Duration(t) * time.Microsecond }

// String formats the time as a duration for human-readable traces.
func (t Time) String() string {
	if t == Infinity {
		return "∞"
	}
	return ToDuration(t).String()
}

// Runner is the alternative to scheduling a closure: a reusable record
// whose Run method is invoked when its instant arrives. Pointer-shaped
// implementations convert to an Item's payload without allocating, so a
// record scheduled again and again (internal/manet's movement ticks and
// waypoint machines) costs nothing per event.
type Runner interface {
	Run()
}

// Event classes, the third component of the canonical key. At one instant
// a node's local events run before its message deliveries, which run
// before its topology events; the constants' numeric order is the
// execution order.
const (
	// ClassLocal covers node-local callbacks: workload follow-ups,
	// crashes, mobility trip bookkeeping, and the Scheduler's ownerless
	// events.
	ClassLocal uint8 = iota
	// ClassDeliver covers message deliveries; the owner is the receiver,
	// A the sender and B the sender's monotone send sequence, so per-link
	// FIFO ties break identically in every engine.
	ClassDeliver
	// ClassTopo covers the events the tile engine serialises on its
	// coordinator: topology mutations (movement ticks, jumps), which
	// touch two nodes' protocols and the spatial index at once, and
	// ownerless script closures.
	ClassTopo
)

// NoOwner is the reserved owner of ownerless events; it orders before
// every real node ID.
const NoOwner int32 = -1

// Key is the canonical total order over events. Comparison is
// lexicographic over (At, Owner, Class, A, B); every scheduled event's key
// is unique, so the order is total and identical regardless of which heap
// — global or per-tile — the event happens to sit in.
type Key struct {
	At    Time
	Owner int32
	Class uint8
	A, B  uint64
}

// Less reports whether k orders before o in the canonical order.
func (k Key) Less(o Key) bool {
	if k.At != o.At {
		return k.At < o.At
	}
	if k.Owner != o.Owner {
		return k.Owner < o.Owner
	}
	if k.Class != o.Class {
		return k.Class < o.Class
	}
	if k.A != o.A {
		return k.A < o.A
	}
	return k.B < o.B
}

// KeyFloor is the smallest possible key at time t: the exclusive upper
// bound "every event strictly before instant t" used by the tile
// engine's window arithmetic.
func KeyFloor(t Time) Key {
	return Key{At: t, Owner: -1 << 31}
}

// Item is one queued event: its key K, its payload X, and a word W the
// scheduler's user may use as it likes. For a callback X holds a func() or
// a Runner, which Exec runs. A user may queue items of a class of its own
// with another payload, as long as it dispatches them itself rather than
// through Exec. 56 bytes, so a heap of them stays one dense slice.
type Item struct {
	K Key
	X any
	W int64
}

// Exec runs a callback item: X's func() or its Runner. It panics on any
// other payload, a nil one included.
func (it *Item) Exec() {
	switch x := it.X.(type) {
	case func():
		x()
	case Runner:
		x.Run()
	default:
		panic(fmt.Sprintf("sim: event %+v carries %T, neither a func() nor a Runner", it.K, it.X))
	}
}

// EventHeap is a value-typed 4-ary min-heap of Items ordered by Key. The
// zero value is an empty, usable heap. It is the queue of the Scheduler,
// of the tile engine's serial events and of a Wheel's far items: the
// shallower tree (log₄ vs log₂ depth) and the value layout (one
// contiguous slice, no indirection) keep its push/pop churn
// cache-resident and free of per-event allocations.
type EventHeap struct {
	items []Item
}

// Len reports how many events are queued.
func (h *EventHeap) Len() int { return len(h.items) }

// MinKey returns the smallest queued key, if any.
func (h *EventHeap) MinKey() (Key, bool) {
	if len(h.items) == 0 {
		return Key{}, false
	}
	return h.items[0].K, true
}

// Push inserts it and restores the heap order: the hole left at the end
// climbs while its parent orders after it, then takes it — one Item move
// (and one set of write barriers) per level where a swap is three.
func (h *EventHeap) Push(it Item) {
	s := append(h.items, Item{})
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !it.K.Less(s[parent].K) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = it
	h.items = s
}

// Pop removes and returns the earliest event. The caller must have checked
// that the heap is non-empty.
func (h *EventHeap) Pop() Item {
	s := h.items
	root := s[0]
	last := len(s) - 1
	it := s[last]
	s[last] = Item{} // release the payload reference
	s = s[:last]
	h.items = s
	if last > 0 {
		siftDown(s, 0, it)
	}
	return root
}

// siftDown places it in the subtree whose root slot i is a hole: the hole
// sinks, the smallest of up to four children moving up into it, until none
// of them orders before it.
func siftDown(s []Item, i int, it Item) {
	n := len(s)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if s[c].K.Less(s[min].K) {
				min = c
			}
		}
		if !s[min].K.Less(it.K) {
			break
		}
		s[i] = s[min]
		i = min
	}
	s[i] = it
}

// ExtractOwner removes every event whose key names the given owner,
// appends them to buf and returns it. Through Wheel.ExtractOwner it is
// the mover-migration primitive of the tile engine: when a node crosses a
// tile boundary its pending events follow it. The scan is O(len) with an
// O(len) re-heapify — cheap because migrations only happen at
// mobility-tick granularity.
func (h *EventHeap) ExtractOwner(owner int32, buf []Item) []Item {
	s := h.items
	kept := s[:0]
	for _, it := range s {
		if it.K.Owner == owner {
			buf = append(buf, it)
		} else {
			kept = append(kept, it)
		}
	}
	if len(kept) == len(s) {
		return buf // nothing extracted, heap order untouched
	}
	for i := len(kept); i < len(s); i++ {
		s[i] = Item{} // release references of vacated tail slots
	}
	h.items = kept
	h.heapify()
	return buf
}

// heapify restores the heap invariant over an arbitrarily ordered slice.
func (h *EventHeap) heapify() {
	s := h.items
	if len(s) < 2 {
		return
	}
	for i := (len(s) - 2) / 4; i >= 0; i-- { // from the last slot's parent up
		siftDown(s, i, s[i])
	}
}

// Scheduler is a single-heap discrete-event executor. The zero value is
// not usable; use NewScheduler. Scheduler is not safe for concurrent use.
// internal/manet does not run on it: its tile engine keeps one Wheel per
// tile.
type Scheduler struct {
	now  Time
	seq  uint64
	heap EventHeap
	rng  *rand.Rand

	// processed counts events executed so far (for diagnostics and
	// runaway detection in tests).
	processed uint64
}

// NewRand returns the deterministic random stream derived from seed —
// the stream a NewScheduler(seed) draws from, for callers that need only
// the numbers.
func NewRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// NewScheduler returns a scheduler at time zero whose random stream is
// NewRand(seed).
func NewScheduler(seed uint64) *Scheduler {
	return &Scheduler{rng: NewRand(seed)}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Rand returns the scheduler's deterministic random stream.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Processed reports how many events have been executed.
func (s *Scheduler) Processed() uint64 { return s.processed }

// Pending reports how many events are queued.
func (s *Scheduler) Pending() int { return s.heap.Len() }

// At schedules fn to run at the given virtual time. Scheduling in the past
// is clamped to the present. Ownerless events order by (time, schedule
// sequence): interleaved At and AtRunner calls for one instant fire in
// call order, before any owned event of that instant.
func (s *Scheduler) At(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.heap.Push(Item{K: Key{At: t, Owner: NoOwner, Class: ClassLocal, A: s.seq}, X: fn})
}

// After schedules fn to run d time units from now.
func (s *Scheduler) After(d Time, fn func()) {
	s.At(s.now+d, fn)
}

// AtRunner schedules r.Run at the given virtual time, sharing the FIFO
// sequence space with At. Unlike At it needs no closure, so a Runner
// scheduled again each time it fires makes the schedule-execute cycle
// allocation-free.
func (s *Scheduler) AtRunner(t Time, r Runner) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.heap.Push(Item{K: Key{At: t, Owner: NoOwner, Class: ClassLocal, A: s.seq}, X: r})
}

// run executes one popped event.
func (s *Scheduler) run(it *Item) {
	s.now = it.K.At
	it.Exec()
	s.processed++
}

// ErrEventLimit is returned by Run when the event budget is exhausted,
// which almost always indicates a livelock (e.g. two nodes bouncing a
// message forever).
var ErrEventLimit = errors.New("sim: event limit exceeded")

// RunUntil executes events in order until the queue is empty or the next
// event is later than deadline. Events at exactly the deadline still run.
// maxEvents bounds the total number of events executed in this call
// (0 means no bound); exceeding it returns ErrEventLimit.
func (s *Scheduler) RunUntil(deadline Time, maxEvents uint64) error {
	executed := uint64(0)
	for s.heap.Len() > 0 {
		if s.heap.items[0].K.At > deadline {
			break
		}
		it := s.heap.Pop()
		s.run(&it)
		executed++
		if maxEvents > 0 && executed >= maxEvents {
			return fmt.Errorf("%w (%d events by t=%v)", ErrEventLimit, executed, s.now)
		}
	}
	if s.now < deadline && deadline != Infinity {
		s.now = deadline
	}
	return nil
}

// Run executes all pending events (including ones they schedule) until the
// queue drains, with an event budget. Prefer RunUntil for open systems that
// generate events forever.
func (s *Scheduler) Run(maxEvents uint64) error {
	return s.RunUntil(Infinity, maxEvents)
}

// Step executes the single next event, if any, and reports whether one ran.
func (s *Scheduler) Step() bool {
	if s.heap.Len() == 0 {
		return false
	}
	it := s.heap.Pop()
	s.run(&it)
	return true
}
