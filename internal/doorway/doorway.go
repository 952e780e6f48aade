// Package doorway implements the doorway synchronisation construct of
// Chapter 4 of the paper (originally due to Lamport, elaborated by Choy and
// Singh): a code region with entry and exit fragments such that if node p_i
// crosses the doorway before a neighbour p_j begins executing the entry
// code, then p_j does not cross until p_i exits.
//
// Two kinds exist (Figure 2). In a synchronous doorway a node crosses when
// it observes all neighbours outside simultaneously (in one atomic
// evaluation of its local state); in an asynchronous doorway it crosses
// once it has observed each neighbour outside at least once since starting
// the entry code. Algorithm 1 of the paper composes them into double
// doorways (Figures 3–5); that composition lives in internal/lme1, which
// embeds four Doorway instances per node.
//
// A Doorway is a passive component: its owner feeds it observations
// (cross/exit messages from neighbours, link changes) and it reports back
// through the cross callback when the entry condition is met. All methods
// are single-threaded, driven by the owner's event handlers.
package doorway

import (
	"fmt"
	"slices"
)

// Kind distinguishes the two doorway flavours of Figure 2.
type Kind int

// The doorway kinds.
const (
	Synchronous Kind = iota + 1
	Asynchronous
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Synchronous:
		return "sync"
	case Asynchronous:
		return "async"
	default:
		return "invalid"
	}
}

// Pos is a node's logical position relative to a doorway.
type Pos int

// A node is Outside until it crosses (completes the entry code), then
// Behind until it completes the exit code.
const (
	Outside Pos = iota + 1
	Behind
)

// String names the position.
func (p Pos) String() string {
	switch p {
	case Outside:
		return "outside"
	case Behind:
		return "behind"
	default:
		return "invalid"
	}
}

// Doorway is one node's view of one doorway instance. Neighbours are
// addressed by slot: the position of the neighbour in the owner's sorted
// neighbour table (core.Slots), which the owner resolves once per event and
// keeps aligned with this doorway through Add and Forget. A slot number is
// therefore valid only until the next Add or Forget.
type Doorway struct {
	kind     Kind
	pos      Pos
	entering bool

	// obs is the paper's L[] array restricted to this doorway, one byte
	// per neighbour slot: obsBehind is the last observed position, obsSeen
	// marks a neighbour observed outside at least once since entry began
	// (consulted by asynchronous doorways only). The mark is sticky: only
	// BeginEntry resets it.
	obs []uint8

	// announce broadcasts this node's own position change (true = cross
	// message, false = exit message). Provided by the owner so doorway
	// traffic rides the owner's message types.
	announce func(cross bool)

	// onCross runs immediately after the node crosses.
	onCross func()
}

const (
	obsBehind uint8 = 1 << iota
	obsSeen
)

// New creates a doorway of the given kind over n neighbours, occupying
// slots 0..n-1 (all considered outside, per Figure 2's initialisation).
func New(kind Kind, n int, announce func(cross bool), onCross func()) *Doorway {
	return &Doorway{
		kind:     kind,
		pos:      Outside,
		obs:      make([]uint8, n),
		announce: announce,
		onCross:  onCross,
	}
}

// Behind reports whether this node is behind the doorway.
func (d *Doorway) Behind() bool { return d.pos == Behind }

// Entering reports whether the entry code is in progress.
func (d *Doorway) Entering() bool { return d.entering }

// ObservedPos returns the last observed position of the neighbour in slot
// i (Outside until an observation says otherwise).
func (d *Doorway) ObservedPos(i int) Pos {
	if d.obs[i]&obsBehind != 0 {
		return Behind
	}
	return Outside
}

// BeginEntry starts executing the entry code. For an asynchronous doorway
// the "seen outside" bookkeeping restarts from the current observations.
// Crossing may happen immediately (within this call) if the condition
// already holds.
func (d *Doorway) BeginEntry() {
	if d.pos == Behind {
		panic(fmt.Sprintf("doorway: BeginEntry while behind %v doorway", d.kind))
	}
	d.entering = true
	for i, o := range d.obs {
		if o&obsBehind != 0 {
			d.obs[i] = obsBehind
		} else {
			d.obs[i] = obsSeen
		}
	}
	d.tryCross()
}

// Exit runs the exit code: announce the exit and become outside. No-op if
// already outside (the mover's "exit any doorway" calls this
// unconditionally).
func (d *Doorway) Exit() {
	d.entering = false
	if d.pos != Behind {
		return
	}
	d.pos = Outside
	d.announce(false)
}

// Abort cancels an entry in progress without announcing anything (the node
// never crossed, so neighbours already consider it outside).
func (d *Doorway) Abort() {
	d.entering = false
}

// Observe records that the neighbour in slot i reported the given position
// (a cross or exit message, or a position carried by a status message to a
// newly arrived node), then re-evaluates the entry condition.
func (d *Doorway) Observe(i int, p Pos) {
	d.Set(i, p)
	d.tryCross()
}

// Set records the position of the neighbour in slot i without
// re-evaluating the entry condition.
func (d *Doorway) Set(i int, p Pos) {
	if p == Outside {
		d.obs[i] = obsSeen
	} else {
		d.obs[i] |= obsBehind
	}
}

// Add installs a new neighbour in slot i with a known position (Outside
// for the paper's "a new neighboring node is considered to be outside"),
// shifting the slots from i upward by one.
func (d *Doorway) Add(i int, p Pos) {
	d.obs = slices.Insert(d.obs, i, 0)
	d.Set(i, p)
	// No tryCross here: a *new* neighbour can only weaken the entry
	// condition if it is behind, never satisfy it; and whether a node in
	// the middle of an entry may cross upon a topology change is the
	// owner's decision (the paper's movers restart their entry).
}

// Forget drops the departed neighbour in slot i, shifting the slots above
// it down by one, and re-evaluates the entry condition (losing a
// behind-the-doorway neighbour can enable crossing).
func (d *Doorway) Forget(i int) {
	d.obs = slices.Delete(d.obs, i, i+1)
	d.tryCross()
}

// tryCross crosses the doorway if the entry condition of Figure 2 holds:
// all neighbours observed outside simultaneously (synchronous), or each
// neighbour observed outside at least once since entry (asynchronous).
func (d *Doorway) tryCross() {
	if !d.entering || d.pos == Behind {
		return
	}
	blocked, want := obsBehind, uint8(0)
	if d.kind == Asynchronous {
		blocked, want = obsSeen, obsSeen
	}
	for _, o := range d.obs {
		if o&blocked != want {
			return
		}
	}
	d.entering = false
	d.pos = Behind
	d.announce(true)
	d.onCross()
}
