package lme1

import (
	"lme/internal/coloring"
	"lme/internal/core"
	"lme/internal/doorway"
)

// dwIndex identifies one of the four doorway instances of Figure 5.
type dwIndex int

const (
	adr dwIndex = iota // asynchronous doorway of the recolouring module
	sdr                // synchronous doorway of the recolouring module
	adf                // asynchronous doorway of the fork-collection module
	sdf                // synchronous doorway of the fork-collection module
	numDoorways
)

func (d dwIndex) String() string {
	switch d {
	case adr:
		return "AD^r"
	case sdr:
		return "SD^r"
	case adf:
		return "AD^f"
	case sdf:
		return "SD^f"
	default:
		return "?"
	}
}

// msgDoorway announces a position change relative to one doorway (the
// cross/exit broadcasts of Figure 2).
type msgDoorway struct {
	D     dwIndex
	Cross bool
}

// doorwayMsgs holds the eight possible doorway announcements boxed once:
// a msgDoorway is two words, so converting a fresh one to core.Message
// would allocate on every cross and exit.
var doorwayMsgs = func() (t [numDoorways][2]core.Message) {
	for d := range t {
		t[d][0] = msgDoorway{D: dwIndex(d)}
		t[d][1] = msgDoorway{D: dwIndex(d), Cross: true}
	}
	return t
}()

// doorwayMsg returns the announcement of a cross or exit of doorway d.
func doorwayMsg(d dwIndex, cross bool) core.Message {
	if cross {
		return doorwayMsgs[d][1]
	}
	return doorwayMsgs[d][0]
}

// msgUpdateColor carries a node's freshly chosen colour (Lines 7 and 39).
type msgUpdateColor struct {
	Color int
}

// msgStatus is the static node's reply to a newly arrived neighbour
// (Line 46): its colour together with its logical position relative to
// every doorway, so the newcomer can rebuild its L[] entries.
type msgStatus struct {
	Color int
	Pos   [numDoorways]doorway.Pos
}

// msgReq requests the shared fork (Lines 24–29).
type msgReq struct{}

// msgFork transfers the shared fork; Flag set means the sender wants the
// fork back (Line 31).
type msgFork struct {
	Flag bool
}

// msgNACK tells a recolouring node that the sender is not participating
// (Lines 40–43 of the wrapper).
type msgNACK struct{}

// msgGraph is one iteration of the greedy colouring procedure (Algorithm
// 4): the sender's conflict graph so far, with Finished marking its final
// transmission (Line 71).
type msgGraph struct {
	Edges    []coloring.Edge
	Finished bool
}

// msgTempColor is one iteration of the fast colouring procedure (Algorithm
// 5): the sender's temporary colour for the given phase.
type msgTempColor struct {
	Phase int
	Color int
}
