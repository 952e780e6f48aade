// Package baseline implements the comparison algorithms of the paper's
// Table 1: the hygienic dining-philosophers algorithm of Chandy and Misra
// (failure locality n), a Choy–Singh-style doubly-doored fork-collection
// algorithm for static networks with a fixed colouring (failure locality
// 4), and the NoNotify ablation of Algorithm 2 (Tsay–Bagrodia-like
// dynamics, quadratic static response time).
package baseline

import (
	"fmt"

	"lme/internal/core"
)

// cmReq is a Chandy–Misra request token.
type cmReq struct{}

// cmFork transfers a fork (always cleaned in transit).
type cmFork struct{}

// ChandyMisra is one node of the hygienic dining philosophers algorithm
// [Chandy & Misra 1984]: forks are clean or dirty; a hungry node yields a
// fork only if it is dirty; eating dirties all forks. The initial
// orientation (smaller ID holds a dirty fork) is acyclic, which gives
// progress; a single crash can stall a chain across the whole system —
// failure locality n, the paper's point of comparison.
//
// MANET adaptation (DESIGN.md §1 S10): a link creation places a dirty fork
// at the static endpoint and the request token at the mover; link failure
// destroys both; an eating node that gains a link while moving demotes
// itself to hungry, the same safety rule the paper's algorithms use.
type ChandyMisra struct {
	env core.Env

	state core.State

	// peers is the neighbour set with the node's three per-neighbour
	// bits, in ascending ID order (which is also the message emission
	// order).
	peers core.Slots[cmPeer]
}

// cmPeer is one neighbour's slot record: a set of the flags below.
type cmPeer uint8

const (
	cmHolds cmPeer = 1 << iota // holds the fork shared with j
	cmDirty                    // that fork is dirty
	cmToken                    // holds the request token for that fork
)

func (p cmPeer) has(f cmPeer) bool { return p&f != 0 }

var _ core.Protocol = (*ChandyMisra)(nil)

// NewChandyMisra creates a node.
func NewChandyMisra() *ChandyMisra {
	return &ChandyMisra{state: core.Thinking}
}

// Init implements core.Protocol.
func (n *ChandyMisra) Init(env core.Env) {
	n.env = env
	me := env.ID()
	neighbors := env.Neighbors()
	n.peers.Reset(neighbors)
	for i, j := range neighbors {
		if me < j {
			*n.peers.At(i) = cmHolds | cmDirty // all forks start dirty
		} else {
			*n.peers.At(i) = cmToken
		}
	}
}

// State implements core.Protocol.
func (n *ChandyMisra) State() core.State { return n.state }

// HasFork reports fork possession for neighbour j (for tests).
func (n *ChandyMisra) HasFork(j core.NodeID) bool { return n.flag(j, cmHolds) }

// flag reports whether neighbour j has flag f set; false for a
// non-neighbour.
func (n *ChandyMisra) flag(j core.NodeID, f cmPeer) bool {
	i := n.peers.Find(j)
	return i >= 0 && n.peers.At(i).has(f)
}

// BecomeHungry implements core.Protocol.
func (n *ChandyMisra) BecomeHungry() {
	if n.state != core.Thinking {
		return
	}
	n.setState(core.Hungry)
	n.requestMissing()
	n.maybeEat()
}

// ExitCS implements core.Protocol: dirty every fork and satisfy deferred
// requests.
func (n *ChandyMisra) ExitCS() {
	if n.state != core.Eating {
		return
	}
	n.setState(core.Thinking)
	for i := 0; i < n.peers.Len(); i++ {
		*n.peers.At(i) |= cmDirty
	}
	n.serveDeferred()
}

// OnMessage implements core.Protocol.
func (n *ChandyMisra) OnMessage(from core.NodeID, msg core.Message) {
	i := n.peers.Find(from)
	if i < 0 {
		return
	}
	p := n.peers.At(i)
	switch msg.(type) {
	case cmReq:
		*p |= cmToken
		n.maybeYield(i)
	case cmFork:
		*p = *p&^cmDirty | cmHolds
		n.maybeEat()
	}
}

// OnLinkUp implements core.Protocol (MANET adaptation).
func (n *ChandyMisra) OnLinkUp(j core.NodeID, iAmMoving bool) {
	i, _ := n.peers.Insert(j)
	if iAmMoving {
		*n.peers.At(i) = cmToken
		if n.state == core.Eating {
			n.setState(core.Hungry)
		}
		if n.state == core.Hungry {
			n.requestMissing()
		}
		return
	}
	*n.peers.At(i) = cmHolds | cmDirty
}

// OnLinkDown implements core.Protocol.
func (n *ChandyMisra) OnLinkDown(j core.NodeID) {
	n.peers.Remove(j)
	n.maybeEat()
}

// requestMissing sends the request token for every missing fork.
func (n *ChandyMisra) requestMissing() {
	for i := 0; i < n.peers.Len(); i++ {
		if p := n.peers.At(i); *p&(cmHolds|cmToken) == cmToken {
			*p &^= cmToken
			n.env.Send(n.peers.ID(i), cmReq{})
		}
	}
}

// maybeYield applies the hygienic rule to a pending request from j.
func (n *ChandyMisra) maybeYield(i int) {
	p, j := n.peers.At(i), n.peers.ID(i)
	if *p&(cmHolds|cmToken) != cmHolds|cmToken {
		return
	}
	switch n.state {
	case core.Eating:
		return // defer until exit
	case core.Hungry:
		if !p.has(cmDirty) {
			return // clean fork is kept while hungry
		}
	case core.Thinking:
		// always yield
	}
	*p &^= cmHolds | cmDirty
	n.env.Send(j, cmFork{})
	// A hungry node that yielded a dirty fork immediately wants it
	// back.
	if n.state == core.Hungry {
		*p &^= cmToken
		n.env.Send(j, cmReq{})
	}
}

// serveDeferred yields every dirty requested fork (after eating).
func (n *ChandyMisra) serveDeferred() {
	for i := 0; i < n.peers.Len(); i++ {
		n.maybeYield(i)
	}
}

func (n *ChandyMisra) maybeEat() {
	if n.state != core.Hungry {
		return
	}
	for i := 0; i < n.peers.Len(); i++ {
		if !n.peers.At(i).has(cmHolds) {
			return
		}
	}
	n.setState(core.Eating)
}

func (n *ChandyMisra) setState(s core.State) {
	if n.state == s {
		return
	}
	n.state = s
	n.env.SetState(s)
}

// String identifies the algorithm in tables.
func (n *ChandyMisra) String() string { return fmt.Sprintf("chandy-misra[%d]", n.env.ID()) }
