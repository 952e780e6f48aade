// Package lme2 implements the second local mutual exclusion algorithm of
// the paper (Chapter 6, Algorithms 6–7): fork collection with dynamic
// priorities maintained by the link-reversal-style higher[] flags and the
// notification/switch mechanism, with no doorways and no colours. It has
// optimal failure locality 2 and response time O(n²) under mobility, and
// O(n) in static networks (Theorems 25–26) — the notification mechanism is
// what improves on the O(n²) of Tsay–Bagrodia in the static case.
//
// Two deviations from the printed pseudo-code, both documented in
// DESIGN.md §4:
//
//   - A thinking node always grants a fork request (the analogue of
//     Algorithm 1's "outside SD^f" disjunct); the printed guard would let
//     a thinking node that holds all its forks suspend a hungry
//     neighbour's request forever.
//   - A switch message that flips higher[j] while the receiver is hungry
//     triggers re-evaluation of the request sets (the analogue of the
//     colour-update re-evaluation in Algorithm 1).
package lme2

import (
	"fmt"

	"lme/internal/core"
	"lme/internal/trace"
)

// Config parameterises a node of Algorithm 2.
type Config struct {
	// Notify disables the notification/switch-on-hungry mechanism when
	// false — the ablation used by experiment E3 to show the mechanism
	// is what yields the linear static response time. Default true via
	// New.
	Notify bool
}

// msgNotification announces that the sender became hungry (Line 2).
type msgNotification struct{}

// msgSwitch lowers the sender's priority below the receiver (link
// reversal).
type msgSwitch struct{}

// msgReq requests the shared fork.
type msgReq struct{}

// msgFork transfers the shared fork; Flag set means the sender wants it
// back (Line 35).
type msgFork struct {
	Flag bool
}

// Node is one node's instance of Algorithm 2. It implements
// core.Protocol.
type Node struct {
	env core.Env
	cfg Config

	// emit publishes protocol diagnostics to the runtime's trace bus;
	// nil when the runtime does not implement trace.Emitter. wants is
	// the runtime's per-kind interest mask, consulted before formatting
	// diagnostics; set whenever emit is (always-true fallback).
	emit  func(trace.Event)
	wants func(trace.Kind) bool

	state core.State

	// peers is the current neighbour set N with the node's three
	// per-neighbour bits, in ascending ID order (which is also the message
	// emission order). Handlers resolve the sender to its slot once and
	// pass the slot down; OnLinkUp and OnLinkDown shift slots, so none is
	// held across them.
	peers core.Slots[peer]
}

// peer is one neighbour's slot record: a set of the flags below.
type peer uint8

const (
	// pHigher is higher[j]: neighbour j currently has priority over this
	// node. At most one of higher_i[j], higher_j[i] is false at any time;
	// both true only while a switch message is in transit.
	pHigher    peer = 1 << iota
	pFork           // at[j]: this node holds the fork shared with j
	pSuspended      // j ∈ S: j's fork request is suspended
)

func (p peer) has(f peer) bool { return p&f != 0 }

var _ core.Protocol = (*Node)(nil)

// New creates a node of Algorithm 2 with the notification mechanism
// enabled.
func New() *Node { return NewWithConfig(Config{Notify: true}) }

// NewWithConfig creates a node with explicit configuration.
func NewWithConfig(cfg Config) *Node {
	return &Node{cfg: cfg, state: core.Thinking}
}

// Init implements core.Protocol: initially higher_i[j] holds iff
// ID[i] < ID[j], and the smaller ID owns the fork — an acyclic initial
// orientation.
func (n *Node) Init(env core.Env) {
	n.env = env
	if em, ok := env.(trace.Emitter); ok {
		n.emit = em.Emit
		n.wants = func(trace.Kind) bool { return true }
		if in, ok := env.(trace.Interest); ok {
			n.wants = in.Wants
		}
	}
	me := env.ID()
	neighbors := env.Neighbors()
	n.peers.Reset(neighbors)
	for i, j := range neighbors {
		if me < j {
			*n.peers.At(i) = pHigher | pFork
		}
	}
}

// State implements core.Protocol.
func (n *Node) State() core.State { return n.state }

// Higher reports the current priority flag for neighbour j (for tests).
func (n *Node) Higher(j core.NodeID) bool { return n.flag(j, pHigher) }

// HasFork reports fork possession for neighbour j (for tests).
func (n *Node) HasFork(j core.NodeID) bool { return n.flag(j, pFork) }

// flag reports whether neighbour j has flag f set; false for a
// non-neighbour.
func (n *Node) flag(j core.NodeID, f peer) bool {
	i := n.peers.Find(j)
	return i >= 0 && n.peers.At(i).has(f)
}

// BecomeHungry implements core.Protocol: Lines 1–5.
func (n *Node) BecomeHungry() {
	if n.state != core.Thinking {
		return
	}
	n.setState(core.Hungry)
	if n.cfg.Notify {
		n.env.Broadcast(msgNotification{})
	}
	n.maybeEat()
	if n.state == core.Eating {
		return
	}
	if n.allLowForks() {
		n.requestHighForks()
	} else {
		n.requestLowForks()
	}
}

// ExitCS implements core.Protocol: Lines 6–9 — reverse all edges (lower
// this node below every neighbour) and release the suspended requests.
func (n *Node) ExitCS() {
	if n.state != core.Eating {
		return
	}
	n.setState(core.Thinking)
	n.reverseEdges()
	for i := 0; i < n.peers.Len(); i++ {
		if n.peers.At(i).has(pSuspended) {
			n.sendFork(i)
		}
	}
}

// reverseEdges lowers this node below every neighbour it still has
// priority over, telling each with a switch message.
func (n *Node) reverseEdges() {
	for i := 0; i < n.peers.Len(); i++ {
		if p := n.peers.At(i); !p.has(pHigher) {
			n.env.Send(n.peers.ID(i), msgSwitch{})
			*p |= pHigher
		}
	}
}

// OnMessage implements core.Protocol.
func (n *Node) OnMessage(from core.NodeID, msg core.Message) {
	i := n.peers.Find(from)
	if i < 0 {
		return
	}
	switch m := msg.(type) {
	case msgReq:
		n.onReq(i)
	case msgFork:
		n.onFork(i, m.Flag)
	case msgNotification:
		n.onNotification(i)
	case msgSwitch:
		n.onSwitch(i)
	default:
		n.tracef("unknown message %T from %d", msg, from)
	}
}

// onReq is Lines 10–14, with the thinking-node grant (see package doc).
func (n *Node) onReq(i int) {
	p := n.peers.At(i)
	if !p.has(pFork) {
		return // fork already in transit to j
	}
	thinking := n.state == core.Thinking
	switch {
	case !p.has(pHigher) && (!n.allLowForks() || thinking):
		n.sendFork(i)
	case p.has(pHigher) && (!n.allForks() || thinking):
		n.sendFork(i)
		n.releaseHighForks()
	default:
		*p |= pSuspended
	}
}

// onFork is Lines 15–21.
func (n *Node) onFork(i int, flag bool) {
	*n.peers.At(i) |= pFork
	if n.state == core.Thinking {
		if flag {
			n.sendFork(i)
		}
		return
	}
	n.maybeEat()
	if n.allLowForks() {
		if flag {
			*n.peers.At(i) |= pSuspended
		}
		n.requestHighForks()
	} else if flag {
		n.sendFork(i)
	}
}

// onNotification is Lines 22–25: a thinking node with priority over the
// newly hungry neighbour reverses all its edges, so it cannot interfere
// later. This mechanism is what yields the O(n) static response time
// (Theorem 26).
func (n *Node) onNotification(i int) {
	if n.state != core.Thinking || n.peers.At(i).has(pHigher) {
		return
	}
	n.reverseEdges()
}

// onSwitch is Lines 26–27 plus the hungry re-evaluation (see package
// doc): j lowered itself below this node, which may newly satisfy
// all-low-forks.
func (n *Node) onSwitch(i int) {
	*n.peers.At(i) &^= pHigher
	if n.state != core.Hungry {
		return
	}
	if n.allLowForks() {
		n.requestHighForks()
	}
}

// OnLinkUp implements core.Protocol: Algorithm 7.
func (n *Node) OnLinkUp(j core.NodeID, iAmMoving bool) {
	i, _ := n.peers.Insert(j)
	if iAmMoving {
		n.onLinkUpMoving(i)
	} else {
		// Lines 40–41: the static side owns the new fork and has
		// priority over the mover.
		*n.peers.At(i) = pFork
	}
}

// onLinkUpMoving is Lines 42–46: the mover yields the fork, demotes
// itself out of the critical section if necessary, and reverses all its
// edges.
func (n *Node) onLinkUpMoving(i int) {
	*n.peers.At(i) = pHigher
	if n.state == core.Eating {
		// Line 44's safety demotion. The span layer counts the
		// eating→hungry transition itself; the note names the newcomer
		// that caused it, which the state event cannot carry.
		n.tracef("demoted: yielded fork to static neighbour %d", n.peers.ID(i))
		n.setState(core.Hungry)
	}
	n.reverseEdges() // the newcomer's edge already points at this node
	if n.state == core.Hungry {
		// Restart collection under the new orientation: every fork
		// is now a high fork unless a switch arrives.
		if n.allLowForks() {
			n.requestHighForks()
		} else {
			n.requestLowForks()
		}
	}
}

// OnLinkDown implements core.Protocol: Lines 47–48 plus fork destruction
// and the progress re-evaluation the departure may enable.
func (n *Node) OnLinkDown(j core.NodeID) {
	n.peers.Remove(j)
	if n.state != core.Hungry {
		return
	}
	n.maybeEat()
	if n.state == core.Hungry && n.allLowForks() {
		n.requestHighForks()
	}
}

// maybeEat enters the critical section when hungry with every fork.
func (n *Node) maybeEat() {
	if n.state == core.Hungry && n.allForks() {
		n.setState(core.Eating)
	}
}

func (n *Node) allForks() bool {
	for i := 0; i < n.peers.Len(); i++ {
		if !n.peers.At(i).has(pFork) {
			return false
		}
	}
	return true
}

// allLowForks checks forks shared with higher-priority neighbours.
func (n *Node) allLowForks() bool {
	for i := 0; i < n.peers.Len(); i++ {
		if *n.peers.At(i)&(pFork|pHigher) == pHigher {
			return false
		}
	}
	return true
}

// requestLowForks is Lines 28–30.
func (n *Node) requestLowForks() {
	for i := 0; i < n.peers.Len(); i++ {
		if *n.peers.At(i)&(pFork|pHigher) == pHigher {
			n.env.Send(n.peers.ID(i), msgReq{})
		}
	}
}

// requestHighForks is Lines 31–33.
func (n *Node) requestHighForks() {
	for i := 0; i < n.peers.Len(); i++ {
		if *n.peers.At(i)&(pFork|pHigher) == 0 {
			n.env.Send(n.peers.ID(i), msgReq{})
		}
	}
}

// sendFork is Lines 34–36.
func (n *Node) sendFork(i int) {
	p := n.peers.At(i)
	if !p.has(pFork) {
		return
	}
	flag := p.has(pHigher) && n.state == core.Hungry
	n.env.Send(n.peers.ID(i), msgFork{Flag: flag})
	*p &^= pFork | pSuspended
}

// releaseHighForks is Lines 37–39. sendFork clears the slot's pSuspended
// as the loop passes it, which moves no slot.
func (n *Node) releaseHighForks() {
	for i := 0; i < n.peers.Len(); i++ {
		if *n.peers.At(i)&(pSuspended|pHigher) == pSuspended {
			n.sendFork(i)
		}
	}
}

func (n *Node) setState(s core.State) {
	if n.state == s {
		return
	}
	n.state = s
	n.env.SetState(s)
}

// tracef publishes a free-form protocol diagnostic on the trace bus.
func (n *Node) tracef(format string, args ...any) {
	if n.emit == nil || !n.wants(trace.KindNote) {
		return
	}
	n.emit(trace.Event{Kind: trace.KindNote, Peer: trace.NoNode, Detail: fmt.Sprintf(format, args...)})
}
