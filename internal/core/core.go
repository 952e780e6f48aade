// Package core defines the abstractions of the local mutual exclusion
// problem in mobile ad hoc networks, as specified in Chapter 3 of
// "Efficient and Robust Local Mutual Exclusion in Mobile Ad Hoc Networks"
// (ICDCS 2008): node states, the protocol automaton interface that every
// algorithm implements, and the environment interface through which an
// automaton observes its neighbourhood and sends messages.
//
// A Protocol is a purely reactive, single-threaded state machine: the
// runtime (the discrete-event simulator in internal/manet, or the live
// runtime in internal/livenet, one event loop per core) delivers one
// event at a time to each protocol, which matches the atomic local
// computation steps of the paper's execution model.
package core

import "lme/internal/sim"

// NodeID uniquely identifies a node in the system. IDs are comparable and
// totally ordered; the algorithms use the order for symmetry breaking
// (initial fork placement, initial priorities, initial colours).
type NodeID int

// Message is a protocol-level message payload. Each algorithm defines its
// own concrete message types; the transport treats them as opaque values.
type Message any

// State is the coarse dining-philosophers state of a node (§3.2).
type State int

// The three state sets of §3.2. A node cycles thinking → hungry → eating →
// thinking; the algorithms may also demote an eating node back to hungry
// when it moves into a new neighbourhood.
const (
	Thinking State = iota + 1
	Hungry
	Eating
)

// String returns the lower-case name of the state.
func (s State) String() string {
	switch s {
	case Thinking:
		return "thinking"
	case Hungry:
		return "hungry"
	case Eating:
		return "eating"
	default:
		return "invalid"
	}
}

// Protocol is the automaton each algorithm implements, one instance per
// node. All methods are invoked by the runtime, never concurrently for the
// same node. A Protocol must not retain goroutines or timers of its own;
// any waiting is expressed by returning and reacting to later events.
type Protocol interface {
	// Init wires the environment handle. It is called exactly once,
	// before any other method, after the initial topology exists.
	Init(env Env)

	// OnMessage delivers a message from a current or former neighbour.
	// (A message may arrive after the sender moved away if the link was
	// still up when it was sent and delivery raced the LinkDown; the
	// transport drops in-flight messages when a link fails, so in
	// practice from is a neighbour at delivery time.)
	OnMessage(from NodeID, msg Message)

	// OnLinkUp reports a link creation indication from the link-level
	// protocol (§3.1). iAmMoving reports which side of the biased
	// notification this node received: exactly one endpoint of every new
	// link is told it is the moving side, and that side is never a node
	// that is static while the other moves.
	OnLinkUp(peer NodeID, iAmMoving bool)

	// OnLinkDown reports a link failure indication. The shared fork, if
	// any, is destroyed with the link.
	OnLinkDown(peer NodeID)

	// BecomeHungry is called by the application when the node, currently
	// thinking, requests access to its critical section.
	BecomeHungry()

	// ExitCS is called by the application when the node, currently
	// eating, leaves its critical section. The protocol runs its exit
	// code and transitions to thinking.
	ExitCS()

	// State reports the node's current dining state.
	State() State
}

// Env is the environment handle a Protocol uses to act on the world. It is
// implemented by each runtime.
//
// Runtimes that expose the typed observability stream (internal/trace)
// additionally implement trace.Emitter on their Env value; protocols
// type-assert for it in Init and publish protocol-level events (doorway
// crossings, recolouring rounds, diagnostics) when it is present. The
// extension is deliberately not part of this interface so that minimal
// runtimes (internal/livenet) owe the trace layer nothing.
type Env interface {
	// ID returns this node's identifier.
	ID() NodeID

	// Now returns the current virtual (or wall-clock) time.
	Now() sim.Time

	// Neighbors returns the IDs of the nodes currently adjacent to this
	// node in ascending order, as maintained by the link-level protocol.
	// The returned slice is a read-only view owned by the runtime, valid
	// until the next topology change; callers that retain it must copy.
	Neighbors() []NodeID

	// Send transmits a message to a neighbour over the shared link. If
	// no link to the peer currently exists the message is discarded.
	Send(to NodeID, msg Message)

	// Broadcast transmits a message to every current neighbour.
	Broadcast(msg Message)

	// Moving reports whether this node is currently in motion. The
	// paper's model assumes nodes know their own mobility status.
	Moving() bool

	// SetState records a dining-state transition. Protocols must report
	// every transition through this call so that workloads and checkers
	// observe them; the runtime forwards transitions to listeners.
	SetState(s State)
}

// Listener observes dining-state transitions of all nodes. Implemented by
// the workload driver, the safety checker and the metrics recorders.
type Listener interface {
	// OnStateChange is called after node id transitioned from old to new
	// at virtual time at.
	OnStateChange(id NodeID, old, new State, at sim.Time)
}

// ListenerFunc adapts a function to the Listener interface.
type ListenerFunc func(id NodeID, old, new State, at sim.Time)

// OnStateChange implements Listener.
func (f ListenerFunc) OnStateChange(id NodeID, old, new State, at sim.Time) {
	f(id, old, new, at)
}
