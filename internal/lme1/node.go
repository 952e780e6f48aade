// Package lme1 implements the first local mutual exclusion algorithm of
// the paper (Chapter 5): fork collection with colour-based priorities,
// executed behind a double doorway with a return path, preceded — for
// nodes that moved — by a recolouring module behind its own double
// doorway (Figure 5). Two colouring procedures are provided, the greedy
// one of Algorithm 4 (failure locality n, response time O((n+δ³)δ)) and
// the Linial-based one of Algorithm 5 (failure locality max(log* n, 4)+2,
// response time O((log* n+δ⁴)δ)).
package lme1

import (
	"fmt"

	"lme/internal/core"
	"lme/internal/doorway"
	"lme/internal/trace"
)

// Variant selects the colouring procedure of the recolouring module.
type Variant int

// The two colouring procedures of §5.4.
const (
	// VariantGreedy is the simple graph-flooding greedy colouring
	// (Algorithm 4). It needs no knowledge of n or δ.
	VariantGreedy Variant = iota + 1
	// VariantLinial is the fast colouring based on Linial's algorithm
	// over cover-free families (Algorithm 5); it assumes n and δ are
	// known to all nodes.
	VariantLinial
	// VariantLinialReduce extends VariantLinial with the deterministic
	// colour-reduction rounds the paper's discussion chapter mentions:
	// after the O(log* n) Linial phases it eliminates one colour per
	// round until the palette is δ+1, trading O(δ²) extra rounds for a
	// smaller Δ and hence a better fork-collection rank bound.
	VariantLinialReduce
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case VariantGreedy:
		return "greedy"
	case VariantLinial:
		return "linial"
	case VariantLinialReduce:
		return "linial-reduce"
	default:
		return "invalid"
	}
}

// Config parameterises a node of Algorithm 1.
type Config struct {
	// Variant selects the recolouring procedure.
	Variant Variant

	// N and Delta are the system size and maximum degree, required by
	// VariantLinial (the paper's knowledge assumption for that
	// variant).
	N, Delta int

	// InitialColor returns the pre-computed legal colour of a node; the
	// default colours each node with its ID, the paper's "simple way to
	// guarantee the legal coloring". It must be a globally consistent
	// function, since nodes derive their neighbours' initial colours
	// from it.
	InitialColor func(core.NodeID) int

	// RecolorFirst makes every node run the recolouring module on its
	// first hungry journey, realising the paper's "the recoloring
	// module is also executed by each node in order to obtain an
	// initial color" (Ch. 5) and its use as a distributed pre-colouring
	// computation (Ch. 7). ID colours still seed the interim ordering.
	RecolorFirst bool
}

// phase tracks where in Figure 5's pipeline the node currently is; it is
// redundant with the doorway states and used for traces and assertions.
type phase int

const (
	phIdle phase = iota
	phAwaitStatus
	phEnterADr
	phEnterSDr
	phRecolor
	phEnterADf
	phEnterSDf
	phBehindSDf
)

// Node is one node's instance of Algorithm 1. It implements
// core.Protocol; all methods are driven by the runtime, one event at a
// time.
type Node struct {
	env core.Env
	cfg Config

	// emit publishes protocol events (doorway crossings, recolouring
	// results, diagnostics) to the runtime's trace bus; nil when the
	// runtime does not implement trace.Emitter. wants is the runtime's
	// per-kind interest mask (trace.Interest) — consulted before
	// assembling an event so dark kinds cost nothing; set whenever emit
	// is, defaulting to always-true for runtimes without the mask.
	emit  func(trace.Event)
	wants func(trace.Kind) bool

	state core.State
	ph    phase

	// myColor is color[i].
	myColor int

	// peers is the current neighbour set N with everything this node
	// tracks per neighbour, in ascending ID order (which is also the
	// message emission order). The four doorways keep their L[] entries
	// aligned with it: slot i of every doorway is the neighbour in slot i
	// here. Handlers resolve the sender to its slot once and pass the slot
	// down; OnLinkUp and OnLinkDown shift slots, so none is held across
	// them.
	peers core.Slots[peer]

	dws [numDoorways]*doorway.Doorway

	// needsRecolor is set when the node moves into a new neighbourhood
	// and cleared when a new legal colour is obtained.
	needsRecolor bool

	// viaRecolor marks a hungry journey that went through the
	// recolouring module, so that crossing AD^f triggers the exit code
	// of the first double doorway (Figure 5).
	viaRecolor bool

	rec recolorRun
}

// peer is one neighbour's slot record.
type peer struct {
	// color is color[j], meaningful only with pColored set.
	color int
	flags uint8
}

// The peer flags.
const (
	pColored   uint8 = 1 << iota // color[j] is known (clear = the paper's ⊥)
	pFork                        // at[j]: this node holds the fork shared with j
	pSuspended                   // j ∈ S: j's fork request is suspended
	pPending                     // j's status message (Line 46) is still awaited (Line 53)
	pRecolor                     // j ∈ R: j takes part in the running recolouring
)

func (p *peer) has(f uint8) bool { return p.flags&f != 0 }

// lower and higher compare j's colour with the node's own; a neighbour of
// unknown colour is neither.
func (p *peer) lower(my int) bool  { return p.flags&pColored != 0 && p.color < my }
func (p *peer) higher(my int) bool { return p.flags&pColored != 0 && p.color > my }

// setColor records j's announced colour.
func (p *peer) setColor(c int) {
	p.color = c
	p.flags |= pColored
}

var _ core.Protocol = (*Node)(nil)

// New creates a node of Algorithm 1.
func New(cfg Config) *Node {
	if cfg.Variant == 0 {
		cfg.Variant = VariantGreedy
	}
	if cfg.InitialColor == nil {
		cfg.InitialColor = func(id core.NodeID) int { return int(id) }
	}
	return &Node{cfg: cfg, state: core.Thinking}
}

// Init implements core.Protocol: initial forks go to the smaller ID of
// each link, initial colours come from the globally known InitialColor.
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
	n.myColor = n.cfg.InitialColor(me)
	n.needsRecolor = n.cfg.RecolorFirst
	neighbors := env.Neighbors()
	n.peers.Reset(neighbors)
	for i, j := range neighbors {
		p := n.peers.At(i)
		p.setColor(n.cfg.InitialColor(j))
		if me < j {
			p.flags |= pFork
		}
	}
	for d := dwIndex(0); d < numDoorways; d++ {
		d := d
		kind := doorway.Asynchronous
		if d == sdr || d == sdf {
			kind = doorway.Synchronous
		}
		n.dws[d] = doorway.New(kind, len(neighbors),
			func(cross bool) {
				n.emitDoorway(d, cross)
				env.Broadcast(doorwayMsg(d, cross))
			},
			func() { n.onCross(d) })
	}
}

// State implements core.Protocol.
func (n *Node) State() core.State { return n.state }

// Color exposes the node's current colour (for tests and traces).
func (n *Node) Color() int { return n.myColor }

// NeedsRecolor reports whether the node will recolour on its next hungry
// journey (for tests).
func (n *Node) NeedsRecolor() bool { return n.needsRecolor }

// BecomeHungry implements core.Protocol: the application requests the
// critical section.
func (n *Node) BecomeHungry() {
	if n.state != core.Thinking {
		return
	}
	n.setState(core.Hungry)
	n.startJourney()
}

// startJourney routes a hungry node into Figure 5's pipeline.
func (n *Node) startJourney() {
	switch {
	case n.anyPeer(pPending):
		// Line 53: still waiting for new neighbours' status.
		n.ph = phAwaitStatus
	case n.needsRecolor:
		// Line 55: moved since last legal colour — recolour first.
		n.viaRecolor = true
		n.ph = phEnterADr
		n.enterDoorway(adr)
	default:
		n.ph = phEnterADf
		n.enterDoorway(adf)
	}
}

// onCross dispatches doorway crossings.
func (n *Node) onCross(d dwIndex) {
	switch d {
	case adr:
		n.ph = phEnterSDr
		n.enterDoorway(sdr)
	case sdr:
		n.ph = phRecolor
		n.startRecolor()
	case adf:
		if n.viaRecolor {
			// Exit code of the first double doorway runs here
			// (Figure 5): SD^r then AD^r.
			n.viaRecolor = false
			n.dws[sdr].Exit()
			n.dws[adr].Exit()
		}
		n.ph = phEnterSDf
		n.enterDoorway(sdf)
	case sdf:
		n.ph = phBehindSDf
		n.onCrossSDf()
	}
}

// onCrossSDf is Lines 1–4: the fork collection module begins.
func (n *Node) onCrossSDf() {
	n.maybeEat()
	if n.allLowForks() {
		n.requestHighForks()
	} else {
		n.requestLowForks()
	}
}

// ExitCS implements core.Protocol: Lines 5–9.
func (n *Node) ExitCS() {
	if n.state != core.Eating {
		return
	}
	n.setState(core.Thinking)
	// Line 6: smallest non-negative colour unused by any neighbour —
	// legal because it is chosen in exclusion.
	n.myColor = n.smallestFreeColor()
	n.needsRecolor = false
	n.env.Broadcast(msgUpdateColor{Color: n.myColor})
	n.releaseSuspended()
	// Line 9 exits the fork doorways. A node that ate from a doorway
	// *entry* (the Line 19 corner in maybeEat) can still hold pending —
	// or, after an interrupted recolouring journey, crossed — entries in
	// the recolouring doorways; its colour is legal now, so those
	// entries are moot and must not fire into a later journey. Exit or
	// abort all four (a no-op for doorways it never entered).
	n.viaRecolor = false
	n.exitAllDoorways()
}

// OnMessage implements core.Protocol.
func (n *Node) OnMessage(from core.NodeID, msg core.Message) {
	i := n.peers.Find(from)
	if i < 0 {
		// The link vanished while the message was queued locally;
		// treat as destroyed with the link.
		return
	}
	switch m := msg.(type) {
	case msgDoorway:
		pos := doorway.Outside
		if m.Cross {
			pos = doorway.Behind
		}
		n.dws[m.D].Observe(i, pos)
	case msgUpdateColor:
		n.peers.At(i).setColor(m.Color)
		n.onColorChanged(i)
	case msgStatus:
		n.onStatus(i, m)
	case msgReq:
		n.onReq(i)
	case msgFork:
		n.onFork(i, m.Flag)
	case msgNACK:
		n.rec.onNACK(n, i)
	case msgGraph:
		n.onRecolorMsg(i, m)
	case msgTempColor:
		n.onRecolorMsg(i, m)
	default:
		n.tracef("unknown message %T from %d", msg, from)
	}
}

// onColorChanged re-evaluates fork requests after a neighbour announced a
// new colour. A neighbour's exit-time recolouring (Line 6) can reclassify
// a missing fork from high to low after this node already crossed SD^f and
// issued its Line-4 requests; without a fresh request for the
// newly-reclassified low fork, the node would wait forever (the paper's
// pseudo-code leaves this re-evaluation implicit; see the erratum notes in
// DESIGN.md). Duplicate requests are harmless: a request arriving while
// the fork is already in transit to the requester is dropped.
func (n *Node) onColorChanged(i int) {
	if n.state != core.Hungry || !n.dws[sdf].Behind() {
		return
	}
	if p := n.peers.At(i); !p.has(pFork) && p.lower(n.myColor) {
		n.env.Send(n.peers.ID(i), msgReq{})
	}
	if n.allLowForks() {
		// The change may also have flipped a missing low fork to
		// high, newly satisfying all-low-forks.
		n.requestHighForks()
	}
}

// onStatus handles the static neighbour's reply of Line 46 at the mover.
func (n *Node) onStatus(i int, m msgStatus) {
	n.peers.At(i).setColor(m.Color)
	for d := dwIndex(0); d < numDoorways; d++ {
		n.dws[d].Observe(i, m.Pos[d])
	}
	n.peers.At(i).flags &^= pPending
	n.checkStatusDrain()
}

// checkStatusDrain resumes a waiting hungry mover once every awaited
// status message arrived (Lines 53–55).
func (n *Node) checkStatusDrain() {
	if n.state == core.Hungry && n.ph == phAwaitStatus && !n.anyPeer(pPending) {
		n.startJourney()
	}
}

// onReq is Lines 10–16.
func (n *Node) onReq(i int) {
	p := n.peers.At(i)
	if !p.has(pFork) {
		// The fork is in transit to j (FIFO makes any other
		// interleaving impossible); the request is moot.
		return
	}
	// An uncoloured requester cannot be ranked and falls through to the
	// default: suspended (it will be granted at the latest when this node
	// leaves the critical section). The protocol never produces this case
	// because a node broadcasts its colour before requesting.
	busy := n.collecting()
	switch {
	case p.higher(n.myColor) && (!n.allLowForks() || !busy):
		n.sendFork(i)
	case p.lower(n.myColor) && (!n.allForks() || !busy):
		n.sendFork(i)
		n.releaseHighForks()
	default:
		p.flags |= pSuspended
	}
}

// collecting reports whether the node is engaged in fork collection or in
// the critical section — the paper's "behind SD^f". Eating is included
// explicitly because Line 19 lets a node start eating while still at the
// doorway entry (see maybeEat); an eater must suspend requests no matter
// where it stands relative to the doorway.
func (n *Node) collecting() bool {
	return n.dws[sdf].Behind() || n.state == core.Eating
}

// onFork is Lines 17–23.
func (n *Node) onFork(i int, flag bool) {
	n.peers.At(i).flags |= pFork
	if n.state == core.Thinking {
		// Stale arrival after the hungry journey ended; honour the
		// want-back flag and keep the fork otherwise.
		if flag {
			n.sendFork(i)
		}
		return
	}
	n.maybeEat()
	if n.allLowForks() {
		if flag {
			n.peers.At(i).flags |= pSuspended
		}
		n.requestHighForks()
	} else if flag {
		n.sendFork(i)
	}
}

// OnLinkUp implements core.Protocol: Algorithm 3.
func (n *Node) OnLinkUp(peer core.NodeID, iAmMoving bool) {
	if iAmMoving {
		n.onLinkUpMoving(peer)
	} else {
		n.onLinkUpStatic(peer)
	}
}

// addPeer installs j as a neighbour with the given flags, colour ⊥ until
// it announces one, and the given assumed position at all four doorways.
// A link-up for a current neighbour (no runtime produces one) resets its
// slot in place.
func (n *Node) addPeer(j core.NodeID, flags uint8, pos doorway.Pos) {
	i, fresh := n.peers.Insert(j)
	*n.peers.At(i) = peer{flags: flags}
	for _, dw := range n.dws {
		if fresh {
			dw.Add(i, pos)
		} else {
			dw.Set(i, pos)
		}
	}
}

// onLinkUpStatic is Lines 44–46.
func (n *Node) onLinkUpStatic(j core.NodeID) {
	n.addPeer(j, pFork, doorway.Outside)
	var pos [numDoorways]doorway.Pos
	for d := dwIndex(0); d < numDoorways; d++ {
		pos[d] = doorway.Outside
		if n.dws[d].Behind() {
			pos[d] = doorway.Behind
		}
	}
	n.env.Send(j, msgStatus{Color: n.myColor, Pos: pos})
}

// onLinkUpMoving is Lines 47–55.
func (n *Node) onLinkUpMoving(j core.NodeID) {
	// Until the status message arrives, the newcomer's doorway
	// positions are unknown; assume Behind (conservative — prevents
	// crossing past an unobserved neighbour).
	n.addPeer(j, pPending, doorway.Behind)
	if n.collecting() {
		if n.state == core.Eating {
			// Line 50: preserve safety — the newcomer's fork is
			// owned by the static side. (collecting() rather than
			// the paper's "behind SD^f" because Line 19 permits
			// eating at the doorway entry.)
			n.setState(core.Hungry)
		}
		n.releaseSuspended()
	}
	n.rec.abort(n)
	n.exitAllDoorways()
	n.viaRecolor = false
	n.needsRecolor = true
	if n.state == core.Hungry {
		n.ph = phAwaitStatus
	}
}

// OnLinkDown implements core.Protocol: Lines 56–61 plus the fork/colour
// cleanup performed by the link-level protocol (the shared fork is
// destroyed with the link).
func (n *Node) OnLinkDown(j core.NodeID) {
	i, gone := n.peers.Remove(j)
	if i < 0 {
		return
	}
	hadFork := gone.has(pFork)
	wasLow := gone.lower(n.myColor)
	// The doorways drop slot i only below, at the points where the entry
	// conditions are to be re-evaluated; until then their slots are one
	// off from peers', which nothing in between relies on (the doorways
	// never look at peers, and no handler runs with a slot in hand).
	n.rec.onNeighborLost(n, j)

	behindFork := n.dws[sdf].Behind()
	if behindFork && !hadFork && wasLow {
		// Lines 59–60 (the Figure 6 scenario): a low neighbour moved
		// away holding the shared fork — leave the synchronous
		// doorway, release the suspended requests, and return to its
		// entry code.
		n.tracef("return path: low neighbour %d left with our fork", j)
		n.releaseSuspended()
		n.dws[sdf].Exit()
		for _, dw := range n.dws {
			dw.Forget(i)
		}
		n.ph = phEnterSDf
		n.enterDoorway(sdf)
		return
	}
	for _, dw := range n.dws {
		dw.Forget(i)
	}
	n.checkStatusDrain()
	if behindFork && n.state == core.Hungry {
		// The departed neighbour may have been the last missing
		// fork; re-evaluate progress (§5.1's "p_i is able to proceed
		// with fork collection").
		n.maybeEat()
		if n.state == core.Hungry && n.allLowForks() {
			n.requestHighForks()
		}
	}
}

// maybeEat is Line 2/19: a hungry node enters the critical section the
// moment it holds every fork. Deliberately NOT guarded by "behind SD^f":
// safety comes from fork ownership alone, and a node parked at a doorway
// entry while holding all forks (it can get the last one through a
// flagged want-back grant) must eat, or the want-back in its S set never
// flushes and the granter deadlocks behind SD^f waiting for it — a cycle
// the property fuzzer found when this was guarded. The recolouring phases
// are unreachable with all forks (a mover always lacks its new static
// neighbours' forks), which the rec.active check asserts defensively.
func (n *Node) maybeEat() {
	if n.state != core.Hungry || !n.allForks() {
		return
	}
	if n.rec.active || n.anyPeer(pPending) {
		n.tracef("all forks while recolouring/awaiting status — not eating")
		return
	}
	n.setState(core.Eating)
}

// exitAllDoorways realises Line 52's "exit any doorway": broadcast exits
// for crossed doorways and abort entries in progress.
func (n *Node) exitAllDoorways() {
	for _, d := range []dwIndex{sdf, adf, sdr, adr} {
		if n.dws[d].Behind() {
			n.dws[d].Exit()
		} else {
			if n.dws[d].Entering() && n.emit != nil && n.wants(trace.KindDoorway) {
				// Aborts are silent on the wire (nothing was announced)
				// but the span layer must see the entry end, or the
				// node would look parked at this doorway forever.
				n.emit(trace.Event{Kind: trace.KindDoorway, Peer: trace.NoNode, New: "abort", Detail: d.String()})
			}
			n.dws[d].Abort()
		}
	}
	n.ph = phIdle
}

// anyPeer reports whether some neighbour has flag f set.
func (n *Node) anyPeer(f uint8) bool {
	for i := 0; i < n.peers.Len(); i++ {
		if n.peers.At(i).has(f) {
			return true
		}
	}
	return false
}

// allForks is the all-forks macro.
func (n *Node) allForks() bool {
	for i := 0; i < n.peers.Len(); i++ {
		if !n.peers.At(i).has(pFork) {
			return false
		}
	}
	return true
}

// allLowForks is the all-low-forks macro: forks shared with lower-coloured
// neighbours. Neighbours with unknown colour are newly arrived movers
// whose fork this node owns by construction, so they never block it.
func (n *Node) allLowForks() bool {
	for i := 0; i < n.peers.Len(); i++ {
		if p := n.peers.At(i); !p.has(pFork) && p.lower(n.myColor) {
			return false
		}
	}
	return true
}

// requestLowForks is Lines 24–26.
func (n *Node) requestLowForks() {
	for i := 0; i < n.peers.Len(); i++ {
		if p := n.peers.At(i); !p.has(pFork) && p.lower(n.myColor) {
			n.env.Send(n.peers.ID(i), msgReq{})
		}
	}
}

// requestHighForks is Lines 27–29.
func (n *Node) requestHighForks() {
	for i := 0; i < n.peers.Len(); i++ {
		if p := n.peers.At(i); !p.has(pFork) && p.higher(n.myColor) {
			n.env.Send(n.peers.ID(i), msgReq{})
		}
	}
}

// sendFork is Lines 30–32.
func (n *Node) sendFork(i int) {
	p := n.peers.At(i)
	if !p.has(pFork) {
		return
	}
	flag := p.lower(n.myColor) && n.collecting() && n.state != core.Eating
	n.env.Send(n.peers.ID(i), msgFork{Flag: flag})
	p.flags &^= pFork | pSuspended
}

// releaseSuspended grants every suspended request (S in ascending ID
// order). sendFork clears the slot's pSuspended as the loop passes it,
// which moves no slot.
func (n *Node) releaseSuspended() {
	for i := 0; i < n.peers.Len(); i++ {
		if n.peers.At(i).has(pSuspended) {
			n.sendFork(i)
		}
	}
}

// releaseHighForks is Lines 33–35.
func (n *Node) releaseHighForks() {
	for i := 0; i < n.peers.Len(); i++ {
		if p := n.peers.At(i); p.has(pSuspended) && p.higher(n.myColor) {
			n.sendFork(i)
		}
	}
}

// smallestFreeColor implements Line 6. The result is at most the number
// of coloured neighbours, so the rescan per candidate stays within δ².
func (n *Node) smallestFreeColor() int {
	c := 0
	for i := 0; i < n.peers.Len(); i++ {
		if p := n.peers.At(i); p.has(pColored) && p.color == c {
			c++
			i = -1
		}
	}
	return c
}

func (n *Node) setState(s core.State) {
	if n.state == s {
		return
	}
	n.state = s
	n.env.SetState(s)
}

// enterDoorway publishes the doorway "enter" event and begins the entry
// protocol. The event is emitted before BeginEntry so that when the entry
// succeeds within the call (every neighbour already Outside), the stream
// still shows enter ≤ cross — span consumers rely on that order to open a
// doorway-wait phase before it closes.
func (n *Node) enterDoorway(d dwIndex) {
	if n.emit != nil && n.wants(trace.KindDoorway) {
		n.emit(trace.Event{Kind: trace.KindDoorway, Peer: trace.NoNode, New: "enter", Detail: d.String()})
	}
	n.dws[d].BeginEntry()
}

// emitDoorway publishes a doorway position change (cross or exit) as a
// typed event.
func (n *Node) emitDoorway(d dwIndex, cross bool) {
	if n.emit == nil || !n.wants(trace.KindDoorway) {
		return
	}
	action := "exit"
	if cross {
		action = "cross"
	}
	n.emit(trace.Event{Kind: trace.KindDoorway, Peer: trace.NoNode, New: action, Detail: d.String()})
}

// tracef publishes a free-form protocol diagnostic on the trace bus.
func (n *Node) tracef(format string, args ...any) {
	if n.emit == nil || !n.wants(trace.KindNote) {
		return
	}
	n.emit(trace.Event{Kind: trace.KindNote, Peer: trace.NoNode, Detail: fmt.Sprintf(format, args...)})
}
