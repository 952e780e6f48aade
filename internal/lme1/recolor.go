package lme1

import (
	"fmt"

	"lme/internal/coloring"
	"lme/internal/core"
	"lme/internal/trace"
)

// recolorRun is the state of one execution of the recolouring module
// (Algorithm 2's wrapper around the colouring procedure). It exists from
// the moment the node crosses SD^r until a new colour is chosen; outside
// that window every incoming colouring message draws a NACK (Lines 40–41).
type recolorRun struct {
	active  bool
	variant Variant

	// The participant set R, initially N (Line 37) and shrunk by NACKs
	// and departures, is the pRecolor flag of the node's peer slots.

	// queue buffers colouring messages per sender; each iteration
	// consumes exactly one message from every member of R, which keeps
	// the per-pair iteration alignment the FIFO links guarantee.
	queue map[core.NodeID][]core.Message

	// Greedy procedure (Algorithm 4) state.
	g            coloring.EdgeSet
	finishedSeen bool

	// Fast procedure (Algorithm 5) state.
	sched     []coloring.Family
	phIdx     int
	tempColor int

	// Colour-reduction extension (VariantLinialReduce) state.
	reducing    bool
	reduceRound int
	reduceTotal int
	palette     int // palette size entering the reduction
}

// startRecolor runs when SD^r is crossed: initialise R and launch the
// selected colouring procedure.
func (n *Node) startRecolor() {
	rec := &n.rec
	rec.active = true
	rec.variant = n.cfg.Variant
	for i := 0; i < n.peers.Len(); i++ {
		n.peers.At(i).flags |= pRecolor
	}
	rec.queue = make(map[core.NodeID][]core.Message)
	rec.finishedSeen = false
	switch n.cfg.Variant {
	case VariantLinial, VariantLinialReduce:
		sched, err := coloring.Schedule(n.cfg.N, n.cfg.Delta)
		if err != nil {
			panic(fmt.Sprintf("lme1: Linial schedule for n=%d δ=%d: %v", n.cfg.N, n.cfg.Delta, err))
		}
		rec.sched = sched
		rec.phIdx = 0
		rec.tempColor = int(n.env.ID())
		rec.reducing = false
		rec.reduceRound = 0
		rec.reduceTotal = 0
		rec.palette = max(n.cfg.N, 2)
		if len(rec.sched) > 0 {
			rec.palette = rec.sched[len(rec.sched)-1].M
		}
		if n.cfg.Variant == VariantLinialReduce {
			rec.reduceTotal = coloring.ReductionRounds(rec.palette, n.cfg.Delta)
		}
		if len(rec.sched) == 0 && rec.reduceTotal == 0 {
			// Nothing to reduce (n already within the final
			// palette): IDs are legal as-is.
			n.finishRecolor(rec.tempColor)
			return
		}
		if len(rec.sched) == 0 {
			rec.reducing = true
		}
	default:
		rec.g = coloring.NewEdgeSet()
	}
	n.beginRecolorIteration()
}

// beginRecolorIteration sends this iteration's message to every
// participant (Algorithm 4 Line 65 / Algorithm 5 Line 65) and checks
// whether the replies are already buffered.
func (n *Node) beginRecolorIteration() {
	rec := &n.rec
	var msg core.Message
	switch {
	case rec.reducing:
		msg = msgTempColor{Phase: len(rec.sched) + rec.reduceRound, Color: rec.tempColor}
	case rec.variant == VariantLinial || rec.variant == VariantLinialReduce:
		msg = msgTempColor{Phase: rec.phIdx, Color: rec.tempColor}
	default:
		msg = msgGraph{Edges: rec.g.Edges(), Finished: false}
	}
	n.sendToParticipants(msg)
	n.tryCompleteIteration()
}

// sendToParticipants sends msg to every member of R, in ascending ID
// order.
func (n *Node) sendToParticipants(msg core.Message) {
	for i := 0; i < n.peers.Len(); i++ {
		if n.peers.At(i).has(pRecolor) {
			n.env.Send(n.peers.ID(i), msg)
		}
	}
}

// onRecolorMsg handles an incoming colouring-procedure message.
func (n *Node) onRecolorMsg(i int, msg core.Message) {
	rec := &n.rec
	from := n.peers.ID(i)
	if !rec.active || !n.peers.At(i).has(pRecolor) {
		// Not participating (Lines 40–41), or the sender is no
		// longer a participant from this node's perspective.
		n.env.Send(from, msgNACK{})
		return
	}
	rec.queue[from] = append(rec.queue[from], msg)
	n.tryCompleteIteration()
}

// tryCompleteIteration consumes one buffered message from every member of
// R once all are available, then advances the procedure.
func (n *Node) tryCompleteIteration() {
	rec := &n.rec
	if !rec.active {
		return
	}
	if !n.anyPeer(pRecolor) {
		// No neighbour is recolouring concurrently: both procedures
		// return 0 immediately (Algorithm 4 Line 69 / Algorithm 5
		// Line 71).
		n.finishRecolor(0)
		return
	}
	for i := 0; i < n.peers.Len(); i++ {
		if n.peers.At(i).has(pRecolor) && len(rec.queue[n.peers.ID(i)]) == 0 {
			return
		}
	}
	consumed := make([]recolorMsg, 0, n.peers.Len())
	for i := 0; i < n.peers.Len(); i++ {
		if n.peers.At(i).has(pRecolor) {
			j := n.peers.ID(i)
			consumed = append(consumed, recolorMsg{slot: i, msg: rec.queue[j][0]})
			rec.queue[j] = rec.queue[j][1:]
		}
	}
	switch {
	case rec.reducing:
		n.advanceReduce(consumed)
	case rec.variant == VariantLinial || rec.variant == VariantLinialReduce:
		n.advanceLinial(consumed)
	default:
		n.advanceGreedy(consumed)
	}
}

// recolorMsg is one iteration's message from the participant in the
// given peer slot; an iteration's messages are handled in slot order.
type recolorMsg struct {
	slot int
	msg  core.Message
}

// advanceGreedy is the loop body of Algorithm 4 (Lines 64–68) followed by
// the termination handling (Lines 69–72).
func (n *Node) advanceGreedy(consumed []recolorMsg) {
	rec := &n.rec
	changed := false
	for _, c := range consumed {
		j := n.peers.ID(c.slot)
		gm, ok := c.msg.(msgGraph)
		if !ok {
			n.tracef("greedy recolor got %T from %d; dropping participant", c.msg, j)
			n.peers.At(c.slot).flags &^= pRecolor
			continue
		}
		if rec.g.Add(n.env.ID(), j) {
			changed = true
		}
		for _, e := range gm.Edges {
			if rec.g.Add(e.A, e.B) {
				changed = true
			}
		}
		if gm.Finished {
			rec.finishedSeen = true
		}
	}
	if !n.anyPeer(pRecolor) {
		n.finishRecolor(0)
		return
	}
	if !changed || rec.finishedSeen {
		// Line 71: final transmission with finished = true, then the
		// deterministic local colouring (Line 72).
		n.sendToParticipants(msgGraph{Edges: rec.g.Edges(), Finished: true})
		n.finishRecolor(coloring.GreedyColor(rec.g, n.env.ID()))
		return
	}
	n.beginRecolorIteration()
}

// advanceLinial is the loop body of Algorithm 5 (Lines 64–70).
func (n *Node) advanceLinial(consumed []recolorMsg) {
	rec := &n.rec
	others := make([]int, 0, len(consumed))
	for _, c := range consumed {
		tm, ok := c.msg.(msgTempColor)
		if !ok {
			n.tracef("linial recolor got %T from %d; dropping participant", c.msg, n.peers.ID(c.slot))
			n.peers.At(c.slot).flags &^= pRecolor
			continue
		}
		others = append(others, tm.Color)
	}
	next, err := rec.sched[rec.phIdx].PickFree(rec.tempColor, others)
	if err != nil {
		// Violated knowledge assumption (more than δ concurrent
		// neighbours): a configuration error, surfaced loudly.
		panic(fmt.Sprintf("lme1: node %d phase %d: %v", n.env.ID(), rec.phIdx, err))
	}
	rec.tempColor = next
	rec.phIdx++
	if rec.phIdx >= len(rec.sched) {
		if rec.variant == VariantLinialReduce && rec.reduceTotal > 0 {
			if !n.anyPeer(pRecolor) {
				n.finishRecolor(0)
				return
			}
			rec.reducing = true
			n.beginRecolorIteration()
			return
		}
		n.finishRecolor(rec.tempColor)
		return
	}
	if !n.anyPeer(pRecolor) {
		n.finishRecolor(0)
		return
	}
	n.beginRecolorIteration()
}

// advanceReduce runs one colour-elimination round of the
// VariantLinialReduce extension: the holders of the current top colour —
// an independent set among the participants, since their colouring is
// legal — re-pick the smallest colour free among the participants'
// colours; everyone else keeps theirs.
func (n *Node) advanceReduce(consumed []recolorMsg) {
	rec := &n.rec
	others := make([]int, 0, len(consumed))
	for _, c := range consumed {
		tm, ok := c.msg.(msgTempColor)
		if !ok {
			n.tracef("reduce round got %T from %d; dropping participant", c.msg, n.peers.ID(c.slot))
			n.peers.At(c.slot).flags &^= pRecolor
			continue
		}
		others = append(others, tm.Color)
	}
	top := rec.palette - 1 - rec.reduceRound
	rec.tempColor = coloring.ReduceStep(rec.tempColor, top, others)
	rec.reduceRound++
	if rec.reduceRound >= rec.reduceTotal {
		n.finishRecolor(rec.tempColor)
		return
	}
	if !n.anyPeer(pRecolor) {
		n.finishRecolor(0)
		return
	}
	n.beginRecolorIteration()
}

// finishRecolor is the wrapper's Lines 38–39: negate the procedure's
// result so recoloured nodes sit below every post-critical-section colour,
// announce it, and continue to the fork-collection doorway (Figure 5).
func (n *Node) finishRecolor(ret int) {
	rec := &n.rec
	rec.active = false
	rec.queue = nil
	n.myColor = -ret - 1
	n.needsRecolor = false
	if n.emit != nil && n.wants(trace.KindRecolor) {
		n.emit(trace.Event{Kind: trace.KindRecolor, Peer: trace.NoNode, Detail: fmt.Sprint(n.myColor)})
	}
	n.env.Broadcast(msgUpdateColor{Color: n.myColor})
	n.ph = phEnterADf
	n.enterDoorway(adf)
}

// abort cancels a recolouring in progress (the mover's Line 52 handling).
func (rec *recolorRun) abort(n *Node) {
	rec.active = false
	rec.queue = nil
}

// onNACK removes a non-participant from R (Lines 42–43).
func (rec *recolorRun) onNACK(n *Node, i int) {
	if !rec.active {
		return
	}
	n.peers.At(i).flags &^= pRecolor
	delete(rec.queue, n.peers.ID(i))
	n.tryCompleteIteration()
}

// onNeighborLost completes the removal of a departed neighbour from R
// (Line 61); its peer slot, and with it the membership flag, is already
// gone.
func (rec *recolorRun) onNeighborLost(n *Node, j core.NodeID) {
	if !rec.active {
		return
	}
	delete(rec.queue, j)
	n.tryCompleteIteration()
}
