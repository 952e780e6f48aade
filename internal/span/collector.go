package span

import (
	"errors"
	"io"
	"slices"
	"sort"

	"lme/internal/core"
	"lme/internal/sim"
	"lme/internal/trace"
)

// errStreaming rejects per-span output from a fold-mode collector.
var errStreaming = errors.New("span: collector is streaming (fold mode); per-span records were not retained")

// dwStatus is one node's position relative to one doorway, as the event
// stream reports it: at the entry since enterSince, or behind since
// behindSince.
type dwStatus struct {
	name        string
	entering    bool
	behind      bool
	enterSince  sim.Time
	behindSince sim.Time
}

// nodeState is the Collector's per-node fold state.
type nodeState struct {
	id       core.NodeID
	crashed  bool
	open     *Span
	attempts int

	// current phase of the open attempt (appended to open.Phases when
	// closed; kept flat so growing the slice never invalidates it).
	curOpen   bool
	curName   string
	curDetail string
	curStart  sim.Time

	// lastDeliver is the most recent delivery to this node, for
	// same-instant causal attribution of phase closings.
	lastAt  sim.Time
	lastRef MsgRef
	hasLast bool

	// forkWait is the set of neighbours with an unanswered fork request
	// from this node (out-edges of the wait-for graph): at most δ IDs in
	// no particular order, scanned.
	forkWait []core.NodeID

	// dws tracks doorway positions, ordered by first appearance.
	dws []dwStatus
}

func (n *nodeState) doorway(name string) *dwStatus {
	for i := range n.dws {
		if n.dws[i].name == name {
			return &n.dws[i]
		}
	}
	n.dws = append(n.dws, dwStatus{name: name})
	return &n.dws[len(n.dws)-1]
}

// crashRec is one observed crash, pending attribution.
type crashRec struct {
	node core.NodeID
	at   sim.Time
}

// Collector folds the event stream into spans, the wait-for graph and
// the crash attribution. Zero value is not usable; call New (full
// retention) or NewStreaming (bounded-memory fold mode).
type Collector struct {
	now   sim.Time
	end   sim.Time
	nodes []*nodeState

	// retain keeps every closed span in closed; in streaming mode spans
	// are folded into agg at close time and discarded, so memory stays
	// O(nodes + phase names) regardless of run length. The aggregate is
	// maintained in both modes — identical either way, since Finalize's
	// sort only reorders what the order-independent fold consumes.
	retain bool
	agg    *aggregate

	closed  []Span
	crashes []crashRec

	// adj is the known communication graph as packed unordered pairs.
	// Seeded with the real initial topology when available (link events
	// keep it current); otherwise learned from traffic and link events,
	// which misses initial links that never carried a message.
	adj      map[uint64]bool
	adjKnown bool

	finalized bool
	impacts   []CrashImpact
}

// New creates an empty collector that retains every closed span
// (required for -spans-out / lmetrace / postmortem span listings).
func New() *Collector {
	return &Collector{adj: make(map[uint64]bool), agg: newAggregate(), retain: true}
}

// NewStreaming creates a collector in fold mode: closed spans collapse
// immediately into the per-phase/per-node aggregates and are discarded.
// Spans() stays empty and WriteJSONL refuses; Summary, OpenSpans,
// WaitEdges and the crash attribution are unaffected.
func NewStreaming() *Collector {
	return &Collector{adj: make(map[uint64]bool), agg: newAggregate()}
}

// Retaining reports whether closed spans are being kept.
func (c *Collector) Retaining() bool { return c.retain }

// Attach subscribes the collector to a live bus; every published event
// is folded as it happens.
func (c *Collector) Attach(bus *trace.Bus) { bus.Subscribe(c.Feed) }

// SeedLink records an initial communication link (Start's topology is
// silent on the bus). Seeding switches the collector from
// traffic-learned adjacency to the authoritative graph.
func (c *Collector) SeedLink(a, b core.NodeID) {
	c.adjKnown = true
	c.link(a, b, true)
}

func pairKey(a, b core.NodeID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func (c *Collector) link(a, b core.NodeID, up bool) {
	if a < 0 || b < 0 || a == b {
		return
	}
	if up {
		c.adj[pairKey(a, b)] = true
	} else {
		delete(c.adj, pairKey(a, b))
	}
}

// state grows the per-node table on demand (offline feeds learn n from
// the events themselves).
func (c *Collector) state(id core.NodeID) *nodeState {
	for int(id) >= len(c.nodes) {
		c.nodes = append(c.nodes, nil)
	}
	n := c.nodes[id]
	if n == nil {
		n = &nodeState{id: id}
		c.nodes[id] = n
	}
	return n
}

// Feed folds one event. Events must arrive in publication order.
func (c *Collector) Feed(e *trace.Event) {
	if e.At > c.now {
		c.now = e.At
	}
	if e.Node < 0 {
		return
	}
	n := c.state(e.Node)
	switch e.Kind {
	case trace.KindState:
		c.onState(n, e)
	case trace.KindSend:
		if !c.adjKnown {
			c.link(e.Node, e.Peer, true)
		}
		if e.Msg == "req" && e.Peer >= 0 {
			n.addForkWait(e.Peer)
		}
	case trace.KindDeliver:
		n.lastAt = e.At
		n.lastRef = MsgRef{From: e.Peer, Seq: e.MsgSeq, Msg: e.Msg}
		n.hasLast = true
		if e.Msg == "fork" && e.Peer >= 0 {
			n.dropForkWait(e.Peer)
		}
	case trace.KindDoorway:
		c.onDoorway(n, e)
	case trace.KindRecolor:
		if n.open != nil {
			n.open.Recolors++
		}
	case trace.KindLinkUp:
		c.link(e.Node, e.Peer, true)
	case trace.KindLinkDown:
		c.link(e.Node, e.Peer, false)
		if e.Peer >= 0 {
			n.dropForkWait(e.Peer)
			c.state(e.Peer).dropForkWait(e.Node)
		}
	case trace.KindCrash:
		c.onCrash(n, e)
	}
}

// onState drives the attempt lifecycle off dining transitions.
func (c *Collector) onState(n *nodeState, e *trace.Event) {
	switch e.New {
	case "hungry":
		if e.Old == "eating" {
			// Mobility demotion: the attempt survives, collection
			// restarts.
			if n.open != nil {
				n.open.Demotions++
				c.closePhase(n, e.At, nil)
				c.openPhase(n, PhaseCollect, "", e.At)
			}
			n.forkWait = n.forkWait[:0]
			return
		}
		n.attempts++
		n.open = &Span{Node: n.id, Attempt: n.attempts, Start: e.At, Outcome: OutcomeOpen}
		c.openPhase(n, PhaseCollect, "", e.At)
	case "eating":
		n.forkWait = n.forkWait[:0]
		if n.open != nil {
			c.closePhase(n, e.At, c.deliverRef(n, e.At))
			c.openPhase(n, PhaseEat, "", e.At)
		}
	case "thinking":
		n.forkWait = n.forkWait[:0]
		if n.open != nil {
			c.closePhase(n, e.At, nil)
			c.closeAttempt(n, e.At, OutcomeAte)
		}
	}
}

// addForkWait records an unanswered fork request to p.
func (n *nodeState) addForkWait(p core.NodeID) {
	if !slices.Contains(n.forkWait, p) {
		n.forkWait = append(n.forkWait, p)
	}
}

// dropForkWait forgets the fork request to p, if there is one.
func (n *nodeState) dropForkWait(p core.NodeID) {
	if i := slices.Index(n.forkWait, p); i >= 0 {
		last := len(n.forkWait) - 1
		n.forkWait[i] = n.forkWait[last]
		n.forkWait = n.forkWait[:last]
	}
}

// onDoorway drives both the doorway-wait phases and the doorway-position
// half of the wait-for graph.
func (c *Collector) onDoorway(n *nodeState, e *trace.Event) {
	d := n.doorway(e.Detail)
	switch e.New {
	case "enter":
		d.entering, d.enterSince = true, e.At
		d.behind = false
		if n.open != nil {
			c.closePhase(n, e.At, nil)
			c.openPhase(n, PhaseDoorway, e.Detail, e.At)
		}
	case "cross":
		d.entering = false
		d.behind, d.behindSince = true, e.At
		if n.open != nil {
			by := c.deliverRef(n, e.At)
			c.closePhase(n, e.At, by)
			if e.Detail == "SD^r" {
				// Behind the synchronous recolouring doorway: the
				// recolouring module runs until AD^f entry begins.
				c.openPhase(n, PhaseRecolor, "", e.At)
			} else {
				c.openPhase(n, PhaseCollect, "", e.At)
			}
		}
	case "exit", "abort":
		d.entering = false
		d.behind = false
	}
}

func (c *Collector) onCrash(n *nodeState, e *trace.Event) {
	if n.crashed {
		return
	}
	n.crashed = true
	c.crashes = append(c.crashes, crashRec{node: n.id, at: e.At})
	// The crashed node waits on nobody any more; its doorway positions
	// stay frozen — a crash behind a doorway is exactly what blocks the
	// neighbourhood.
	n.forkWait = n.forkWait[:0]
	if n.open != nil {
		c.closePhase(n, e.At, nil)
		c.closeAttempt(n, e.At, OutcomeCrashed)
	}
}

// deliverRef returns the causal reference when the transition at `at`
// happened while processing a delivery (same instant, single thread).
func (c *Collector) deliverRef(n *nodeState, at sim.Time) *MsgRef {
	if !n.hasLast || n.lastAt != at {
		return nil
	}
	ref := n.lastRef
	return &ref
}

func (c *Collector) openPhase(n *nodeState, name, detail string, at sim.Time) {
	n.curOpen, n.curName, n.curDetail, n.curStart = true, name, detail, at
}

// closePhase appends the current phase if it has positive length.
func (c *Collector) closePhase(n *nodeState, at sim.Time, by *MsgRef) {
	if !n.curOpen || n.open == nil {
		n.curOpen = false
		return
	}
	n.curOpen = false
	if at <= n.curStart {
		return
	}
	n.open.Phases = append(n.open.Phases, Phase{
		Name: n.curName, Detail: n.curDetail,
		Start: n.curStart, End: at, UnblockedBy: by,
	})
}

func (c *Collector) closeAttempt(n *nodeState, at sim.Time, outcome string) {
	s := n.open
	if s == nil {
		return
	}
	s.End = at
	s.Outcome = outcome
	c.agg.fold(s)
	if c.retain {
		c.closed = append(c.closed, *s)
	}
	n.open = nil
}

// Now reports the time of the latest folded event.
func (c *Collector) Now() sim.Time { return c.now }

// WaitEdges snapshots the wait-for graph at the current instant: fork
// edges (unanswered requests) plus doorway edges (From at the entry of
// a doorway a neighbour To is behind — including crashed neighbours,
// whose doorway positions are frozen at crash time: a node that died
// behind a doorway never exits it and blocks entrants forever). For
// asynchronous doorways (names starting "A", e.g. AD^r/AD^f) a
// behind-neighbour only blocks when it has been behind since before the
// entry began, since the entrant must observe each neighbour outside
// just once (sticky: the doorway seeds its seen-set from the last
// observations). Output is sorted by (From, To, Why).
func (c *Collector) WaitEdges() []Edge {
	nbrs := c.neighborLists()
	var out []Edge
	for _, n := range c.nodes {
		if n == nil || n.crashed {
			continue
		}
		for _, p := range n.forkWait {
			out = append(out, Edge{From: n.id, To: p, Why: "fork"})
		}
		for i := range n.dws {
			d := &n.dws[i]
			if !d.entering {
				continue
			}
			async := len(d.name) > 0 && (d.name[0] == 'A' || d.name[0] == 'a')
			for _, p := range nbrs[n.id] {
				pn := c.nodes[p]
				if pn == nil {
					continue
				}
				for j := range pn.dws {
					pd := &pn.dws[j]
					if pd.name != d.name || !pd.behind {
						continue
					}
					if async && pd.behindSince > d.enterSince {
						continue // observed outside since entry began
					}
					out = append(out, Edge{From: n.id, To: p, Why: "doorway:" + d.name})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Why < b.Why
	})
	return out
}

// neighborLists materialises the known adjacency as sorted per-node
// neighbour slices.
func (c *Collector) neighborLists() [][]core.NodeID {
	out := make([][]core.NodeID, len(c.nodes))
	for key := range c.adj {
		a := core.NodeID(key >> 32)
		b := core.NodeID(uint32(key))
		if int(a) < len(out) && int(b) < len(out) {
			out[a] = append(out[a], b)
			out[b] = append(out[b], a)
		}
	}
	for _, l := range out {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
	return out
}

// Finalize closes the run at `end`: crash impacts are attributed against
// the final wait-for graph, still-open attempts are closed with
// OutcomeOpen, and the span list is sorted by (node, attempt). Feed
// after Finalize is undefined.
func (c *Collector) Finalize(end sim.Time) {
	if c.finalized {
		return
	}
	c.finalized = true
	if end < c.now {
		end = c.now
	}
	c.end = end
	c.impacts = c.computeImpacts()
	for _, n := range c.nodes {
		if n == nil || n.open == nil {
			continue
		}
		c.closePhase(n, end, nil)
		c.closeAttempt(n, end, OutcomeOpen)
	}
	sort.Slice(c.closed, func(i, j int) bool {
		a, b := c.closed[i], c.closed[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Attempt < b.Attempt
	})
}

// computeImpacts walks the final wait-for graph backwards from every
// crash site. A node is attributed to a crash when its attempt is still
// open, began before the measurement cutoff (a third of the post-crash
// horizon, mirroring the harness's starvation probe), and transitively
// waits on the crashed node.
func (c *Collector) computeImpacts() []CrashImpact {
	if len(c.crashes) == 0 {
		return nil
	}
	edges := c.WaitEdges()
	rev := make(map[core.NodeID][]core.NodeID)
	for _, e := range edges {
		rev[e.To] = append(rev[e.To], e.From)
	}
	nbrs := c.neighborLists()
	out := make([]CrashImpact, 0, len(c.crashes))
	for _, cr := range c.crashes {
		cutoff := cr.at + (c.end-cr.at)/3
		hop := map[core.NodeID]int{cr.node: 0}
		queue := []core.NodeID{cr.node}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, y := range rev[x] {
				if _, seen := hop[y]; !seen {
					hop[y] = hop[x] + 1
					queue = append(queue, y)
				}
			}
		}
		imp := CrashImpact{Crashed: cr.node, At: cr.at}
		ids := make([]core.NodeID, 0, len(hop))
		for id := range hop {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		dist := c.bfsDist(cr.node, nbrs)
		for _, id := range ids {
			if id == cr.node {
				continue
			}
			n := c.nodes[id]
			if n == nil || n.open == nil || n.open.Start > cutoff {
				continue
			}
			b := BlockedNode{Node: id, Hop: hop[id], Dist: -1}
			if int(id) < len(dist) && dist[id] >= 0 {
				b.Dist = dist[id]
			}
			imp.Blocked = append(imp.Blocked, b)
			if b.Hop > imp.MaxHop {
				imp.MaxHop = b.Hop
			}
			if b.Dist > imp.MaxDist {
				imp.MaxDist = b.Dist
			}
		}
		out = append(out, imp)
	}
	return out
}

// bfsDist computes communication-graph hop distances from src (-1 =
// unreachable).
func (c *Collector) bfsDist(src core.NodeID, nbrs [][]core.NodeID) []int {
	dist := make([]int, len(c.nodes))
	for i := range dist {
		dist[i] = -1
	}
	if int(src) >= len(dist) {
		return dist
	}
	dist[src] = 0
	queue := []core.NodeID{src}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, y := range nbrs[x] {
			if dist[y] < 0 {
				dist[y] = dist[x] + 1
				queue = append(queue, y)
			}
		}
	}
	return dist
}

// Spans returns every finished span, sorted by (node, attempt) after
// Finalize. Empty in streaming mode.
func (c *Collector) Spans() []Span { return c.closed }

// Impacts returns the per-crash attributions computed by Finalize.
func (c *Collector) Impacts() []CrashImpact { return c.impacts }

// Summary freezes the streaming aggregate (maintained in both modes)
// and the impacts into the report section — identical to
// Summarize(Spans(), Impacts()) when spans are retained.
func (c *Collector) Summary() Summary { return c.agg.summary(c.impacts) }

// NodeAggregates returns the bounded per-node fold of closed attempts,
// sorted by node ID. Available in both modes.
func (c *Collector) NodeAggregates() []NodeAggregate { return c.agg.nodeAggregates() }

// OpenCount reports how many attempts are currently in progress (live
// telemetry's open-span gauge; O(nodes), no allocation).
func (c *Collector) OpenCount() int {
	open := 0
	for _, n := range c.nodes {
		if n != nil && n.open != nil {
			open++
		}
	}
	return open
}

// OpenSpans snapshots the attempts still in progress (flight-recorder
// material): each with its current phase closed at the latest event time
// and OutcomeOpen, sorted by node. The collector is not mutated.
func (c *Collector) OpenSpans() []Span {
	var out []Span
	for _, n := range c.nodes {
		if n == nil || n.open == nil {
			continue
		}
		s := *n.open
		s.Phases = append([]Phase(nil), s.Phases...)
		if n.curOpen && c.now > n.curStart {
			s.Phases = append(s.Phases, Phase{
				Name: n.curName, Detail: n.curDetail,
				Start: n.curStart, End: c.now,
			})
		}
		s.End = c.now
		out = append(out, s)
	}
	return out
}

// WriteJSONL writes every finished span as one JSON object per line.
// After Finalize the output is deterministic for a deterministic run:
// same seed, byte-identical file. Spans are encoded with the
// hand-written AppendJSON and handed to the writer in batches. A
// streaming collector has nothing to write and returns an error rather
// than an empty file.
func (c *Collector) WriteJSONL(w io.Writer) error {
	if !c.retain {
		return errStreaming
	}
	const batch = 32 << 10
	buf := make([]byte, 0, batch+4096)
	for _, s := range c.closed {
		buf = s.AppendJSON(buf)
		buf = append(buf, '\n')
		if len(buf) >= batch {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
