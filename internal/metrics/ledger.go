package metrics

import (
	"lme/internal/core"
	"lme/internal/sim"
)

// Ledger keeps one record per node of its critical-section attempts: the
// start of the open hungry wait, the instant and count of its meals. The
// same record serves Definition 1's response time — the hungry→eating
// wait of a node that stayed static throughout, so movement taints an
// open wait — and the starvation census of empirical failure locality
// (experiment E2): after a crash, nodes that stay hungry for the rest of
// the run are blocked.
//
// Response times stream into a quantile Sketch, so memory is O(nodes +
// sketch buckets) whatever the run length; a ledger built with retain
// also keeps every exact sample. Node IDs must lie in [0, n).
type Ledger struct {
	nodes  []attempt
	meals  int
	sketch *Sketch

	retain  bool
	samples []sim.Time
}

// attempt is one node's record (24 bytes).
type attempt struct {
	since   sim.Time // start of the open wait, valid while waitOpen
	lastEat sim.Time // instant of the last meal, valid once ate
	meals   uint32
	flags   uint8
}

const (
	waitOpen uint8 = 1 << iota // hungry since `since`
	tainted                    // the open wait spans a move
	ate                        // lastEat is set
)

// NewLedger creates the ledger of nodes 0…n-1; retain keeps the exact
// response-time samples (Samples) alongside the sketch.
func NewLedger(n int, retain bool) *Ledger {
	return &Ledger{nodes: make([]attempt, n), sketch: NewSketch(), retain: retain}
}

var _ core.Listener = (*Ledger)(nil)

// OnStateChange implements core.Listener. Hungry opens a wait, Eating
// counts a meal (and samples the wait if it is open and untainted),
// Thinking closes the wait; a report that changes no state is ignored.
func (l *Ledger) OnStateChange(id core.NodeID, old, new core.State, at sim.Time) {
	if old == new {
		return
	}
	a := &l.nodes[id]
	switch new {
	case core.Hungry:
		a.since = at
		a.flags = a.flags&ate | waitOpen
	case core.Eating:
		a.meals++
		l.meals++
		a.lastEat = at
		if a.flags&(waitOpen|tainted) == waitOpen {
			d := at - a.since
			l.sketch.Observe(d)
			if l.retain {
				l.samples = append(l.samples, d)
			}
		}
		a.flags = ate
	case core.Thinking:
		a.flags &^= waitOpen
	}
}

// OnMove implements manet.MoveListener: starting or stopping to move
// taints the mover's open wait, which then spans a topology change.
func (l *Ledger) OnMove(id core.NodeID, _ bool, _ sim.Time) {
	if a := &l.nodes[id]; a.flags&waitOpen != 0 {
		a.flags |= tainted
	}
}

// Samples returns all untainted response-time samples. Nil unless the
// ledger was built with retain.
func (l *Ledger) Samples() []sim.Time {
	if !l.retain {
		return nil
	}
	out := make([]sim.Time, len(l.samples))
	copy(out, l.samples)
	return out
}

// Stats summarises all samples from the sketch: Count, Mean and Max are
// exact, P50/P95 are within the sketch's relative accuracy. O(sketch
// buckets) per call — no copy or sort of the sample slice.
func (l *Ledger) Stats() Stats { return l.sketch.Stats() }

// Sketch exposes the streaming response-time sketch (live; callers must
// not mutate it mid-run).
func (l *Ledger) Sketch() *Sketch { return l.sketch }

// EatCount reports how many times id entered the critical section.
func (l *Ledger) EatCount(id core.NodeID) int { return int(l.nodes[id].meals) }

// Meals reports the critical-section entries of all nodes.
func (l *Ledger) Meals() int { return l.meals }

// LastEat reports when id last entered the CS (ok=false if never).
func (l *Ledger) LastEat(id core.NodeID) (sim.Time, bool) {
	a := l.nodes[id]
	return a.lastEat, a.flags&ate != 0
}

// Blocked returns the nodes that have been continuously hungry since
// before now-patience, sorted by ID.
func (l *Ledger) Blocked(now, patience sim.Time) []core.NodeID {
	var out []core.NodeID
	for i, a := range l.nodes {
		if a.flags&waitOpen != 0 && now-a.since >= patience {
			out = append(out, core.NodeID(i))
		}
	}
	return out
}

// StarvedSince returns nodes whose last critical-section entry is before t
// and that are hungry now — i.e. nodes making no progress since t.
func (l *Ledger) StarvedSince(t sim.Time) []core.NodeID {
	var out []core.NodeID
	for i, a := range l.nodes {
		if a.flags&waitOpen != 0 && (a.flags&ate == 0 || a.lastEat < t) {
			out = append(out, core.NodeID(i))
		}
	}
	return out
}
