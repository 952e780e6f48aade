// Package metrics instruments simulation runs: an online safety checker
// for the local mutual exclusion property (no two neighbours eat
// simultaneously — the invariant of Lemma 3 and Theorem 25) and an
// attempt ledger (ledger.go) that serves both Definition 1's static-node
// response time and the starvation census of empirical failure locality.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/sim"
)

// Topology is the adjacency oracle the checker consults; *manet.World
// satisfies it.
type Topology interface {
	Neighbors(core.NodeID) []core.NodeID
}

// Violation describes one breach of the mutual exclusion invariant.
type Violation struct {
	A, B core.NodeID
	At   sim.Time
}

// String formats the violation.
func (v Violation) String() string {
	return fmt.Sprintf("nodes %d and %d eating simultaneously at %v", v.A, v.B, v.At)
}

// SafetyChecker verifies that no two neighbouring nodes are ever eating at
// the same time. It watches state transitions and link creations (a link
// appearing between two eaters is also a violation).
type SafetyChecker struct {
	topo   Topology
	eating map[core.NodeID]bool

	violations  []Violation
	onViolation func(Violation)
}

// SetOnViolation installs a hook invoked synchronously on every recorded
// violation, at the instant it is detected — the flight recorder's
// trigger. A nil hook disables it.
func (c *SafetyChecker) SetOnViolation(fn func(Violation)) { c.onViolation = fn }

// record appends a violation and fires the hook.
func (c *SafetyChecker) record(v Violation) {
	c.violations = append(c.violations, v)
	if c.onViolation != nil {
		c.onViolation(v)
	}
}

// NewSafetyChecker creates a checker over the given adjacency oracle.
func NewSafetyChecker(topo Topology) *SafetyChecker {
	return &SafetyChecker{topo: topo, eating: make(map[core.NodeID]bool)}
}

var _ core.Listener = (*SafetyChecker)(nil)

// OnStateChange implements core.Listener.
func (c *SafetyChecker) OnStateChange(id core.NodeID, old, new core.State, at sim.Time) {
	if new != core.Eating {
		delete(c.eating, id)
		return
	}
	for _, nb := range c.topo.Neighbors(id) {
		if c.eating[nb] {
			c.record(Violation{A: id, B: nb, At: at})
		}
	}
	c.eating[id] = true
}

// OnLink implements manet.LinkListener.
func (c *SafetyChecker) OnLink(a, b core.NodeID, up bool, at sim.Time) {
	if up && c.eating[a] && c.eating[b] {
		c.record(Violation{A: a, B: b, At: at})
	}
}

// OnMove implements manet.MoveListener (no-op; present so a checker can be
// registered uniformly).
func (c *SafetyChecker) OnMove(core.NodeID, bool, sim.Time) {}

// Violations returns all recorded violations.
func (c *SafetyChecker) Violations() []Violation {
	out := make([]Violation, len(c.violations))
	copy(out, c.violations)
	return out
}

// Err returns nil if no violation occurred, or an error describing the
// first one.
func (c *SafetyChecker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	return fmt.Errorf("metrics: %d mutual exclusion violations, first: %v",
		len(c.violations), c.violations[0])
}

// Stats summarises a sample of durations.
type Stats struct {
	Count    int
	Mean     sim.Time
	P50, P95 sim.Time
	Max      sim.Time
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v max=%v", s.Count, s.Mean, s.P50, s.P95, s.Max)
}

// Summarize computes stats over the samples (zero value for an empty set).
func Summarize(samples []sim.Time) Stats {
	if len(samples) == 0 {
		return Stats{}
	}
	sorted := make([]sim.Time, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum sim.Time
	for _, s := range sorted {
		sum += s
	}
	idx := func(q float64) sim.Time {
		// Nearest-rank percentile: the smallest sample such that at
		// least q·N samples are at or below it (rank ⌈q·N⌉, 1-based).
		i := int(math.Ceil(q*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return Stats{
		Count: len(sorted),
		Mean:  sum / sim.Time(len(sorted)),
		P50:   idx(0.50),
		P95:   idx(0.95),
		Max:   sorted[len(sorted)-1],
	}
}

// BlockedRadius computes the empirical failure locality of a crash: the
// maximum graph distance from the crashed node to any blocked node
// (excluding the crashed node itself), or 0 if nothing is blocked. g must
// be the communication graph in which the starvation was observed.
func BlockedRadius(g *graph.Graph, crash core.NodeID, blocked []core.NodeID) int {
	dist := g.Distances(int(crash))
	max := 0
	for _, id := range blocked {
		if id == crash {
			continue
		}
		if d := dist[int(id)]; d > max {
			max = d
		}
	}
	return max
}
