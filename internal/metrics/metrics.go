// Package metrics instruments simulation runs: an online safety checker
// for the local mutual exclusion property (no two neighbours eat
// simultaneously — the invariant of Lemma 3 and Theorem 25), a
// response-time recorder implementing Definition 1's static-node sampling,
// and a starvation prober used to measure empirical failure locality.
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

// ResponseRecorder measures the hungry→eating latency. Per Definition 1 a
// sample counts only if the node stayed static for the whole interval, so
// movement during a hungry interval taints it. Demotions (eating → hungry)
// open a fresh interval.
//
// By default the recorder streams every sample into a quantile Sketch —
// memory O(nodes + sketch buckets), independent of run length. The
// Retain option additionally keeps the exact per-sample slices for
// callers that need full fidelity (per-node fairness analysis, sketch
// differential tests).
type ResponseRecorder struct {
	hungrySince map[core.NodeID]sim.Time
	tainted     map[core.NodeID]bool
	sketch      *Sketch
	eatCount    map[core.NodeID]int

	retain  bool
	samples []sim.Time
	perNode map[core.NodeID][]sim.Time
}

// RecorderOption configures a ResponseRecorder.
type RecorderOption func(*ResponseRecorder)

// Retain keeps the exact full-sample slices (Samples, NodeSamples) in
// addition to the sketch, restoring the pre-streaming O(run) behaviour.
func Retain() RecorderOption {
	return func(r *ResponseRecorder) { r.retain = true }
}

// NewResponseRecorder creates an empty recorder (streaming by default;
// pass Retain() to also keep exact samples).
func NewResponseRecorder(opts ...RecorderOption) *ResponseRecorder {
	r := &ResponseRecorder{
		hungrySince: make(map[core.NodeID]sim.Time),
		tainted:     make(map[core.NodeID]bool),
		sketch:      NewSketch(),
		eatCount:    make(map[core.NodeID]int),
	}
	for _, opt := range opts {
		opt(r)
	}
	if r.retain {
		r.perNode = make(map[core.NodeID][]sim.Time)
	}
	return r
}

var _ core.Listener = (*ResponseRecorder)(nil)

// OnStateChange implements core.Listener.
func (r *ResponseRecorder) OnStateChange(id core.NodeID, old, new core.State, at sim.Time) {
	switch new {
	case core.Hungry:
		r.hungrySince[id] = at
		delete(r.tainted, id)
	case core.Eating:
		r.eatCount[id]++
		start, ok := r.hungrySince[id]
		delete(r.hungrySince, id)
		if !ok || r.tainted[id] {
			return
		}
		d := at - start
		r.sketch.Observe(d)
		if r.retain {
			r.samples = append(r.samples, d)
			r.perNode[id] = append(r.perNode[id], d)
		}
	case core.Thinking:
		delete(r.hungrySince, id)
	}
}

// OnMove implements manet.MoveListener: starting or stopping to move
// taints the open hungry interval of the mover, whose wait then spans
// a topology change.
func (r *ResponseRecorder) OnMove(id core.NodeID, _ bool, _ sim.Time) {
	if _, hungry := r.hungrySince[id]; hungry {
		r.tainted[id] = true
	}
}

// Samples returns all untainted response-time samples. Nil unless the
// recorder was built with Retain().
func (r *ResponseRecorder) Samples() []sim.Time {
	if !r.retain {
		return nil
	}
	out := make([]sim.Time, len(r.samples))
	copy(out, r.samples)
	return out
}

// NodeSamples returns the untainted samples of one node. Nil unless the
// recorder was built with Retain().
func (r *ResponseRecorder) NodeSamples(id core.NodeID) []sim.Time {
	if !r.retain {
		return nil
	}
	out := make([]sim.Time, len(r.perNode[id]))
	copy(out, r.perNode[id])
	return out
}

// EatCount reports how many times id entered the critical section.
func (r *ResponseRecorder) EatCount(id core.NodeID) int { return r.eatCount[id] }

// Stats summarises all samples from the sketch: Count, Mean and Max are
// exact, P50/P95 are within the sketch's relative accuracy. O(sketch
// buckets) per call — no copy or sort of the sample slice.
func (r *ResponseRecorder) Stats() Stats { return r.sketch.Stats() }

// Sketch exposes the streaming response-time sketch (live; callers must
// not mutate it mid-run).
func (r *ResponseRecorder) Sketch() *Sketch { return r.sketch }

// Prober detects starved nodes, the raw material of the empirical
// failure-locality measurement (experiment E2): after a crash, nodes that
// stay continuously hungry for the rest of the run are blocked.
type Prober struct {
	hungrySince map[core.NodeID]sim.Time
	everAte     map[core.NodeID]bool
	lastEat     map[core.NodeID]sim.Time
}

// NewProber creates an empty prober.
func NewProber() *Prober {
	return &Prober{
		hungrySince: make(map[core.NodeID]sim.Time),
		everAte:     make(map[core.NodeID]bool),
		lastEat:     make(map[core.NodeID]sim.Time),
	}
}

var _ core.Listener = (*Prober)(nil)

// OnStateChange implements core.Listener.
func (p *Prober) OnStateChange(id core.NodeID, old, new core.State, at sim.Time) {
	switch new {
	case core.Hungry:
		if _, open := p.hungrySince[id]; !open {
			p.hungrySince[id] = at
		}
	case core.Eating:
		delete(p.hungrySince, id)
		p.everAte[id] = true
		p.lastEat[id] = at
	case core.Thinking:
		delete(p.hungrySince, id)
	}
}

// Blocked returns the nodes that have been continuously hungry since
// before now-patience, sorted by ID.
func (p *Prober) Blocked(now, patience sim.Time) []core.NodeID {
	var out []core.NodeID
	for id, since := range p.hungrySince {
		if now-since >= patience {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// StarvedSince returns nodes whose last critical-section entry is before t
// and that are hungry now — i.e. nodes making no progress since t.
func (p *Prober) StarvedSince(t sim.Time) []core.NodeID {
	var out []core.NodeID
	for id := range p.hungrySince {
		if last, ate := p.lastEat[id]; !ate || last < t {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LastEat reports when id last entered the CS (ok=false if never).
func (p *Prober) LastEat(id core.NodeID) (sim.Time, bool) {
	t, ok := p.lastEat[id]
	return t, ok
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
