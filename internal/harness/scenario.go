package harness

import (
	"context"
	"fmt"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/manet"
	"lme/internal/metrics"
	"lme/internal/sim"
)

// Scenario is one table cell's world: what to build (a Spec, whose
// NewProtocol may be left nil to take Alg from the registry), which nodes
// move and how, which crash and when, and how long to run. A job is a
// scenario plus a measure of the run it returns.
type Scenario struct {
	Spec
	// Alg names the registry row that builds the protocols over the
	// unit-disk graph of Points when Spec.NewProtocol is nil.
	Alg string
	// Setup, when set, runs on the built world before it starts:
	// extra observers and scripted hunger.
	Setup func(r *Run)
	// Crashes fail nodes at fixed instants.
	Crashes []Crash
	// Movers follow Waypoint from the start of the run.
	Movers   []core.NodeID
	Waypoint manet.Waypoint
	// Horizon is the virtual time the run advances to.
	Horizon sim.Time
}

// Crash fails Node at instant At.
type Crash struct {
	Node core.NodeID
	At   sim.Time
}

// Run builds the world, runs Setup, schedules the crashes, starts the
// world, attaches the movers and advances to the horizon. The order is
// part of the tables' bytes: the movers draw their pauses from the node
// streams after Start's workload stagger has. A safety violation is
// recorded in the run's Checker, not returned: the cells that count
// violations read them there, and RunSafe fails the others.
func (sc Scenario) Run(ctx context.Context) (*Run, error) {
	spec := sc.Spec
	if spec.NewProtocol == nil {
		a, ok := LookupAlgorithm(sc.Alg)
		if !ok {
			return nil, fmt.Errorf("harness: unknown algorithm %q", sc.Alg)
		}
		spec.NewProtocol = a.New(func() *graph.Graph { return graph.UnitDisk(spec.Points, spec.Radius) }, false)
	}
	r, err := Build(spec)
	if err != nil {
		return nil, err
	}
	if sc.Setup != nil {
		sc.Setup(r)
	}
	for _, c := range sc.Crashes {
		r.World.CrashAt(c.Node, c.At)
	}
	if err := r.Start(); err != nil {
		return nil, err
	}
	sc.Waypoint.Attach(r.World, sc.Movers)
	if err := r.advance(ctx, sc.Horizon); err != nil {
		return nil, fmt.Errorf("%s: %w", sc.Alg, err)
	}
	return r, nil
}

// RunSafe is Run for the cells that show no violation count: a safety
// violation fails the job, as RunContext's does.
func (sc Scenario) RunSafe(ctx context.Context) (*Run, error) {
	r, err := sc.Run(ctx)
	if err != nil {
		return nil, err
	}
	if err := r.Checker.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", sc.Alg, err)
	}
	return r, nil
}

// maxDegreeNode returns the lowest-numbered node of maximum degree — the
// crash victim of the failure-locality cells.
func maxDegreeNode(g *graph.Graph) core.NodeID {
	victim := 0
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) > g.Degree(victim) {
			victim = v
		}
	}
	return core.NodeID(victim)
}

// crashCensus is the failure-locality census of a run whose node victim
// crashed at crashAt and that ran to horizon: the nodes that completed no
// critical section in the last two thirds of the post-crash window, and
// the largest hop distance from the victim to one of them.
func crashCensus(r *Run, victim core.NodeID, crashAt, horizon sim.Time) (starved []core.NodeID, radius int) {
	starved = r.Ledger.StarvedSince(crashAt + (horizon-crashAt)/3)
	return starved, metrics.BlockedRadius(r.World.CommGraph(), victim, starved)
}
