package harness

import (
	"context"
	"testing"

	"lme/internal/core"
)

// greedyEater is deliberately unsafe: it eats the moment it is hungry,
// whatever its neighbours do.
type greedyEater struct {
	env   core.Env
	state core.State
}

func (g *greedyEater) Init(env core.Env)                   { g.env, g.state = env, core.Thinking }
func (g *greedyEater) OnMessage(core.NodeID, core.Message) {}
func (g *greedyEater) OnLinkUp(core.NodeID, bool)          {}
func (g *greedyEater) OnLinkDown(core.NodeID)              {}
func (g *greedyEater) BecomeHungry()                       { g.set(core.Hungry); g.set(core.Eating) }
func (g *greedyEater) ExitCS()                             { g.set(core.Thinking) }
func (g *greedyEater) State() core.State                   { return g.state }
func (g *greedyEater) set(s core.State)                    { g.state = s; g.env.SetState(s) }
func newGreedyEater(core.NodeID) core.Protocol             { return &greedyEater{} }

// TestScenarioCountsViolations: a scenario run is a measurement, so a
// safety violation is counted in the run's Checker rather than failing
// the job (which would abort the whole experiment), while RunSafe keeps
// RunContext's contract for the cells that show no violation count.
func TestScenarioCountsViolations(t *testing.T) {
	sc := Scenario{
		Spec:    Spec{Seed: 1, Points: LinePoints(4, 0.1), Radius: 0.11, NewProtocol: newGreedyEater},
		Horizon: 500_000,
	}
	r, err := sc.Run(context.Background())
	if err != nil {
		t.Fatalf("Run returned %v; a violation must be counted, not returned", err)
	}
	if n := len(r.Checker.Violations()); n == 0 {
		t.Fatal("an unsafe protocol recorded no violation")
	}
	if _, err := sc.RunSafe(context.Background()); err == nil {
		t.Fatal("RunSafe accepted a run with violations")
	}
}
