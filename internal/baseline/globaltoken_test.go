package baseline_test

import (
	"testing"

	"lme/internal/baseline"
	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/harness"
	"lme/internal/sim"
	"lme/internal/workload"
)

// globalChecker asserts at most one eater in the WHOLE system (the global
// mutual exclusion invariant, strictly stronger than the local one).
type globalChecker struct {
	eating     map[core.NodeID]bool
	violations int
}

func (c *globalChecker) OnStateChange(id core.NodeID, old, new core.State, at sim.Time) {
	if new == core.Eating {
		if len(c.eating) > 0 {
			c.violations++
		}
		c.eating[id] = true
		return
	}
	delete(c.eating, id)
}

func buildGlobal(t *testing.T, pts []graph.Point, radius float64, wl workload.Config) (*harness.Run, *globalChecker) {
	t.Helper()
	g := graph.UnitDisk(pts, radius)
	r, err := harness.Build(harness.Spec{
		Seed:        1,
		Points:      pts,
		Radius:      radius,
		NewProtocol: baseline.NewGlobalToken(g),
		Workload:    wl,
	})
	if err != nil {
		t.Fatal(err)
	}
	gc := &globalChecker{eating: make(map[core.NodeID]bool)}
	r.World.AddStateListener(gc)
	return r, gc
}

func TestGlobalTokenLineLiveness(t *testing.T) {
	r, gc := buildGlobal(t, harness.LinePoints(8, 0.1), 0.11, workload.Config{
		EatTime: 2_000, ThinkMax: 5_000,
	})
	if err := r.RunFor(4_000_000); err != nil {
		t.Fatal(err)
	}
	if ok, missing := r.EveryoneAte(); !ok {
		t.Fatalf("starved: %v", missing)
	}
	if gc.violations != 0 {
		t.Fatalf("global exclusion violated %d times", gc.violations)
	}
}

func TestGlobalTokenGridGlobalExclusivity(t *testing.T) {
	r, gc := buildGlobal(t, harness.GridPoints(4, 4, 0.1), 0.11, workload.Config{
		EatTime: 2_000, // saturated
	})
	if err := r.RunFor(4_000_000); err != nil {
		t.Fatal(err)
	}
	if gc.violations != 0 {
		t.Fatalf("global exclusion violated %d times", gc.violations)
	}
	if ok, missing := r.EveryoneAte(); !ok {
		t.Fatalf("starved: %v", missing)
	}
}

func TestGlobalTokenGeometric(t *testing.T) {
	pts, err := harness.GeometricPoints(20, 0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, gc := buildGlobal(t, pts, 0.3, workload.Config{EatTime: 2_000, ThinkMax: 4_000})
	if err := r.RunFor(5_000_000); err != nil {
		t.Fatal(err)
	}
	if gc.violations != 0 {
		t.Fatalf("global exclusion violated %d times", gc.violations)
	}
	if ok, missing := r.EveryoneAte(); !ok {
		t.Fatalf("starved: %v", missing)
	}
}

// TestGlobalTokenThroughputCeiling: total meals cannot exceed the serial
// ceiling horizon/τ — the structural cost local mutual exclusion removes.
func TestGlobalTokenThroughputCeiling(t *testing.T) {
	const (
		horizon = sim.Time(4_000_000)
		eat     = sim.Time(2_000)
	)
	r, _ := buildGlobal(t, harness.GridPoints(4, 4, 0.1), 0.11, workload.Config{EatTime: eat})
	if err := r.RunFor(horizon); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < r.World.N(); i++ {
		total += r.Ledger.EatCount(core.NodeID(i))
	}
	if ceiling := int(horizon / eat); total > ceiling {
		t.Fatalf("global token produced %d meals > serial ceiling %d", total, ceiling)
	}
}
