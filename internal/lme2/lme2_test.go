package lme2_test

import (
	"testing"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/harness"
	"lme/internal/lme2"
	"lme/internal/manet"
	"lme/internal/sim"
	"lme/internal/workload"
)

func newNode(core.NodeID) core.Protocol { return lme2.New() }

func TestStaticLineLiveness(t *testing.T) {
	r, err := harness.Build(harness.Spec{
		Seed:        1,
		Points:      harness.LinePoints(10, 0.1),
		Radius:      0.11,
		NewProtocol: newNode,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RunFor(3_000_000); err != nil {
		t.Fatal(err)
	}
	ok, missing := r.EveryoneAte()
	if !ok {
		t.Fatalf("starved nodes: %v", missing)
	}
	for i := 0; i < 10; i++ {
		if c := r.Ledger.EatCount(core.NodeID(i)); c < 10 {
			t.Fatalf("node %d ate only %d times", i, c)
		}
	}
}

func TestStaticCliqueContention(t *testing.T) {
	const n = 8
	r, err := harness.Build(harness.Spec{
		Seed:        2,
		Points:      harness.CliquePoints(n),
		Radius:      0.2,
		NewProtocol: newNode,
		Workload: workload.Config{
			EatTime:  2_000,
			ThinkMax: 1_000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RunFor(3_000_000); err != nil {
		t.Fatal(err)
	}
	if ok, missing := r.EveryoneAte(); !ok {
		t.Fatalf("starved nodes: %v", missing)
	}
}

func TestStaticGeometricManySeeds(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		pts, err := harness.GeometricPoints(28, 0.25, seed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := harness.Build(harness.Spec{
			Seed:        seed,
			Points:      pts,
			Radius:      0.25,
			NewProtocol: newNode,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.RunFor(4_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ok, missing := r.EveryoneAte(); !ok {
			t.Fatalf("seed %d: starved nodes %v", seed, missing)
		}
	}
}

// TestOptimalFailureLocality is the headline property (Theorem 25): after
// a crash, every node at distance ≥ 3 from the crashed node keeps making
// progress. (Failure locality 2 allows blocking only within distance 2.)
func TestOptimalFailureLocality(t *testing.T) {
	const n = 11
	r, err := harness.Build(harness.Spec{
		Seed:        3,
		Points:      harness.LinePoints(n, 0.1),
		Radius:      0.11,
		NewProtocol: newNode,
		Workload: workload.Config{
			EatTime:  3_000,
			ThinkMax: 3_000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const crash = core.NodeID(5)
	crashAt := sim.Time(1_000_000)
	r.World.CrashAt(crash, crashAt)
	if err := r.RunFor(10_000_000); err != nil {
		t.Fatal(err)
	}
	g := r.World.CommGraph()
	dist := g.Distances(int(crash))
	for i := 0; i < n; i++ {
		id := core.NodeID(i)
		if id == crash || dist[i] <= 2 {
			continue
		}
		if last, ok := r.Ledger.LastEat(id); !ok || last < 8_000_000 {
			t.Errorf("node %d at distance %d stopped eating (last=%v, ok=%v) — failure locality > 2",
				id, dist[i], last, ok)
		}
	}
}

// TestOptimalFailureLocalityGeometric repeats the FL check on random
// geometric graphs across seeds.
func TestOptimalFailureLocalityGeometric(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		pts, err := harness.GeometricPoints(24, 0.22, seed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := harness.Build(harness.Spec{
			Seed:        seed,
			Points:      pts,
			Radius:      0.22,
			NewProtocol: newNode,
			Workload: workload.Config{
				EatTime:  3_000,
				ThinkMax: 3_000,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		const crash = core.NodeID(0)
		r.World.CrashAt(crash, 1_000_000)
		if err := r.RunFor(12_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g := r.World.CommGraph()
		dist := g.Distances(int(crash))
		for i := 1; i < r.World.N(); i++ {
			if dist[i] <= 2 {
				continue
			}
			if last, ok := r.Ledger.LastEat(core.NodeID(i)); !ok || last < 10_000_000 {
				t.Errorf("seed %d: node %d at distance %d stopped eating (last=%v)",
					seed, i, dist[i], last)
			}
		}
	}
}

// TestMobilityKeepsSafetyAndProgress: waypoint movers churn the topology;
// safety must never break and everyone keeps eating.
func TestMobilityKeepsSafetyAndProgress(t *testing.T) {
	pts, err := harness.GeometricPoints(16, 0.3, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := harness.Build(harness.Spec{
		Seed:        4,
		Points:      pts,
		Radius:      0.3,
		NewProtocol: newNode,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	// A quarter of the nodes roam continuously.
	movers := []core.NodeID{1, 5, 9, 13}
	wp := manet.Waypoint{Speed: 0.4, PauseMin: 50_000, PauseMax: 300_000, Until: 6_000_000}
	wp.Attach(r.World, movers)
	if err := r.RunFor(8_000_000); err != nil {
		t.Fatal(err)
	}
	if ok, missing := r.EveryoneAte(); !ok {
		t.Fatalf("starved nodes: %v", missing)
	}
}

// TestEatingMoverDemotesItself: an eating node that gains a link while
// moving must fall back to hungry (the Line 44 safety rule).
func TestEatingMoverDemotesItself(t *testing.T) {
	r, err := harness.Build(harness.Spec{
		Seed:        5,
		Points:      []graph.Point{{X: 0}, {X: 0.5}},
		Radius:      0.2,
		NewProtocol: newNode,
		Workload:    workload.Config{Participants: []core.NodeID{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	w := r.World
	var demoted bool
	w.AddStateListener(core.ListenerFunc(func(id core.NodeID, old, new core.State, at sim.Time) {
		if id == 0 && old == core.Eating && new == core.Hungry {
			demoted = true
		}
	}))
	w.At(0, func() { w.Protocol(0).BecomeHungry() }) // eats alone
	w.At(10_000, func() { w.Protocol(1).BecomeHungry() })
	// Node 0, still eating, wanders next to node 1.
	w.JumpAt(0, graph.Point{X: 0.45}, 50_000, 100_000)
	if err := r.RunFor(2_000_000); err != nil {
		t.Fatal(err)
	}
	if !demoted {
		t.Fatal("eating mover was not demoted to hungry on the new link")
	}
	// Both must eventually eat (one of them after the conflict resolves).
	if r.Ledger.EatCount(0) < 1 || r.Ledger.EatCount(1) < 1 {
		t.Fatalf("eat counts: %d, %d", r.Ledger.EatCount(0), r.Ledger.EatCount(1))
	}
}

// TestNotificationLowersThinkingNeighbor checks Lines 22–25 directly.
func TestNotificationLowersThinkingNeighbor(t *testing.T) {
	r, err := harness.Build(harness.Spec{
		Seed:        6,
		Points:      []graph.Point{{X: 0}, {X: 0.1}},
		Radius:      0.2,
		NewProtocol: newNode,
		Workload:    workload.Config{Participants: []core.NodeID{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	w := r.World
	// Node 0 has priority over node 1 initially (smaller ID). When 1
	// becomes hungry, thinking node 0 must reverse the edge.
	w.At(0, func() { w.Protocol(1).BecomeHungry() })
	if err := r.RunFor(500_000); err != nil {
		t.Fatal(err)
	}
	n0, ok := w.Protocol(0).(*lme2.Node)
	if !ok {
		t.Fatal("protocol type")
	}
	if !n0.Higher(1) {
		t.Fatal("thinking node 0 did not lower itself on notification")
	}
	if c := r.Ledger.EatCount(1); c < 1 {
		t.Fatalf("hungry node 1 never ate (eats=%d)", c)
	}
}

// TestNoNotifyStillSafeAndLive: the ablation (Notify=false) must keep
// safety and liveness — only the response-time shape changes (E3).
func TestNoNotifyStillSafeAndLive(t *testing.T) {
	r, err := harness.Build(harness.Spec{
		Seed:   7,
		Points: harness.LinePoints(8, 0.1),
		Radius: 0.11,
		NewProtocol: func(core.NodeID) core.Protocol {
			return lme2.NewWithConfig(lme2.Config{Notify: false})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RunFor(4_000_000); err != nil {
		t.Fatal(err)
	}
	if ok, missing := r.EveryoneAte(); !ok {
		t.Fatalf("starved nodes: %v", missing)
	}
}

// TestPriorityEdgeConsistency: after a long contended run, for each edge
// at most one endpoint believes it lacks priority... i.e. the two higher
// flags are never both false (both true only while a switch message is in
// transit, which cannot outlive a quiescent run).
func TestPriorityEdgeConsistency(t *testing.T) {
	r, err := harness.Build(harness.Spec{
		Seed:        8,
		Points:      harness.GridPoints(3, 3, 0.1),
		Radius:      0.11,
		NewProtocol: newNode,
		Workload: workload.Config{
			EatTime:  2_000,
			ThinkMin: 50_000, // long think → run quiesces
			ThinkMax: 60_000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RunFor(5_000_000); err != nil {
		t.Fatal(err)
	}
	g := r.World.CommGraph()
	for _, e := range g.Edges() {
		a, okA := r.World.Protocol(core.NodeID(e[0])).(*lme2.Node)
		b, okB := r.World.Protocol(core.NodeID(e[1])).(*lme2.Node)
		if !okA || !okB {
			t.Fatal("protocol type")
		}
		if !a.Higher(core.NodeID(e[1])) && !b.Higher(core.NodeID(e[0])) {
			t.Fatalf("edge %v: both endpoints claim priority", e)
		}
		if a.HasFork(core.NodeID(e[1])) && b.HasFork(core.NodeID(e[0])) {
			t.Fatalf("edge %v: fork duplicated", e)
		}
	}
}
