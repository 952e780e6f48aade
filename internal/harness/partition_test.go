package harness

import (
	"testing"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/sim"
	"lme/internal/trace"
	"lme/internal/workload"
)

// TestPartitionAndHeal: the paper's communication graph is explicitly
// "not necessarily connected". A bridge node leaves, splitting a line
// into two components; both halves must keep dining independently (local
// mutual exclusion needs no connectivity); the bridge then returns (heal)
// and the whole line keeps going with safety intact throughout.
func TestPartitionAndHeal(t *testing.T) {
	algs := []string{"chandy-misra", "alg1-greedy", "alg1-linial", "alg2"}
	for _, a := range algs {
		a := a
		t.Run(a, func(t *testing.T) {
			const n = 9
			bridge := core.NodeID(4)
			pts := LinePoints(n, 0.1)
			r, err := Build(Spec{
				Seed: 13, Points: pts, Radius: 0.11,
				NewProtocol: factory(a, pts, 0.11),
				Workload:    workload.Config{EatTime: 3_000, ThinkMax: 5_000},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Start(); err != nil {
				t.Fatal(err)
			}
			const (
				partAt = sim.Time(1_000_000)
				healAt = sim.Time(4_000_000)
				endAt  = sim.Time(7_000_000)
			)
			// The bridge moves far away, then comes back to its spot.
			r.World.JumpAt(bridge, graph.Point{X: 0.9, Y: 0.9}, 30_000, partAt)
			r.World.JumpAt(bridge, pts[bridge], 30_000, healAt)

			if err := r.RunFor(partAt + 500_000); err != nil {
				t.Fatal(err)
			}
			if r.World.CommGraph().Connected() {
				t.Fatal("partition did not disconnect the line")
			}
			mealsAtSplit := snapshotMeals(r, n)
			if err := r.RunFor(healAt - (partAt + 500_000)); err != nil {
				t.Fatal(err)
			}
			// During the partition both components progressed.
			mealsAtHeal := snapshotMeals(r, n)
			for _, id := range []core.NodeID{0, 3, 5, 8} {
				if mealsAtHeal[id] <= mealsAtSplit[id] {
					t.Fatalf("node %d made no progress during the partition (%d → %d)",
						id, mealsAtSplit[id], mealsAtHeal[id])
				}
			}
			if err := r.RunFor(endAt - healAt); err != nil {
				t.Fatal(err)
			}
			if !r.World.CommGraph().Connected() {
				t.Fatal("heal did not reconnect the line")
			}
			final := snapshotMeals(r, n)
			for id := core.NodeID(0); id < n; id++ {
				if final[id] <= mealsAtHeal[id] {
					t.Fatalf("node %d made no progress after the heal (%d → %d)",
						id, mealsAtHeal[id], final[id])
				}
			}
		})
	}
}

func snapshotMeals(r *Run, n int) map[core.NodeID]int {
	out := make(map[core.NodeID]int, n)
	for i := 0; i < n; i++ {
		out[core.NodeID(i)] = r.Ledger.EatCount(core.NodeID(i))
	}
	return out
}

// TestIsolatedComponentsIndependent: two far-apart cliques never exchange
// a single message, yet both dine — the purest statement of locality.
func TestIsolatedComponentsIndependent(t *testing.T) {
	pts := append(CliquePoints(4),
		graph.Point{X: 0.9, Y: 0.9}, graph.Point{X: 0.901, Y: 0.9},
		graph.Point{X: 0.9, Y: 0.901}, graph.Point{X: 0.901, Y: 0.901})
	r, err := Build(Spec{
		Seed: 14, Points: pts, Radius: 0.05,
		NewProtocol: factory("alg2", pts, 0.05),
		Workload:    workload.Config{EatTime: 3_000, ThinkMax: 5_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	crossTraffic := 0
	r.World.Bus().Subscribe(func(e *trace.Event) {
		if (e.Node < 4) != (e.Peer < 4) {
			crossTraffic++
		}
	}, trace.KindSend)
	if err := r.RunFor(2_000_000); err != nil {
		t.Fatal(err)
	}
	if ok, missing := r.EveryoneAte(); !ok {
		t.Fatalf("starved: %v", missing)
	}
	if crossTraffic != 0 {
		t.Fatalf("isolated components exchanged %d messages", crossTraffic)
	}
}
