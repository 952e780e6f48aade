package lme1_test

import (
	"testing"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/harness"
	"lme/internal/lme1"
	"lme/internal/sim"
	"lme/internal/workload"
)

// factory returns a protocol factory for the given variant sized for the
// given system.
func factory(v lme1.Variant, n, delta int) func(core.NodeID) core.Protocol {
	return func(id core.NodeID) core.Protocol {
		return lme1.New(lme1.Config{Variant: v, N: n, Delta: delta})
	}
}

func bothVariants(t *testing.T, run func(t *testing.T, v lme1.Variant)) {
	t.Helper()
	for _, v := range []lme1.Variant{lme1.VariantGreedy, lme1.VariantLinial, lme1.VariantLinialReduce} {
		t.Run(v.String(), func(t *testing.T) { run(t, v) })
	}
}

func TestStaticLineLiveness(t *testing.T) {
	bothVariants(t, func(t *testing.T, v lme1.Variant) {
		r, err := harness.Build(harness.Spec{
			Seed:        1,
			Points:      harness.LinePoints(8, 0.1),
			Radius:      0.11,
			NewProtocol: factory(v, 8, 2),
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
		for i := 0; i < 8; i++ {
			if c := r.Ledger.EatCount(core.NodeID(i)); c < 10 {
				t.Fatalf("node %d ate only %d times", i, c)
			}
		}
	})
}

func TestStaticCliqueContention(t *testing.T) {
	bothVariants(t, func(t *testing.T, v lme1.Variant) {
		const n = 6
		r, err := harness.Build(harness.Spec{
			Seed:        2,
			Points:      harness.CliquePoints(n),
			Radius:      0.2,
			NewProtocol: factory(v, n, n-1),
			Workload: workload.Config{
				EatTime:  2_000,
				ThinkMax: 1_000, // near-saturation
			},
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
	})
}

func TestStaticGeometricManySeeds(t *testing.T) {
	bothVariants(t, func(t *testing.T, v lme1.Variant) {
		for seed := uint64(1); seed <= 4; seed++ {
			pts, err := harness.GeometricPoints(24, 0.28, seed)
			if err != nil {
				t.Fatal(err)
			}
			r, err := harness.Build(harness.Spec{
				Seed:        seed,
				Points:      pts,
				Radius:      0.28,
				NewProtocol: factory(v, 24, 23),
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
	})
}

// TestSingleNodeEatsAlone: a node with no neighbours must sail through all
// doorways and eat immediately.
func TestSingleNodeEatsAlone(t *testing.T) {
	r, err := harness.Build(harness.Spec{
		Seed:        3,
		Points:      []graph.Point{{X: 0.5, Y: 0.5}},
		Radius:      0.1,
		NewProtocol: factory(lme1.VariantGreedy, 1, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RunFor(500_000); err != nil {
		t.Fatal(err)
	}
	if c := r.Ledger.EatCount(0); c < 5 {
		t.Fatalf("lone node ate %d times", c)
	}
}

// TestMobilityRecolorPath: movers relocate between clusters, must
// recolour, and keep making progress; safety must hold throughout.
func TestMobilityRecolorPath(t *testing.T) {
	bothVariants(t, func(t *testing.T, v lme1.Variant) {
		// Two clusters of 4, plus a commuting node.
		pts := append(harness.CliquePoints(4),
			graph.Point{X: 0.8}, graph.Point{X: 0.801}, graph.Point{X: 0.802}, graph.Point{X: 0.803},
			graph.Point{X: 0.0005, Y: 0.002})
		r, err := harness.Build(harness.Spec{
			Seed:        4,
			Points:      pts,
			Radius:      0.05,
			NewProtocol: factory(v, 9, 8),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		w := r.World
		commuter := core.NodeID(8)
		// Commute between the clusters a few times.
		for trip := 0; trip < 6; trip++ {
			dest := graph.Point{X: 0.8, Y: 0.002}
			if trip%2 == 1 {
				dest = graph.Point{X: 0.0005, Y: 0.002}
			}
			w.JumpAt(commuter, dest, 20_000, sim.Time(500_000+trip*700_000))
		}
		if err := r.RunFor(6_000_000); err != nil {
			t.Fatal(err)
		}
		if ok, missing := r.EveryoneAte(); !ok {
			t.Fatalf("starved nodes: %v", missing)
		}
		if c := r.Ledger.EatCount(commuter); c < 3 {
			t.Fatalf("commuter ate only %d times", c)
		}
	})
}

// TestConcurrentRecoloring: a whole clique relocates at once, so every
// node recolours concurrently (Assumption 1 territory), then must reach
// the critical section with the fresh colours.
func TestConcurrentRecoloring(t *testing.T) {
	bothVariants(t, func(t *testing.T, v lme1.Variant) {
		const n = 5
		r, err := harness.Build(harness.Spec{
			Seed:        5,
			Points:      harness.CliquePoints(n),
			Radius:      0.05,
			NewProtocol: factory(v, n, n-1),
			Workload: workload.Config{
				EatTime:        2_000,
				ThinkMin:       5_000,
				ThinkMax:       10_000,
				InitialStagger: 2_000,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		w := r.World
		// Everyone jumps (slightly) at t=1s: all nodes are flagged
		// moving, links re-form among movers, all must recolour.
		for i := 0; i < n; i++ {
			id := core.NodeID(i)
			dest := graph.Point{X: 0.5 + float64(i)*0.001, Y: 0.5}
			w.JumpAt(id, dest, 30_000, 1_000_000)
		}
		if err := r.RunFor(8_000_000); err != nil {
			t.Fatal(err)
		}
		// Everyone must have eaten again after the move.
		for i := 0; i < n; i++ {
			samples := r.Ledger.EatCount(core.NodeID(i))
			if samples < 2 {
				t.Fatalf("node %d ate %d times across the relocation", i, samples)
			}
		}
		// Colour legality among current neighbours at quiescence.
		for i := 0; i < n; i++ {
			pi, ok := w.Protocol(core.NodeID(i)).(*lme1.Node)
			if !ok {
				t.Fatal("protocol type")
			}
			for _, j := range w.Neighbors(core.NodeID(i)) {
				pj, ok := w.Protocol(j).(*lme1.Node)
				if !ok {
					t.Fatal("protocol type")
				}
				if pi.Color() == pj.Color() {
					t.Fatalf("neighbours %d and %d share colour %d", i, j, pi.Color())
				}
			}
		}
	})
}

// miniDriver cycles selected nodes through eat/think with fixed periods;
// used by the scripted scenario tests that need precise control.
type miniDriver struct {
	w interface {
		Protocol(core.NodeID) core.Protocol
		At(sim.Time, func())
		Now() sim.Time
	}
	eat   sim.Time
	think sim.Time
	on    map[core.NodeID]bool
}

func (d *miniDriver) OnStateChange(id core.NodeID, old, new core.State, at sim.Time) {
	if !d.on[id] {
		return
	}
	p := d.w.Protocol(id)
	switch new {
	case core.Eating:
		d.w.At(d.w.Now()+d.eat, func() {
			if p.State() == core.Eating {
				p.ExitCS()
			}
		})
	case core.Thinking:
		d.w.At(d.w.Now()+d.think, func() {
			if p.State() == core.Thinking {
				p.BecomeHungry()
			}
		})
	}
}

// TestFigure6Scenario reproduces §5.1's mobility scenario (Figure 6 and
// experiment E8). The line is p1—p2—p3—p4 with colours 3, 2, 1, 4; node
// IDs are chosen so the crashed p4 initially owns the p3–p4 fork (fork
// ownership goes to the smaller ID) while keeping its high colour:
//
//	position:  x=0     x=0.1   x=0.2   x=0.3
//	role:      p1      p2      p3      p4
//	node ID:   0       1       3       2
//	colour:    3       2       1       4
//
// p4 crashes holding the p3–p4 fork. Then p3 blocks waiting for its
// crashed high neighbour's fork while suspending p2's request for the
// p2–p3 fork (p2 is high for p3); p2 blocks; p1 keeps eating, protected by
// p2's sacrifice. When p3 then moves away, p2 recovers through the return
// path of the fork-collection doorway (Lines 59–60), and p3 — alone — eats.
func TestFigure6Scenario(t *testing.T) {
	const (
		p1 = core.NodeID(0)
		p2 = core.NodeID(1)
		p3 = core.NodeID(3)
		p4 = core.NodeID(2)
	)
	colors := map[core.NodeID]int{p1: 3, p2: 2, p3: 1, p4: 4}
	pts := []graph.Point{{X: 0}, {X: 0.1}, {X: 0.3}, {X: 0.2}} // indexed by ID
	r, err := harness.Build(harness.Spec{
		Seed:   6,
		Points: pts,
		Radius: 0.11,
		NewProtocol: func(id core.NodeID) core.Protocol {
			return lme1.New(lme1.Config{
				Variant:      lme1.VariantGreedy,
				InitialColor: func(id core.NodeID) int { return colors[id] },
			})
		},
		Workload: workload.Config{Participants: []core.NodeID{}}, // fully scripted
	})
	if err != nil {
		t.Fatal(err)
	}
	w := r.World
	md := &miniDriver{w: w, eat: 5_000, think: 5_000,
		on: map[core.NodeID]bool{p1: true, p2: true, p3: true}}
	w.AddStateListener(md)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}

	w.CrashAt(p4, 0) // p4 dies holding the p3–p4 fork, colour 4
	for _, id := range []core.NodeID{p1, p2, p3} {
		id := id
		w.At(100_000, func() { w.Protocol(id).BecomeHungry() })
	}
	if err := r.RunFor(3_000_000); err != nil {
		t.Fatal(err)
	}
	// Phase 1 assertions: p3 and p2 blocked; p1 ate its first meal and
	// then parks at the fork-doorway entry (it is within the algorithm's
	// failure locality radius, so blocking is permitted there — the Fig 6
	// "protection" claim concerns the fork-collection module alone).
	if c := r.Ledger.EatCount(p3); c != 0 {
		t.Fatalf("p3 ate %d times despite the crashed fork holder", c)
	}
	if c := r.Ledger.EatCount(p2); c != 0 {
		t.Fatalf("p2 ate %d times, expected blocked by p3's suspension", c)
	}
	p1Phase1 := r.Ledger.EatCount(p1)
	if p1Phase1 < 1 {
		t.Fatal("p1 never ate")
	}

	// Phase 2: p3 moves away; p2 must recover via the return path, p3 —
	// alone in its new neighbourhood — eats, and p1 resumes cycling once
	// the doorway unblocks.
	w.JumpAt(p3, graph.Point{X: 0.9, Y: 0.9}, 20_000, 3_100_000)
	if err := r.RunFor(3_000_000); err != nil {
		t.Fatal(err)
	}
	if c := r.Ledger.EatCount(p2); c < 1 {
		t.Fatal("p2 did not recover after p3 moved away (return path broken)")
	}
	if c := r.Ledger.EatCount(p3); c < 1 {
		t.Fatal("p3 did not eat alone after moving")
	}
	if c := r.Ledger.EatCount(p1); c < p1Phase1+5 {
		t.Fatalf("p1 did not resume after recovery: %d → %d", p1Phase1, c)
	}
}

// TestCrashFailureLocalityLine: on a long line, a crash in the middle must
// not starve distant nodes (empirical failure locality, experiment E2's
// core mechanism).
func TestCrashFailureLocalityLine(t *testing.T) {
	const n = 16
	r, err := harness.Build(harness.Spec{
		Seed:        7,
		Points:      harness.LinePoints(n, 0.1),
		Radius:      0.11,
		NewProtocol: factory(lme1.VariantGreedy, n, 2),
		Workload: workload.Config{
			EatTime:  3_000,
			ThinkMax: 3_000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	crashAt := sim.Time(1_000_000)
	r.World.CrashAt(n/2, crashAt)
	if err := r.RunFor(8_000_000); err != nil {
		t.Fatal(err)
	}
	// The ends of the line (distance 7–8 from the crash, beyond the
	// algorithm's failure locality) must still be eating long after the
	// crash.
	for _, id := range []core.NodeID{0, n - 1} {
		if last, ok := r.Ledger.LastEat(id); !ok || last < 6_000_000 {
			t.Fatalf("node %d stopped eating after the crash (last=%v ok=%v)", id, last, ok)
		}
	}
}

// TestResponseTimeRecorded sanity-checks that Definition 1 samples flow.
func TestResponseTimeRecorded(t *testing.T) {
	r, err := harness.Build(harness.Spec{
		Seed:        8,
		Points:      harness.LinePoints(5, 0.1),
		Radius:      0.11,
		NewProtocol: factory(lme1.VariantGreedy, 5, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RunFor(2_000_000); err != nil {
		t.Fatal(err)
	}
	st := r.Ledger.Stats()
	if st.Count < 20 {
		t.Fatalf("only %d response samples", st.Count)
	}
	if st.Max <= 0 || st.Mean <= 0 {
		t.Fatalf("degenerate stats %+v", st)
	}
}
