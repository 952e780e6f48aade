package lme_test

import (
	"strings"
	"testing"
	"time"

	"lme"
	"lme/internal/metrics"
)

func TestSimulationEveryAlgorithmStatic(t *testing.T) {
	for _, alg := range lme.Algorithms() {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			sim, err := lme.NewSimulation(lme.Config{
				Algorithm: alg,
				Topology:  lme.Line(6),
				Seed:      3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.RunFor(2 * time.Second); err != nil {
				t.Fatal(err)
			}
			res := sim.Results()
			if res.SafetyViolations != 0 {
				t.Fatalf("safety violations: %d", res.SafetyViolations)
			}
			if res.TotalMeals < 6 {
				t.Fatalf("too few meals: %d", res.TotalMeals)
			}
			if len(res.Starved) != 0 {
				t.Fatalf("starved: %v", res.Starved)
			}
			if res.ResponseCount == 0 || res.ResponseMean <= 0 {
				t.Fatalf("degenerate response stats: %+v", res)
			}
			if !strings.Contains(res.String(), "violations=0") {
				t.Fatalf("String() = %q", res.String())
			}
		})
	}
}

func TestSimulationRejectsBadConfig(t *testing.T) {
	if _, err := lme.NewSimulation(lme.Config{Algorithm: "nope", Topology: lme.Line(3)}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := lme.NewSimulation(lme.Config{Algorithm: lme.Alg2}); err == nil {
		t.Fatal("empty topology accepted")
	}
}

func TestTopologyHelpers(t *testing.T) {
	if got := len(lme.Line(7).Points); got != 7 {
		t.Fatalf("Line: %d", got)
	}
	if got := len(lme.Clique(5).Points); got != 5 {
		t.Fatalf("Clique: %d", got)
	}
	if got := len(lme.Grid(2, 3).Points); got != 6 {
		t.Fatalf("Grid: %d", got)
	}
	topo, err := lme.Geometric(12, 0.4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Points) != 12 || topo.Radius != 0.4 {
		t.Fatalf("Geometric: %+v", topo)
	}
}

func TestSimulationCrashAndFailureLocality(t *testing.T) {
	sim, err := lme.NewSimulation(lme.Config{
		Algorithm: lme.Alg2,
		Topology:  lme.Line(9),
		Seed:      4,
		EatTime:   3 * time.Millisecond,
		ThinkMax:  3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Crash(4, 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Distance ≥ 3 from the crash must keep eating (failure locality 2).
	for _, id := range []int{0, 1, 8} {
		if sim.EatCount(id) < 10 {
			t.Fatalf("node %d ate only %d times after crash", id, sim.EatCount(id))
		}
	}
	if sim.NodeState(4) == "" {
		t.Fatal("empty node state")
	}
}

func TestSimulationMobility(t *testing.T) {
	topo, err := lme.Geometric(14, 0.35, 2)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := lme.NewSimulation(lme.Config{
		Algorithm: lme.Alg1Linial,
		Topology:  topo,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Roam([]int{0, 5, 10}, 0.3, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sim.Jump(3, lme.Point{X: 0.9, Y: 0.9}, time.Second, 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunFor(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	res := sim.Results()
	if res.SafetyViolations != 0 {
		t.Fatalf("violations under mobility: %d", res.SafetyViolations)
	}
	if len(sim.Neighbors(0)) == 0 && sim.EatCount(0) == 0 {
		t.Fatal("roaming node isolated and starved")
	}
}

func TestSimulationParticipantsSubset(t *testing.T) {
	sim, err := lme.NewSimulation(lme.Config{
		Algorithm:    lme.ChandyMisra,
		Topology:     lme.Clique(4),
		Participants: []int{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if sim.EatCount(2) != 0 || sim.EatCount(3) != 0 {
		t.Fatal("non-participants ate")
	}
	if sim.EatCount(0) == 0 || sim.EatCount(1) == 0 {
		t.Fatal("participants starved")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() lme.Results {
		sim, err := lme.NewSimulation(lme.Config{
			Algorithm: lme.Alg1Greedy,
			Topology:  lme.Grid(3, 3),
			Seed:      9,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.RunFor(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		return sim.Results()
	}
	a, b := run(), run()
	if a.TotalMeals != b.TotalMeals || a.ResponseMean != b.ResponseMean || a.ResponseMax != b.ResponseMax {
		t.Fatalf("nondeterministic results:\n%v\n%v", a, b)
	}
}

// TestInitialRecoloring runs Algorithm 1 with the distributed
// pre-colouring enabled: every node recolours before its first critical
// section and liveness and safety still hold under full concurrency.
func TestInitialRecoloring(t *testing.T) {
	for _, alg := range []lme.Algorithm{lme.Alg1Greedy, lme.Alg1Linial, lme.Alg1LinialReduce} {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			sim, err := lme.NewSimulation(lme.Config{
				Algorithm:         alg,
				Topology:          lme.Grid(3, 3),
				Seed:              6,
				InitialRecoloring: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.RunFor(3 * time.Second); err != nil {
				t.Fatal(err)
			}
			res := sim.Results()
			if res.SafetyViolations != 0 {
				t.Fatalf("violations: %d", res.SafetyViolations)
			}
			if len(res.Starved) != 0 {
				t.Fatalf("starved: %v", res.Starved)
			}
		})
	}
}

// TestGanttRenders smoke-tests the public timeline view.
func TestGanttRenders(t *testing.T) {
	sim, err := lme.NewSimulation(lme.Config{Algorithm: lme.Alg2, Topology: lme.Line(4)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	chart := sim.Gantt(200*time.Millisecond, 40)
	if !strings.Contains(chart, "node  0") || !strings.Contains(chart, "█") {
		t.Fatalf("chart:\n%s", chart)
	}
}

// TestSimulationTrafficOutputs pins the public API's traffic outputs,
// which the facade feeds from observers of its own (the harness attaches
// none): the per-type breakdown adds up to the send total, the
// link-delay histogram saw every delivery, the -stats snapshot carries
// the counters, and the Gantt timeline exists exactly when spans are not
// folded.
func TestSimulationTrafficOutputs(t *testing.T) {
	for _, fold := range []bool{false, true} {
		sim, err := lme.NewSimulation(lme.Config{Algorithm: lme.Alg2, Topology: lme.Line(6), FoldSpans: fold})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
		rep := sim.Report(0)
		if rep.Messages.Sent == 0 || rep.Messages.Delivered == 0 {
			t.Fatalf("fold=%v: no traffic: %+v", fold, rep.Messages)
		}
		var byType uint64
		for _, v := range rep.Messages.ByType {
			byType += v.Sent
		}
		if byType != rep.Messages.Sent {
			t.Errorf("fold=%v: by_type sent sums to %d, messages.sent is %d", fold, byType, rep.Messages.Sent)
		}
		if rep.LinkDelay.Count != rep.Messages.Delivered {
			t.Errorf("fold=%v: link_delay count %d, messages.delivered %d", fold, rep.LinkDelay.Count, rep.Messages.Delivered)
		}
		if got := sim.MetricsSnapshot().Counters[metrics.CtrSent]; got != rep.Messages.Sent {
			t.Errorf("fold=%v: snapshot %s = %d, want %d", fold, metrics.CtrSent, got, rep.Messages.Sent)
		}
		if chart := sim.Gantt(200*time.Millisecond, 40); (chart == "") != fold {
			t.Errorf("fold=%v: Gantt returned %q", fold, chart)
		}
	}
}
