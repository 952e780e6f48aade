package harness

import (
	"testing"
	"testing/quick"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/manet"
	"lme/internal/sim"
	"lme/internal/workload"
)

// allAlgorithms are the names the fuzz properties draw from.
var allAlgorithms = []string{"chandy-misra", "choy-singh", "alg1-greedy", "alg1-linial", "alg1-linial-reduce", "alg2", "alg2-nonotify"}

// propertyStaticSafe: for arbitrary seeds, topologies and algorithms, a
// static run never violates local mutual exclusion and (absent crashes)
// starves nobody.
func propertyStaticSafe(t *testing.T) func(seed uint64, algPick, topoPick, sizePick uint8) bool {
	return func(seed uint64, algPick, topoPick, sizePick uint8) bool {
		a := allAlgorithms[int(algPick)%len(allAlgorithms)]
		n := int(sizePick)%12 + 4
		var pts []graph.Point
		radius := 0.11
		switch topoPick % 4 {
		case 0:
			pts = LinePoints(n, 0.1)
		case 1:
			pts = CliquePoints(n)
			radius = 0.2
		case 2:
			side := 2
			for side*side < n {
				side++
			}
			pts = GridPoints(side, side, 0.1)
		default:
			var err error
			radius = ConnectedRadius(n) * 1.3
			pts, err = GeometricPoints(n, radius, seed%100+1)
			if err != nil {
				return true // layout unsatisfiable at this seed; skip
			}
		}
		r, err := Build(Spec{
			Seed: seed, Points: pts, Radius: radius,
			NewProtocol: factory(a, pts, radius),
			Workload:    workload.Config{EatTime: 3_000, ThinkMax: 5_000},
		})
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		if err := r.RunFor(2_500_000); err != nil {
			t.Logf("%s on topo %d n=%d seed %d: %v", a, topoPick%4, len(pts), seed, err)
			return false
		}
		ok, missing := r.EveryoneAte()
		if !ok {
			t.Logf("%s on topo %d n=%d seed %d starved %v", a, topoPick%4, len(pts), seed, missing)
		}
		return ok
	}
}

// propertyChaosSafe: random crashes and jumps on top of the dining cycle;
// safety must hold unconditionally (liveness is only owed away from
// crashes, so it is not asserted here).
func propertyChaosSafe(t *testing.T) func(seed uint64, algPick, crashPick, jumpPick uint8) bool {
	mobileAlgorithms := []string{"chandy-misra", "alg1-greedy", "alg1-linial", "alg1-linial-reduce", "alg2", "alg2-nonotify"}
	return func(seed uint64, algPick, crashPick, jumpPick uint8) bool {
		a := mobileAlgorithms[int(algPick)%len(mobileAlgorithms)]
		n := 14
		pts, err := GeometricPoints(n, 0.33, seed%50+1)
		if err != nil {
			return true
		}
		r, err := Build(Spec{
			Seed: seed, Points: pts, Radius: 0.33,
			NewProtocol: factory(a, pts, 0.33),
			Workload:    workload.Config{EatTime: 3_000, ThinkMax: 5_000},
		})
		if err != nil {
			return false
		}
		if err := r.Start(); err != nil {
			return false
		}
		// Up to two crashes and three jumps at arbitrary times.
		for c := 0; c < int(crashPick)%3; c++ {
			r.World.CrashAt(core.NodeID((int(crashPick)+c*5)%n), sim.Time(200_000+c*400_000))
		}
		for j := 0; j < int(jumpPick)%4; j++ {
			id := core.NodeID((int(jumpPick) + j*3) % n)
			dest := graph.Point{X: float64(j) * 0.3, Y: float64(int(jumpPick)%3) * 0.3}
			r.World.JumpAt(id, dest, 30_000, sim.Time(300_000+j*500_000))
		}
		if err := r.RunFor(3_000_000); err != nil {
			t.Logf("%s seed %d: %v", a, seed, err)
			return false
		}
		return true
	}
}

// propertyMobilitySafe: repeated waypoint churn with every algorithm that
// supports movement; safety only.
func propertyMobilitySafe(t *testing.T) func(seed uint64, algPick uint8) bool {
	mobileAlgorithms := []string{"chandy-misra", "alg1-greedy", "alg1-linial", "alg1-linial-reduce", "alg2"}
	return func(seed uint64, algPick uint8) bool {
		a := mobileAlgorithms[int(algPick)%len(mobileAlgorithms)]
		pts, err := GeometricPoints(12, 0.35, seed%30+1)
		if err != nil {
			return true
		}
		r, err := Build(Spec{
			Seed: seed, Points: pts, Radius: 0.35,
			NewProtocol: factory(a, pts, 0.35),
			Workload:    workload.Config{EatTime: 3_000, ThinkMax: 5_000},
		})
		if err != nil {
			return false
		}
		if err := r.Start(); err != nil {
			return false
		}
		manet.Waypoint{Speed: 0.5, PauseMin: 30_000, PauseMax: 150_000, Until: 2_000_000}.
			Attach(r.World, []core.NodeID{0, 4, 8})
		if err := r.RunFor(3_000_000); err != nil {
			t.Logf("%s seed %d: %v", a, seed, err)
			return false
		}
		return true
	}
}

func TestPropertySafetyRandomStatic(t *testing.T) {
	if err := quick.Check(propertyStaticSafe(t), &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySafetyRandomChaos(t *testing.T) {
	if err := quick.Check(propertyChaosSafe(t), &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMobilityWaves(t *testing.T) {
	if err := quick.Check(propertyMobilitySafe(t), &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
