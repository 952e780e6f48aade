package harness

import (
	"context"
	"testing"

	"lme/internal/core"
	"lme/internal/manet"
	"lme/internal/sim"
	"lme/internal/workload"
)

// TestMoverEatsFromRecolorDoorwayEntry pins the fix for a stale-doorway
// crash found by the fleet engine's derived replica seeds (E9 mobile
// sweep, replica 1). A mover whose recolouring journey is interrupted by
// successive link-ups can be handed its last fork while parked at the
// AD^r *entry* and eat there (the Line 19 corner). ExitCS used to exit
// only the fork doorways, so the pending AD^r entry survived, crossed
// mid-way through the next (non-recolouring) journey and hijacked the
// phase machine until finishRecolor hit "BeginEntry while behind" in the
// fork doorway. ExitCS now exits/aborts all four doorways.
func TestMoverEatsFromRecolorDoorwayEntry(t *testing.T) {
	const seed = uint64(0xde7f33488454a0c) // fleet.Seed(82, 1)
	n, horizon := 20, sim.Time(4_000_000)
	radius := ConnectedRadius(n)
	wl := workload.Config{EatTime: 4_000, ThinkMax: 6_000}
	pts, err := GeometricPoints(n, radius, seed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Build(Spec{
		Seed: seed, Points: pts, Radius: radius,
		NewProtocol: factory("alg1-greedy", pts, radius),
		Workload:    wl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	manet.Waypoint{Speed: 0.4, PauseMin: 50_000, PauseMax: 200_000, Until: horizon * 2 / 3}.
		Attach(r.World, []core.NodeID{1, 6, 11, 16})
	if err := r.RunContext(context.Background(), horizon); err != nil {
		t.Fatal(err)
	}
	if err := r.Checker.Err(); err != nil {
		t.Fatalf("mutual exclusion violated: %v", err)
	}
}

// e4World is E4's n = 64 world with the given nodes crashed at 2 s:
// layout GeometricPoints(64, ConnectedRadius(64), 53), eat 5 ms, think
// ≤ 10 ms, stagger 5 ms, movers 0, 4, …, 60 on waypoint pauses of
// 100–400 ms until 7.5 s, and a 10 s horizon.
func e4World(t *testing.T, alg string, seed uint64, speed float64, crashed ...core.NodeID) Scenario {
	t.Helper()
	const n = 64
	radius := ConnectedRadius(n)
	pts, err := GeometricPoints(n, radius, 53)
	if err != nil {
		t.Fatal(err)
	}
	var movers []core.NodeID
	for m := 0; m < n; m += 4 {
		movers = append(movers, core.NodeID(m))
	}
	var crashes []Crash
	for _, id := range crashed {
		crashes = append(crashes, Crash{id, 2_000_000})
	}
	return Scenario{
		Alg: alg,
		Spec: Spec{Seed: seed, Points: pts, Radius: radius,
			Workload: workload.Config{EatTime: 5_000, ThinkMax: 10_000, InitialStagger: 5_000}},
		Crashes:  crashes,
		Movers:   movers,
		Waypoint: manet.Waypoint{Speed: speed, PauseMin: 100_000, PauseMax: 400_000, Until: 7_500_000},
		Horizon:  10_000_000,
	}
}

// TestArrivalKeepsCrashedNodeStatic pins the arrival-order fix of the
// movement engine. A mover's last tick used to clear its moving flag
// before refreshing its links, so a link formed on arrival had no moving
// end and the ID tie-break could hand the moving role to a peer that had
// crashed in its critical section: the arriving node, told it was
// static, took the shared fork and ate beside it. These four worlds
// broke mutual exclusion that way.
func TestArrivalKeepsCrashedNodeStatic(t *testing.T) {
	for _, c := range []struct {
		alg     string
		seed    uint64
		speed   float64
		crashed []core.NodeID
	}{
		{"alg2", 1, 3, []core.NodeID{26}},
		{"alg2", 1, 3, []core.NodeID{26, 31}},
		{"alg2", 1, 0.3, []core.NodeID{26, 31}},
		{"alg1-linial", 2, 3, []core.NodeID{31}},
	} {
		r, err := e4World(t, c.alg, c.seed, c.speed, c.crashed...).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if v := r.Checker.Violations(); len(v) > 0 {
			t.Errorf("%s seed %d speed %v crashed %v: %d violations, first %v",
				c.alg, c.seed, c.speed, c.crashed, len(v), v[0])
		}
	}
}
