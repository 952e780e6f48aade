package lme1_test

import (
	"testing"

	"lme/internal/core"
	"lme/internal/harness"
	"lme/internal/lme1"
	"lme/internal/workload"
)

// TestWantBackFlushAtDoorwayEntry is the regression test for a deadlock
// the property fuzzer found: node A (behind SD^f) grants its low fork to
// node B with the want-back flag; B ends up holding ALL its forks while
// parked at the AD^f entry — blocked by A itself — so unless B eats right
// there (the paper's unguarded Line 19), the want-back never flushes and
// A waits forever. The failing configuration was a 12-node geometric
// graph; the fixed seed below reproduced a global freeze before the fix.
func TestWantBackFlushAtDoorwayEntry(t *testing.T) {
	seed := uint64(0x9999ca68ac1c3db0)
	radius := harness.ConnectedRadius(12) * 1.3
	pts, err := harness.GeometricPoints(12, radius, seed%100+1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := harness.Build(harness.Spec{
		Seed:   seed,
		Points: pts,
		Radius: radius,
		NewProtocol: func(id core.NodeID) core.Protocol {
			return lme1.New(lme1.Config{Variant: lme1.VariantLinial, N: 12, Delta: 11})
		},
		Workload: workload.Config{EatTime: 3_000, ThinkMax: 5_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RunFor(2_500_000); err != nil {
		t.Fatal(err)
	}
	if ok, missing := r.EveryoneAte(); !ok {
		t.Fatalf("starved nodes: %v (want-back flush regression)", missing)
	}
	// The run must keep making progress, not freeze after first meals.
	for i := 0; i < 12; i++ {
		if c := r.Ledger.EatCount(core.NodeID(i)); c < 5 {
			t.Fatalf("node %d ate only %d times", i, c)
		}
	}
}
