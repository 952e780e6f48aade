package metrics

import (
	"testing"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/sim"
)

type fixedTopo map[core.NodeID][]core.NodeID

func (t fixedTopo) Neighbors(id core.NodeID) []core.NodeID { return t[id] }

func TestSafetyCheckerCleanRun(t *testing.T) {
	topo := fixedTopo{0: {1}, 1: {0}}
	c := NewSafetyChecker(topo)
	c.OnStateChange(0, core.Hungry, core.Eating, 10)
	c.OnStateChange(0, core.Eating, core.Thinking, 20)
	c.OnStateChange(1, core.Hungry, core.Eating, 30)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestSafetyCheckerDetectsNeighbourOverlap(t *testing.T) {
	topo := fixedTopo{0: {1}, 1: {0}}
	c := NewSafetyChecker(topo)
	c.OnStateChange(0, core.Hungry, core.Eating, 10)
	c.OnStateChange(1, core.Hungry, core.Eating, 15)
	if err := c.Err(); err == nil {
		t.Fatal("overlapping neighbours not detected")
	}
	v := c.Violations()
	if len(v) != 1 || v[0].A != 1 || v[0].B != 0 || v[0].At != 15 {
		t.Fatalf("violations = %v", v)
	}
	if v[0].String() == "" {
		t.Fatal("empty violation string")
	}
}

func TestSafetyCheckerAllowsNonNeighbourOverlap(t *testing.T) {
	topo := fixedTopo{0: {1}, 1: {0, 2}, 2: {1}}
	c := NewSafetyChecker(topo)
	c.OnStateChange(0, core.Hungry, core.Eating, 10)
	c.OnStateChange(2, core.Hungry, core.Eating, 15)
	if err := c.Err(); err != nil {
		t.Fatalf("distance-2 overlap flagged: %v", err)
	}
}

func TestSafetyCheckerDetectsLinkBetweenEaters(t *testing.T) {
	topo := fixedTopo{}
	c := NewSafetyChecker(topo)
	c.OnStateChange(0, core.Hungry, core.Eating, 10)
	c.OnStateChange(5, core.Hungry, core.Eating, 12)
	c.OnLink(0, 5, true, 20)
	if err := c.Err(); err == nil {
		t.Fatal("link between two eaters not detected")
	}
	c2 := NewSafetyChecker(topo)
	c2.OnStateChange(0, core.Hungry, core.Eating, 10)
	c2.OnLink(0, 5, true, 20) // 5 not eating: fine
	c2.OnLink(0, 5, false, 30)
	if err := c2.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	if s := Summarize(nil); s.Count != 0 {
		t.Fatalf("empty summarize = %+v", s)
	}
	s := Summarize([]sim.Time{40, 10, 30, 20})
	if s.Count != 4 || s.Mean != 25 || s.Max != 40 {
		t.Fatalf("stats = %+v", s)
	}
	if s.P50 != 20 {
		t.Fatalf("p50 = %v", s.P50)
	}
	if s.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestBlockedRadius(t *testing.T) {
	g := graph.Line(6) // 0-1-2-3-4-5
	if r := BlockedRadius(g, 0, nil); r != 0 {
		t.Fatalf("radius with no blocked = %d", r)
	}
	if r := BlockedRadius(g, 0, []core.NodeID{1, 3}); r != 3 {
		t.Fatalf("radius = %d, want 3", r)
	}
	// The crashed node itself is excluded.
	if r := BlockedRadius(g, 2, []core.NodeID{2}); r != 0 {
		t.Fatalf("radius = %d, want 0", r)
	}
}

// TestSummarizeNearestRank pins the percentile convention: nearest rank,
// i.e. the smallest sample with at least ⌈q·N⌉ samples at or below it.
func TestSummarizeNearestRank(t *testing.T) {
	cases := []struct {
		name     string
		samples  []sim.Time
		p50, p95 sim.Time
	}{
		// Odd N=5: rank ⌈0.5·5⌉=3 → 30; rank ⌈0.95·5⌉=5 → 50.
		{"odd5", []sim.Time{50, 10, 40, 20, 30}, 30, 50},
		// Even N=4: rank ⌈2⌉=2 → 20; rank ⌈3.8⌉=4 → 40. The old
		// truncating index returned sorted[2]=30 for P50.
		{"even4", []sim.Time{40, 30, 20, 10}, 20, 40},
		// N=1: every percentile is the sample.
		{"single", []sim.Time{7}, 7, 7},
		// Even N=20: rank 10 → 100; rank ⌈19⌉=19 → 190 (not the max).
		{"even20", ramp(20, 10), 100, 190},
		// Odd N=3: rank ⌈1.5⌉=2 → 20; rank ⌈2.85⌉=3 → 30.
		{"odd3", []sim.Time{30, 10, 20}, 20, 30},
	}
	for _, tc := range cases {
		s := Summarize(tc.samples)
		if s.P50 != tc.p50 {
			t.Errorf("%s: P50 = %v, want %v", tc.name, s.P50, tc.p50)
		}
		if s.P95 != tc.p95 {
			t.Errorf("%s: P95 = %v, want %v", tc.name, s.P95, tc.p95)
		}
	}
}

// ramp returns {step, 2·step, …, n·step}.
func ramp(n int, step sim.Time) []sim.Time {
	out := make([]sim.Time, n)
	for i := range out {
		out[i] = sim.Time(i+1) * step
	}
	return out
}

// TestSafetyCheckerViolationHook: the flight recorder's trigger fires
// synchronously on every recorded violation, on both detection paths
// (state transition and link creation).
func TestSafetyCheckerViolationHook(t *testing.T) {
	topo := fixedTopo{0: {1}, 1: {0}}
	c := NewSafetyChecker(topo)
	var got []Violation
	c.SetOnViolation(func(v Violation) { got = append(got, v) })
	c.OnStateChange(0, core.Hungry, core.Eating, 10)
	c.OnStateChange(1, core.Hungry, core.Eating, 15)
	if len(got) != 1 || got[0].A != 1 || got[0].B != 0 || got[0].At != 15 {
		t.Fatalf("hook saw %v", got)
	}
	c.OnLink(0, 1, true, 20) // both still eating: the link path fires too
	if len(got) != 2 || got[1].At != 20 {
		t.Fatalf("hook saw %v", got)
	}
	// The hook observes what Violations records, in order.
	vs := c.Violations()
	if len(vs) != len(got) || vs[0] != got[0] || vs[1] != got[1] {
		t.Fatalf("hook/record divergence: %v vs %v", got, vs)
	}
	// Detaching the hook stops callbacks but not recording.
	c.SetOnViolation(nil)
	c.OnStateChange(0, core.Eating, core.Eating, 25)
	if len(got) != 2 {
		t.Fatalf("detached hook fired: %v", got)
	}
}
