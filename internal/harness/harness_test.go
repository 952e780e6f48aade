package harness

import (
	"strings"
	"testing"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/lme2"
	"lme/internal/trace"
)

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Spec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := Build(Spec{Points: LinePoints(2, 0.1)}); err == nil {
		t.Fatal("spec without factory accepted")
	}
}

func TestRunLifecycle(t *testing.T) {
	r, err := Build(Spec{
		Seed:        1,
		Points:      LinePoints(4, 0.1),
		Radius:      0.11,
		NewProtocol: func(core.NodeID) core.Protocol { return lme2.New() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal("Start not idempotent:", err)
	}
	if err := r.RunFor(1_000_000); err != nil {
		t.Fatal(err)
	}
	if ok, missing := r.EveryoneAte(); !ok {
		t.Fatalf("starved: %v", missing)
	}
}

// TestBuildPublishesNoTraffic pins the harness's pay-per-reader rule:
// Build attaches only what the harness reads itself, so a run with no
// ring, sink or span collector builds no traffic event and classifies no
// message — and asking for spans is what turns the send stream on.
func TestBuildPublishesNoTraffic(t *testing.T) {
	for _, spans := range []bool{false, true} {
		r, err := Build(Spec{
			Seed:        1,
			Points:      LinePoints(6, 0.1),
			Radius:      0.11,
			Spans:       spans,
			NewProtocol: func(core.NodeID) core.Protocol { return lme2.New() },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.RunFor(500_000); err != nil {
			t.Fatal(err)
		}
		if r.World.MessagesSent() == 0 {
			t.Fatal("no traffic: the check below would hold vacuously")
		}
		bus := r.World.Bus()
		if spans {
			if !bus.Wants(trace.KindSend) {
				t.Fatal("Spans run: bus does not want sends")
			}
			continue
		}
		for _, k := range []trace.Kind{trace.KindSend, trace.KindDeliver, trace.KindDrop} {
			if bus.Wants(k) {
				t.Errorf("default Spec: bus wants %v events", k)
			}
		}
		if n := r.World.TypeNamer().NumTypes(); n != 0 {
			t.Errorf("default Spec: %d message types classified, want 0", n)
		}
	}
}

// TestEventsProcessedMatchesWorld: the process-wide event total advances
// by exactly what each run's world executed — on 1×1 and 3×3 grids,
// across repeated RunFor calls — now that it is fed from the per-slice
// World.Processed delta rather than a per-event hook. (Not parallel: no
// other run may feed the total meanwhile.)
func TestEventsProcessedMatchesWorld(t *testing.T) {
	for _, tiles := range []int{0, 3} {
		r, err := Build(Spec{
			Seed:        7,
			Points:      GridPoints(6, 6, 0.1),
			Radius:      0.11,
			Tiles:       tiles,
			NewProtocol: func(core.NodeID) core.Protocol { return lme2.New() },
		})
		if err != nil {
			t.Fatal(err)
		}
		before := EventsProcessed()
		for i := 0; i < 3; i++ {
			if err := r.RunFor(200_000); err != nil {
				t.Fatal(err)
			}
		}
		got, want := EventsProcessed()-before, r.World.Processed()
		if want == 0 || got != want {
			t.Fatalf("tiles=%d: EventsProcessed advanced by %d, world executed %d", tiles, got, want)
		}
	}
}

func TestPointHelpers(t *testing.T) {
	if got := len(LinePoints(5, 0.1)); got != 5 {
		t.Fatalf("LinePoints: %d", got)
	}
	if got := len(CliquePoints(7)); got != 7 {
		t.Fatalf("CliquePoints: %d", got)
	}
	if got := len(GridPoints(3, 4, 0.1)); got != 12 {
		t.Fatalf("GridPoints: %d", got)
	}
	pts, err := GeometricPoints(10, 0.5, 1)
	if err != nil || len(pts) != 10 {
		t.Fatalf("GeometricPoints: %d, %v", len(pts), err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "T", Title: "demo", Header: []string{"a", "long-header"}}
	tb.AddRow(1, "x")
	tb.AddRow("wide-cell", 2)
	tb.AddNote("footnote %d", 7)
	s := tb.String()
	for _, want := range []string{"T — demo", "long-header", "wide-cell", "note: footnote 7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

// TestExperimentsQuick executes every experiment end-to-end at Quick
// quality: each must produce a populated table without safety violations
// sneaking into an error.
func TestExperimentsQuick(t *testing.T) {
	for _, exp := range Experiments() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			tb, err := exp.Run(Quick)
			if err != nil {
				t.Fatal(err)
			}
			if len(tb.Rows) == 0 {
				t.Fatal("empty table")
			}
			if tb.ID != exp.ID {
				t.Fatalf("table ID %q != %q", tb.ID, exp.ID)
			}
			t.Log("\n" + tb.String())
		})
	}
}

func TestGreedyFloodRounds(t *testing.T) {
	// The flood needs Θ(diameter) rounds and the palette stays ≤ δ+1.
	ring := graph.Ring(24)
	rounds, palette := greedyFloodRounds(ring)
	if rounds < 6 {
		t.Fatalf("ring flood finished in %d rounds, expected Θ(diameter)", rounds)
	}
	if palette > ring.MaxDegree()+1 {
		t.Fatalf("ring palette %d > δ+1", palette)
	}
	clique := graph.Clique(6)
	rounds, palette = greedyFloodRounds(clique)
	if rounds > 3 {
		t.Fatalf("clique flood took %d rounds", rounds)
	}
	if palette != 6 {
		t.Fatalf("clique palette %d, want 6", palette)
	}
}

func TestDoorwayProbeLatencyGrowsWithContention(t *testing.T) {
	small, err := doorwayProbe(2, 10_000, 2_000_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	large, err := doorwayProbe(8, 10_000, 2_000_000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if small.Count == 0 || large.Count == 0 {
		t.Fatalf("no samples: %d / %d", small.Count, large.Count)
	}
	if large.Mean <= small.Mean {
		t.Fatalf("doorway latency did not grow with contention: %v → %v", small.Mean, large.Mean)
	}
}
