package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/sim"
	"lme/internal/span"
	"lme/internal/trace"
	"lme/internal/workload"
)

// spanRun executes one crash scenario with the span layer attached and
// returns the finalized span JSONL bytes.
func spanRun(t *testing.T, seed uint64) []byte {
	t.Helper()
	pts := LinePoints(8, 0.1)
	r, err := Build(Spec{
		Seed: seed, Points: pts, Radius: 0.11,
		NewProtocol: factory("alg1-greedy", pts, 0.11),
		Workload:    workload.Config{EatTime: 4_000}, // saturated
		Spans:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.World.CrashAt(4, 500_000)
	if err := r.RunFor(2_000_000); err != nil {
		t.Fatal(err)
	}
	r.FinalizeSpans()
	var buf bytes.Buffer
	if err := r.Spans.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSpanJSONLDeterministic pins the acceptance criterion: the same seed
// produces a byte-identical span file across two independent runs.
func TestSpanJSONLDeterministic(t *testing.T) {
	first := spanRun(t, 7)
	second := spanRun(t, 7)
	if len(first) == 0 {
		t.Fatal("span run produced no spans")
	}
	if !bytes.Equal(first, second) {
		t.Fatal("same seed, different span JSONL")
	}
	// A different seed produces a different file (the determinism test
	// would pass vacuously if spans ignored the run).
	if bytes.Equal(first, spanRun(t, 8)) {
		t.Fatal("seed does not influence spans")
	}
}

// TestEngineSpanTablesDeterministicAcrossWorkers extends the engine's
// bit-identical-table guarantee to the span-bearing experiment: E2's
// measured-locality columns (span attribution included) must not depend
// on the worker count.
func TestEngineSpanTablesDeterministicAcrossWorkers(t *testing.T) {
	exp := Experiment{ID: "E2", Title: "locality", Plan: FailureLocality}
	render := func(workers int) []byte {
		t.Helper()
		tbl, err := Engine{Workers: workers, Replicas: 2}.Run(exp, Quick)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b, err := json.Marshal(tbl)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := render(1)
	wide := render(max(runtime.GOMAXPROCS(0), 8))
	if !bytes.Equal(serial, wide) {
		t.Fatalf("span table differs across worker counts:\nserial: %s\nwide:   %s", serial, wide)
	}
}

// TestPostmortemOnViolation drives the flight recorder end to end: a run
// with the recorder armed, an injected safety violation, and a dump that
// contains the ring tail, the open spans and the wait-for graph.
func TestPostmortemOnViolation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pm.json")
	pts := LinePoints(4, 0.1)
	r, err := Build(Spec{
		Seed: 1, Points: pts, Radius: 0.11,
		NewProtocol:    factory("alg2", pts, 0.11),
		TraceRing:      256,
		Spans:          true,
		PostmortemPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RunFor(300_000); err != nil {
		t.Fatal(err)
	}
	now := r.World.Now()
	// Guarantee an open span in the dump: the collector folds the bus, so
	// a synthetic hungry transition opens an attempt for node 2 without
	// touching the protocols.
	r.World.Bus().Publish(&trace.Event{
		Kind: trace.KindState, Node: 2, Peer: trace.NoNode,
		Old: "thinking", New: "hungry", At: now,
	})
	// Inject the violation straight into the checker (the protocols are
	// correct, so a real one never happens): neighbours 0 and 1 eating.
	// The first call may already trip if the run left a neighbour eating,
	// so the dump's At is somewhere in [now+1, now+2].
	r.Checker.OnStateChange(0, core.Hungry, core.Eating, now+1)
	r.Checker.OnStateChange(1, core.Hungry, core.Eating, now+2)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("flight recorder wrote nothing: %v", err)
	}
	var pm span.Postmortem
	if err := json.Unmarshal(data, &pm); err != nil {
		t.Fatal(err)
	}
	if pm.Schema != span.PostmortemSchema || pm.Reason == "" || pm.At < now+1 || pm.At > now+2 {
		t.Fatalf("dump header: schema=%q reason=%q at=%v (now=%v)",
			pm.Schema, pm.Reason, pm.At, now)
	}
	if len(pm.Ring) == 0 {
		t.Fatal("dump has an empty ring despite TraceRing")
	}
	var openNode2 bool
	for _, s := range pm.Open {
		if s.Node == 2 && s.Outcome == span.OutcomeOpen {
			openNode2 = true
		}
	}
	if !openNode2 {
		t.Fatalf("dump misses the open span of node 2: %+v", pm.Open)
	}

	// The recorder writes once: a second violation must not clobber the
	// first dump.
	r.Checker.OnStateChange(3, core.Hungry, core.Eating, now+3)
	r.Checker.OnStateChange(2, core.Hungry, core.Eating, now+4)
	again, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("second violation rewrote the post-mortem dump")
	}
}

// TestMeasuredFailureLocalityContrast pins the headline measurement of
// the span layer on the quick E2 geometric scenario: Algorithm 2's
// measured failure locality stays within the paper's bound of 2 while
// Algorithm 1's exceeds it.
func TestMeasuredFailureLocalityContrast(t *testing.T) {
	const n = 16
	radius := ConnectedRadius(n)
	pts, err := GeometricPoints(n, radius, 17)
	if err != nil {
		t.Fatal(err)
	}
	// Seed 32 produces an alg1 blocking chain of depth 3 on this layout
	// under the per-node random streams (the shared-stream substrate used
	// 31; re-picked when the streams changed, same scenario shape).
	horizon := sim.Time(3_000_000)
	ctx := context.Background()
	a1, err := blockedRadius(ctx, "alg1-greedy", pts, radius, 32, horizon)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := blockedRadius(ctx, "alg2", pts, radius, 32, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if a2.spanDist > 2 {
		t.Fatalf("alg2 measured locality %d > 2 (paper bound)", a2.spanDist)
	}
	if a1.spanDist <= 2 {
		t.Fatalf("alg1 measured locality %d, expected > 2 on this scenario", a1.spanDist)
	}
	// The span attribution and the starvation probe measure the same
	// phenomenon: they must agree on this scenario.
	if a1.spanDist != a1.radius || a2.spanDist != a2.radius {
		t.Fatalf("span/starvation divergence: alg1 %d/%d, alg2 %d/%d",
			a1.spanDist, a1.radius, a2.spanDist, a2.radius)
	}
}

// TestSpanAdjacencySeededAtStart holds the collector's initial adjacency,
// seeded from the world's links at Start, to a second collector on the
// same bus seeded from the unit-disk graph of the layout: the crash
// attribution must agree. A node crashed before it ever speaks leaves
// links that no message crosses, so a collector left to learn its
// adjacency from traffic measures other distances.
func TestSpanAdjacencySeededAtStart(t *testing.T) {
	const n = 16
	radius := ConnectedRadius(n)
	pts, err := GeometricPoints(n, radius, 17)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.UnitDisk(pts, radius)
	r, err := Build(Spec{
		Seed: 32, Points: pts, Radius: radius,
		NewProtocol: factory("alg1-greedy", pts, radius),
		Spans:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle := span.New()
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				oracle.SeedLink(core.NodeID(u), core.NodeID(v))
			}
		}
	}
	oracle.Attach(r.World.Bus())
	r.World.CrashAt(maxDegreeNode(g), 1)
	if err := r.RunFor(3_000_000); err != nil {
		t.Fatal(err)
	}
	r.FinalizeSpans()
	oracle.Finalize(r.World.Now())
	got, want := r.Spans.Impacts(), oracle.Impacts()
	if len(want) != 1 || len(want[0].Blocked) == 0 {
		t.Fatalf("crash blocked nobody: %+v", want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("impacts %+v, unit-disk-seeded collector %+v", got, want)
	}
}
