package harness

import (
	"context"
	"fmt"
	"math"
	"testing"

	"lme/internal/core"
	"lme/internal/metrics"
	"lme/internal/sim"
	"lme/internal/workload"
)

// diffCell runs one harness spec with full sample retention and checks
// that the sketch-served statistics (what the tables now print) agree
// with the exact nearest-rank summary of the retained samples: the
// count/mean/max fields exactly, the quantiles within the sketch's
// relative accuracy (plus 1µs of integer-rounding slack).
func diffCell(t *testing.T, name string, spec Spec, crash int, horizon sim.Time) {
	t.Helper()
	spec.RetainSamples = true
	r, err := Build(spec)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if crash >= 0 {
		r.World.CrashAt(core.NodeID(crash), horizon/4)
	}
	if err := r.RunContext(context.Background(), horizon); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	exact := metrics.Summarize(r.Ledger.Samples())
	got := r.Ledger.Stats()
	if got.Count == 0 {
		t.Fatalf("%s: no response samples", name)
	}
	if got.Count != exact.Count || got.Mean != exact.Mean || got.Max != exact.Max {
		t.Errorf("%s: exact fields diverge: sketch %+v exact %+v", name, got, exact)
	}
	alpha := r.Ledger.Sketch().RelativeAccuracy()
	for _, q := range []struct {
		name         string
		sketch, want sim.Time
	}{{"p50", got.P50, exact.P50}, {"p95", got.P95, exact.P95}} {
		if diff := math.Abs(float64(q.sketch) - float64(q.want)); diff > alpha*float64(q.want)+1 {
			t.Errorf("%s: %s: sketch %d vs exact %d (off by %.0fµs, tolerance %.0f)",
				name, q.name, q.sketch, q.want, diff, alpha*float64(q.want)+1)
		}
	}
}

// TestSketchMatchesExactOnExperimentCells is the differential check over
// the E1 and E2 cell shapes: every algorithm of Table 1 on its static
// geometric topology (E1's static cells) and crash runs on the line and
// geometric layouts FailureLocality uses (E2's cells), each compared
// sketch-vs-exact at Quick scale.
func TestSketchMatchesExactOnExperimentCells(t *testing.T) {
	horizon := sim.Time(1_500_000)
	wl := workload.Config{EatTime: 5_000, ThinkMax: 10_000, InitialStagger: 5_000}

	// E1 static cells: all five Table-1 algorithms on the shared
	// geometric layout.
	n := 24
	radius := ConnectedRadius(n)
	pts, err := GeometricPoints(n, radius, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{"chandy-misra", "choy-singh", "alg1-greedy", "alg1-linial", "alg2"} {
		diffCell(t, "E1/static/"+a, Spec{
			Seed: 21, Points: pts, Radius: radius,
			NewProtocol: factory(a, pts, radius),
			Workload:    wl,
		}, -1, horizon)
	}

	// E2 cells: crash runs under a saturated workload on a line and on
	// the geometric layout, for the contrasting-locality algorithms.
	linePts := LinePoints(16, 0.05)
	for _, a := range []string{"chandy-misra", "alg2"} {
		diffCell(t, "E2/line/"+a, Spec{
			Seed: 31, Points: linePts, Radius: 0.06,
			NewProtocol: factory(a, linePts, 0.06),
			Workload:    workload.Config{EatTime: 4_000},
		}, 8, horizon)
		diffCell(t, "E2/geo/"+a, Spec{
			Seed: 32, Points: pts, Radius: radius,
			NewProtocol: factory(a, pts, radius),
			Workload:    workload.Config{EatTime: 4_000},
		}, 0, horizon)
	}
}

// TestMergedSketchCellDeterministicAcrossWorkers pins tentpole part 3:
// the rendered E1 table — merged-sketch percentile columns included —
// is byte-identical for every worker count at replicas > 1.
func TestMergedSketchCellDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replica experiment sweep")
	}
	exp := Experiments()[0] // E1
	var want string
	for _, workers := range []int{1, 4} {
		tbl, err := Engine{Workers: workers, Replicas: 2}.Run(exp, Quick)
		if err != nil {
			t.Fatal(err)
		}
		got := tbl.String() + fmt.Sprintf("%+v", tbl.CellStats)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("table differs between 1 and %d workers:\n%s\nvs\n%s", workers, got, want)
		}
	}
}
