package manet_test

import (
	"fmt"
	"testing"
	"time"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/harness"
	"lme/internal/lme1"
	"lme/internal/lme2"
	"lme/internal/manet"
	"lme/internal/workload"
)

// BenchmarkWindowModes is the sweep behind manet's directBelow threshold:
// the same world run with every window forced direct and forced parallel,
// over world sizes that put 37 to 6 000 events in a window, for the two
// kinds of world the benchmark has — "lean" (greedy Algorithm 1 on a
// lattice with no ring or spans: almost nothing to replay at a barrier,
// sim_static_10k's shape) and "observed" (Algorithm 2 with a trace ring
// and span fold: every event leaves effects to buffer and replay,
// sim_mobile_2k's shape). It reports events/window and
// events/s; where the two modes' events/s cross is the threshold. Static
// worlds, so only ν cuts windows and events/window follows n.
//
//	go test ./internal/manet -run '^$' -bench WindowModes -benchtime 3x
func BenchmarkWindowModes(b *testing.B) {
	const warm, span = 100_000, 200_000
	for _, observed := range []bool{false, true} {
		family := "lean"
		if observed {
			family = "observed"
		}
		for _, side := range []int{10, 16, 20, 24, 28, 32, 36, 40, 48, 64, 100} {
			n := side * side
			points := make([]graph.Point, n)
			for i := range points {
				points[i] = graph.Point{X: (float64(i%side) + 0.5) / float64(side), Y: (float64(i/side) + 0.5) / float64(side)}
			}
			for _, direct := range []bool{true, false} {
				mode := "parallel"
				if direct {
					mode = "direct"
				}
				b.Run(fmt.Sprintf("%s/n=%d/%s", family, n, mode), func(b *testing.B) {
					var events, windows uint64
					var wall time.Duration
					for i := 0; i < b.N; i++ {
						spec := harness.Spec{
							Seed:   1,
							Points: points,
							Radius: 1.45 / float64(side),
							NewProtocol: func(core.NodeID) core.Protocol {
								if observed {
									return lme2.New()
								}
								return lme1.New(lme1.Config{Variant: lme1.VariantGreedy})
							},
							Workload:  workload.DefaultConfig(),
							Tiles:     manet.AutoTiles(n),
							Telemetry: true,
						}
						if observed {
							spec.TraceRing, spec.SpanFold = 1024, true
						}
						r, err := harness.Build(spec)
						if err != nil {
							b.Fatal(err)
						}
						if err := r.Start(); err != nil {
							b.Fatal(err)
						}
						w := r.World
						w.ForceWindowMode(direct)
						if err := w.RunUntil(warm, 0); err != nil {
							b.Fatal(err)
						}
						e0, w0 := w.Processed(), w.EngineTelemetry().Windows
						begin := time.Now()
						if err := w.RunUntil(warm+span, 0); err != nil {
							b.Fatal(err)
						}
						wall += time.Since(begin)
						events += w.Processed() - e0
						windows += w.EngineTelemetry().Windows - w0
					}
					b.ReportMetric(float64(events)/float64(windows), "events/window")
					b.ReportMetric(float64(events)/wall.Seconds(), "events/s")
				})
			}
		}
	}
}
