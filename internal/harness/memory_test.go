package harness

import (
	"context"
	"runtime"
	"testing"

	"lme/internal/sim"
	"lme/internal/workload"
)

// liveHeapAfterStreamingRun executes one fully-streaming observed run
// (span fold, sketch-only recorder, no retained ring or samples) for the
// given horizon and returns the live heap with the run still reachable.
func liveHeapAfterStreamingRun(t *testing.T, horizon sim.Time) uint64 {
	t.Helper()
	pts := LinePoints(16, 0.05)
	r, err := Build(Spec{
		Seed: 7, Points: pts, Radius: 0.06,
		NewProtocol: factory("alg2", pts, 0.06),
		Workload:    workload.Config{EatTime: 5_000, ThinkMax: 10_000},
		SpanFold:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RunContext(context.Background(), horizon); err != nil {
		t.Fatal(err)
	}
	if r.Spans.Summary().Ate == 0 {
		t.Fatal("streaming run folded no meals")
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap := ms.HeapAlloc
	runtime.KeepAlive(r)
	return heap
}

// TestStreamingMemoryBounded is the bounded-memory smoke check: a 10×
// longer run in streaming mode must not grow the live heap more than 2×
// (plus a fixed slack for runtime noise). In streaming mode every
// observer is O(nodes) or O(buckets), so heap is independent of run
// length; a regression that reintroduces per-event or per-attempt
// retention on the default path fails this immediately.
func TestStreamingMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second virtual horizon")
	}
	const base = sim.Time(2_000_000)
	short := liveHeapAfterStreamingRun(t, base)
	long := liveHeapAfterStreamingRun(t, 10*base)
	const slack = 4 << 20
	if long > 2*short+slack {
		t.Errorf("streaming heap not bounded: %d bytes after 10x horizon vs %d after 1x (limit 2x+%d)",
			long, short, slack)
	}
	t.Logf("live heap: %d bytes at 1x horizon, %d bytes at 10x", short, long)
}
