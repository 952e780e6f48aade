package manet

// Determinism and sanity tests for the engine's execution telemetry
// (lme/telemetry/v1). The load-bearing property is invariance: telemetry
// is out-of-band, so flipping it on must not move a single byte of the
// event stream on any engine/tiling — pinned here by running the full
// sharded scenario with telemetry on and off across tile grids and
// diffing the streams.

import (
	"bytes"
	"fmt"
	"testing"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/telemetry"
)

// telemetryTrace is shardedTrace with the telemetry switch exposed; it
// also returns the world so tests can inspect the collected record.
func telemetryTrace(t *testing.T, lay shardedLayout, seed uint64, tiles, workers int, tel bool) ([]byte, *World) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Radius = lay.radius
	cfg.Tiles = tiles
	cfg.ShardWorkers = workers
	cfg.Telemetry = tel
	w := NewWorld(cfg)
	var buf bytes.Buffer
	w.Bus().SetSink(&buf)

	for _, p := range lay.points {
		id := w.AddNode(p)
		w.SetProtocol(id, &chatter{})
	}
	n := core.NodeID(len(lay.points))
	movers := []core.NodeID{2, 9, 17, 25, 33, n - 3}
	Waypoint{Speed: 0.7, PauseMin: 2_000, PauseMax: 25_000}.Attach(w, movers)
	w.JumpAt(11, graph.Point{X: 0.05, Y: 0.05}, 30_000, 120_000)
	w.JumpAt(n-1, graph.Point{X: 0.9, Y: 0.9}, 25_000, 210_000)
	w.CrashAt(9, 150_000)
	w.CrashAt(11, 260_000)

	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	if err := w.RunUntil(500_000, 2_000_000); err != nil {
		t.Fatal(err)
	}
	if err := w.Bus().Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), w
}

// TestTelemetryInvariance pins that telemetry collection is invisible to
// the run: same seed, telemetry on vs off, across tile grids {1, 4} and
// 2 workers — every event stream byte-identical to the 1×1 grid's with
// telemetry off.
func TestTelemetryInvariance(t *testing.T) {
	lay := shardedLayouts(48)[1] // grid: spreads load across tiles
	const seed = 42
	ref, _ := telemetryTrace(t, lay, seed, 1, 0, false)
	for _, tiles := range []int{1, 4} {
		for _, tel := range []bool{false, true} {
			t.Run(fmt.Sprintf("tiles=%d/telemetry=%v", tiles, tel), func(t *testing.T) {
				got, _ := telemetryTrace(t, lay, seed, tiles, 2, tel)
				diffTraces(t, ref, got, fmt.Sprintf("tiles=%d telemetry=%v", tiles, tel))
			})
		}
	}
}

// TestEngineTelemetryRecord sanity-checks the collected record on a
// sharded run: schema tagged, counters populated, per-tile events
// summing near the total, traffic cells consistent with the cross-tile
// aggregate.
func TestEngineTelemetryRecord(t *testing.T) {
	lay := shardedLayouts(48)[1]
	_, w := telemetryTrace(t, lay, 7, 4, 2, true)
	e := w.EngineTelemetry()
	if e == nil {
		t.Fatal("EngineTelemetry() = nil with telemetry on")
	}
	if e.Schema != telemetry.Schema {
		t.Fatalf("schema %q, want %q", e.Schema, telemetry.Schema)
	}
	if e.Tiles != 4 || len(e.PerTile) != 16 {
		t.Fatalf("tiles %d with %d per-tile entries, want 4 and 16", e.Tiles, len(e.PerTile))
	}
	if e.Windows == 0 || e.Events == 0 {
		t.Fatalf("empty counters: windows=%d events=%d", e.Windows, e.Events)
	}
	if e.StealHits == 0 || e.StealAttempts < e.StealHits {
		t.Fatalf("steal counters inconsistent: hits=%d attempts=%d", e.StealHits, e.StealAttempts)
	}
	var tileEvents, trafficMsgs uint64
	for _, ts := range e.PerTile {
		tileEvents += ts.Events
	}
	if tileEvents == 0 || tileEvents > e.Events {
		t.Fatalf("per-tile events %d vs total %d", tileEvents, e.Events)
	}
	for _, l := range e.Traffic {
		if l.From == l.To {
			t.Fatalf("traffic matrix carries a same-tile cell: %+v", l)
		}
		trafficMsgs += l.Msgs
	}
	if trafficMsgs != e.CrossTileMsgs {
		t.Fatalf("traffic cells sum to %d, cross_tile_msgs says %d", trafficMsgs, e.CrossTileMsgs)
	}
	if e.ImbalanceMeanAvg > 0 && e.Imbalance < 1 {
		t.Fatalf("imbalance %f < 1 (max/mean cannot be)", e.Imbalance)
	}

	// Telemetry off → no record, and the accessor is nil-safe.
	_, off := telemetryTrace(t, lay, 7, 4, 2, false)
	if off.EngineTelemetry() != nil {
		t.Fatal("EngineTelemetry() non-nil with telemetry off")
	}
}

// TestEngineTelemetryOneTile pins the 1×1 grid's record: one tile and one
// worker, every event counted once — on the tile or as a serial event on
// the coordinator — and no barrier stall, because every window runs
// direct.
func TestEngineTelemetryOneTile(t *testing.T) {
	lay := shardedLayouts(48)[0]
	_, w := telemetryTrace(t, lay, 3, 1, 0, true)
	e := w.EngineTelemetry()
	if e == nil {
		t.Fatal("EngineTelemetry() = nil with telemetry on")
	}
	if e.Tiles != 1 || e.Workers != 1 || len(e.PerTile) != 1 {
		t.Fatalf("1×1 record wrong shape: %+v", e)
	}
	serial := w.shard.processed
	if e.Events == 0 || e.Events != w.Processed() || e.PerTile[0].Events+serial != e.Events || serial == 0 {
		t.Fatalf("events %d, Processed() %d, tile %d + serial %d", e.Events, w.Processed(), e.PerTile[0].Events, serial)
	}
	if e.BarrierStallNS.Count != 0 || e.DirectWindows == 0 {
		t.Fatalf("1×1 grid stalled at a barrier or ran no direct window: %+v", e)
	}
}
