package manet

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/sim"
)

// shardedLayout is one topology family of the differential matrix. The
// three shapes stress different tile geometries: line spans many tiles in
// one row (most boundary crossings per trip), grid spreads load evenly,
// and clique packs every node into one tile (degenerate sharding — all
// parallelism lost, correctness must survive).
type shardedLayout struct {
	name   string
	points []graph.Point
	radius float64
}

func shardedLayouts(n int) []shardedLayout {
	line := make([]graph.Point, n)
	for i := range line {
		line[i] = graph.Point{X: float64(i) * 0.1}
	}
	cols := 8
	grid := make([]graph.Point, 0, n)
	for i := 0; i < n; i++ {
		grid = append(grid, graph.Point{
			X: float64(i%cols) * 0.13,
			Y: float64(i/cols) * 0.13,
		})
	}
	clique := make([]graph.Point, n)
	for i := range clique {
		clique[i] = graph.Point{X: float64(i) * 0.001, Y: float64(i%7) * 0.001}
	}
	return []shardedLayout{
		{"line", line, 0.11},
		{"grid", grid, 0.14},
		{"clique", clique, 0.2},
	}
}

// shardedTrace runs the full scenario — waypoint movers crossing tile
// boundaries, scripted jumps, crashes with messages in flight, all
// scheduled before Start to also cover the pre-start pending path — and
// returns the complete JSONL event stream. tiles ≤ 1 selects the 1×1
// grid (the reference); larger values a g×g grid with the given worker
// bound.
func shardedTrace(t *testing.T, lay shardedLayout, seed uint64, tiles, workers int) []byte {
	t.Helper()
	return shardedTraceMode(t, lay, shardedConfig(lay, seed, tiles, workers), nil)
}

// shardedConfig is the configuration of a sharded-differential run.
func shardedConfig(lay shardedLayout, seed uint64, tiles, workers int) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Radius = lay.radius
	cfg.Tiles = tiles
	cfg.ShardWorkers = workers
	return cfg
}

// shardedTraceMode is shardedTrace over an explicit configuration, with
// the engine's window mode forced by hook (nil: the engine's own choice;
// a 1×1 grid ignores it).
func shardedTraceMode(t *testing.T, lay shardedLayout, cfg Config, hook func() bool) []byte {
	t.Helper()
	trace, _, err := shardedScenario(lay).run(cfg, hook)
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

// scenario is one scripted world of the tile-equivalence oracles: a
// layout, a protocol, waypoint movers, jump and crash scripts and a
// horizon, all scheduled before Start.
type scenario struct {
	lay shardedLayout
	// pulse selects pulsers driven by their pulseDriver (dining state
	// changes, local listeners); chatters otherwise.
	pulse   bool
	speed   float64 // of the waypoint movers
	movers  []core.NodeID
	jumps   []scriptJump
	crashes []scriptCrash
	horizon sim.Time
	budget  uint64 // event budget of the run
}

type scriptJump struct {
	id         core.NodeID
	to         graph.Point
	settle, at sim.Time
}

type scriptCrash struct {
	id core.NodeID
	at sim.Time
}

// shardedScenario is the world of TestShardedMatchesSingleHeap: chatters,
// six movers, two jumps and two crashes over 500 ms.
func shardedScenario(lay shardedLayout) scenario {
	n := core.NodeID(len(lay.points))
	return scenario{
		lay:     lay,
		speed:   0.7,
		movers:  []core.NodeID{2, 9, 17, 25, 33, n - 3},
		jumps:   []scriptJump{{11, graph.Point{X: 0.05, Y: 0.05}, 30_000, 120_000}, {n - 1, graph.Point{X: 0.9, Y: 0.9}, 25_000, 210_000}},
		crashes: []scriptCrash{{9, 150_000}, {11, 260_000}},
		horizon: 500_000,
		budget:  2_000_000,
	}
}

// run builds the scenario's world under cfg, runs it to the horizon with
// the window mode forced by hook, and returns its JSONL event stream and
// its executed-event count.
func (sc scenario) run(cfg Config, hook func() bool) ([]byte, uint64, error) {
	return sc.runWith(cfg, hook, nil)
}

// runWith is run with observe, if not nil, called on the world before
// Start.
func (sc scenario) runWith(cfg Config, hook func() bool, observe func(*World)) ([]byte, uint64, error) {
	w := NewWorld(cfg)
	var buf bytes.Buffer
	w.Bus().SetSink(&buf)
	if sc.pulse {
		addPulsers(w, sc.lay)
	} else {
		for _, p := range sc.lay.points {
			w.SetProtocol(w.AddNode(p), &chatter{})
		}
	}
	Waypoint{Speed: sc.speed, PauseMin: 2_000, PauseMax: 25_000}.Attach(w, sc.movers)
	for _, j := range sc.jumps {
		w.JumpAt(j.id, j.to, j.settle, j.at)
	}
	for _, c := range sc.crashes {
		w.CrashAt(c.id, c.at)
	}
	if observe != nil {
		observe(w)
	}
	if err := w.Start(); err != nil {
		return nil, 0, err
	}
	w.shard.forceDirect = hook
	if err := w.RunUntil(sc.horizon, sc.budget); err != nil {
		return nil, 0, err
	}
	if err := w.Bus().Flush(); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), w.Processed(), nil
}

// diffTraces fails with the first line of divergence between two streams.
func diffTraces(t *testing.T, ref, got []byte, what string) {
	t.Helper()
	if len(ref) == 0 {
		t.Fatal("reference run produced an empty trace")
	}
	if bytes.Equal(ref, got) {
		return
	}
	line, start := 1, 0
	for i := range ref {
		if i >= len(got) || ref[i] != got[i] {
			refEnd := bytes.IndexByte(ref[start:], '\n')
			gotEnd := bytes.IndexByte(got[start:], '\n')
			refLine, gotLine := "", ""
			if refEnd >= 0 {
				refLine = string(ref[start : start+refEnd])
			}
			if gotEnd >= 0 && start+gotEnd <= len(got) {
				gotLine = string(got[start : start+gotEnd])
			}
			t.Fatalf("%s: traces diverge at line %d (ref %d bytes, got %d bytes)\n ref: %s\n got: %s",
				what, line, len(ref), len(got), refLine, gotLine)
		}
		if ref[i] == '\n' {
			line++
			start = i + 1
		}
	}
	t.Fatalf("%s: sharded trace is a strict prefix of the reference (%d vs %d bytes)",
		what, len(got), len(ref))
}

// TestShardedMatchesSingleHeap is the engine's differential oracle: for
// every layout × seed × tile-grid combination, the full event stream must
// be byte-identical to the 1×1 grid's, the reference (which runs the
// single-queue loop over one tile queue) — same link transitions, message
// fates, mobility and crash handling, in the same canonical order.
func TestShardedMatchesSingleHeap(t *testing.T) {
	for _, lay := range shardedLayouts(48) {
		for _, seed := range []uint64{1, 7, 42, 1337} {
			ref := shardedTrace(t, lay, seed, 1, 0)
			for _, tiles := range []int{2, 4, 7} {
				t.Run(fmt.Sprintf("%s/seed=%d/tiles=%d", lay.name, seed, tiles), func(t *testing.T) {
					got := shardedTrace(t, lay, seed, tiles, 0)
					diffTraces(t, ref, got, fmt.Sprintf("%s seed=%d tiles=%d", lay.name, seed, tiles))
				})
			}
		}
	}
}

// TestShardedWorkerCountInvariance pins the engine's scheduling-freedom
// contract: 1, 2 and GOMAXPROCS workers over the same tiling produce
// byte-identical streams (worker count only changes which goroutine runs
// a tile, never what any tile executes).
func TestShardedWorkerCountInvariance(t *testing.T) {
	lay := shardedLayouts(48)[1] // grid: the layout with real cross-tile traffic
	const seed, tiles = 42, 4
	ref := shardedTrace(t, lay, seed, tiles, 1)
	for _, workers := range []int{2, runtime.GOMAXPROCS(0) + 1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got := shardedTrace(t, lay, seed, tiles, workers)
			diffTraces(t, ref, got, fmt.Sprintf("workers=%d vs 1", workers))
		})
	}
}

// TestShardedRunDrains covers World.Run under the sharded engine: the
// queues drain once the movers retire, Processed counts the work, and
// the event budget trips ErrEventLimit. A static chatter network is
// inert, so finite-lifetime movers supply the churn.
func TestShardedRunDrains(t *testing.T) {
	build := func() *World {
		cfg := DefaultConfig()
		cfg.Tiles = 3
		w := NewWorld(cfg)
		for i := 0; i < 30; i++ {
			id := w.AddNode(graph.Point{X: float64(i%6) * 0.1, Y: float64(i/6) * 0.1})
			w.SetProtocol(id, &chatter{})
		}
		Waypoint{Speed: 0.7, PauseMin: 1_000, PauseMax: 5_000, Until: 200_000}.
			Attach(w, []core.NodeID{3, 14, 27})
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		return w
	}
	w := build()
	if err := w.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	if w.Processed() == 0 {
		t.Fatal("no events executed")
	}
	w2 := build()
	if err := w2.Run(3); err == nil {
		t.Fatal("tiny event budget did not trip")
	}
}

// TestOneTileEventLimit pins the event budget of a 1×1 grid, whose window
// is not bounded by the lookahead: Run(3) stops after exactly three
// events, not at the end of the window.
func TestOneTileEventLimit(t *testing.T) {
	w := pulserWorld(shardedLayouts(48)[1], 1, 1, 0, true)
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(3); !errors.Is(err, sim.ErrEventLimit) {
		t.Fatalf("Run(3) = %v, want ErrEventLimit", err)
	}
	if got := w.Processed(); got != 3 {
		t.Fatalf("Processed() = %d after Run(3), want 3", got)
	}
}

// TestAtPanicsInParallelWindow pins World.At's coordinator-only contract:
// a node event that calls it from a tile worker fails loudly instead of
// racing on the serial heap.
func TestAtPanicsInParallelWindow(t *testing.T) {
	lay := shardedLayouts(48)[1]
	cfg := DefaultConfig()
	cfg.Radius = lay.radius
	cfg.Tiles = 4
	cfg.ShardWorkers = 2
	w := NewWorld(cfg)
	for _, pt := range lay.points {
		w.SetProtocol(w.AddNode(pt), &chatter{})
	}
	w.ScheduleLocal(5, 1_000, func() { w.At(w.Now()+5, func() {}) })
	startForced(t, w, func() bool { return false })
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "World.At called inside a parallel window") {
			t.Fatalf("recovered %q, want the World.At panic", msg)
		}
	}()
	err := w.RunUntil(50_000, 0)
	t.Fatalf("RunUntil returned (%v) past World.At in a parallel window", err)
}

// TestAtInsideDirectWindow pins the lowered bound: a script that a node
// event queues 5 µs ahead, well inside the running direct window, runs
// after the events before its instant and before every node event at or
// after it — on the 1×1 grid, whose window would otherwise run to the
// deadline, and identically on a 4×4 grid.
func TestAtInsideDirectWindow(t *testing.T) {
	lay := shardedLayouts(48)[1]
	run := func(tiles int) []string {
		cfg := DefaultConfig()
		cfg.Radius = lay.radius
		cfg.Tiles = tiles
		cfg.ShardWorkers = 2
		w := NewWorld(cfg)
		for _, pt := range lay.points {
			w.SetProtocol(w.AddNode(pt), &chatter{})
		}
		var log []string
		for id := range lay.points {
			id := core.NodeID(id)
			for _, at := range []sim.Time{1_000, 1_005, 1_010} {
				w.ScheduleLocal(id, at, func() { log = append(log, fmt.Sprintf("node %d @%d", id, w.Now())) })
			}
		}
		w.ScheduleLocal(5, 1_000, func() {
			w.At(w.Now()+5, func() { log = append(log, fmt.Sprintf("script @%d", w.Now())) })
		})
		startForced(t, w, func() bool { return true })
		if err := w.RunUntil(50_000, 0); err != nil {
			t.Fatal(err)
		}
		return log
	}
	ref := run(1)
	if i, want := slices.Index(ref, "script @1005"), len(lay.points); i != want {
		t.Fatalf("script ran at position %d, want %d (after the @1000 events, before the @1005 ones): %v", i, want, ref)
	}
	if got := run(4); !slices.Equal(got, ref) {
		t.Fatalf("4×4 grid ran\n%v\n1×1 grid ran\n%v", got, ref)
	}
}

// TestAutoTiles pins the sizing heuristic's shape: one tile for small
// worlds, monotone growth, and the 64-per-side clamp.
func TestAutoTiles(t *testing.T) {
	if g := AutoTiles(48); g != 1 {
		t.Fatalf("AutoTiles(48) = %d, want 1", g)
	}
	if g := AutoTiles(1_000); g != 4 {
		t.Fatalf("AutoTiles(1000) = %d, want 4", g)
	}
	if g := AutoTiles(10_000); g != 13 {
		t.Fatalf("AutoTiles(10000) = %d, want 13", g)
	}
	if g := AutoTiles(1_000_000_000); g != 64 {
		t.Fatalf("AutoTiles(1e9) = %d, want 64 (clamp)", g)
	}
}
