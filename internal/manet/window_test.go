package manet

// Tests of the sharded engine's window modes (shard.go): a window run in
// place on the coordinator and a window run on workers must be
// indistinguishable in every output, in any mix.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/sim"
	"lme/internal/trace"
)

// windowModes are the forced mode schedules of the differential suite.
// Each entry builds a fresh forceDirect hook for one run.
var windowModes = []struct {
	name string
	hook func() func() bool
}{
	{"direct", func() func() bool { return func() bool { return true } }},
	{"parallel", func() func() bool { return func() bool { return false } }},
	{"flip", func() func() bool {
		direct := false
		return func() bool { direct = !direct; return direct }
	}},
}

// pulser is a miniature diner: hungry → ping every neighbour → eat on the
// first pong → think. Unlike chatter it changes dining state, so runs with
// it cover the state-listener and local-listener paths, and its windows
// hold events of many nodes at equal instants.
type pulser struct {
	env   core.Env
	state core.State
}

type (
	msgPing struct{}
	msgPong struct{}
)

func (p *pulser) Init(env core.Env) { p.env, p.state = env, core.Thinking }
func (p *pulser) OnMessage(from core.NodeID, msg core.Message) {
	switch msg.(type) {
	case msgPing:
		p.env.Send(from, msgPong{})
	case msgPong:
		if p.state == core.Hungry {
			p.set(core.Eating)
		}
	}
}
func (p *pulser) OnLinkUp(peer core.NodeID, iAmMoving bool) { p.env.Send(peer, msgPing{}) }
func (p *pulser) OnLinkDown(core.NodeID)                    {}
func (p *pulser) BecomeHungry() {
	if p.state == core.Thinking {
		p.set(core.Hungry)
		p.env.Broadcast(msgPing{})
	}
}
func (p *pulser) ExitCS() {
	if p.state == core.Eating {
		p.set(core.Thinking)
	}
}
func (p *pulser) State() core.State { return p.state }
func (p *pulser) set(s core.State) {
	p.state = s
	p.env.SetState(s)
}

// pulseDriver is the workload of a pulser world: a local state listener
// that schedules each node's next transition in the node's own context,
// through closures built once so the steady state allocates nothing.
type pulseDriver struct {
	w      *World
	hungry []func()
	exit   []func()
}

func (d *pulseDriver) OnStateChange(id core.NodeID, old, new core.State, at sim.Time) {
	switch new {
	case core.Eating:
		d.w.ScheduleLocal(id, 300, d.exit[id])
	case core.Thinking:
		d.w.ScheduleLocal(id, 200+sim.Time(d.w.NodeRand(id).Int64N(400)), d.hungry[id])
	}
}

// pulserWorld builds a world of pulsers on lay, with a few movers and a
// crash when mobile is set, every node's first hunger scheduled before
// Start (the pre-start pending path). The caller attaches its observers
// and starts it.
func pulserWorld(lay shardedLayout, seed uint64, tiles, workers int, mobile bool) *World {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Radius = lay.radius
	cfg.Tiles = tiles
	cfg.ShardWorkers = workers
	return pulserWorldCfg(lay, cfg, mobile)
}

// pulserWorldCfg is pulserWorld over an explicit configuration.
func pulserWorldCfg(lay shardedLayout, cfg Config, mobile bool) *World {
	w := NewWorld(cfg)
	addPulsers(w, lay)
	if mobile {
		n := core.NodeID(len(lay.points))
		Waypoint{Speed: 0.7, PauseMin: 2_000, PauseMax: 25_000}.Attach(w, []core.NodeID{2, 17, n - 3})
		w.CrashAt(9, 30_000)
	}
	return w
}

// addPulsers adds a pulser at each point of lay to w, with the
// pulseDriver as a local state listener and every node's first hunger
// scheduled.
func addPulsers(w *World, lay shardedLayout) {
	d := &pulseDriver{w: w}
	for _, pt := range lay.points {
		p := &pulser{}
		id := w.AddNode(pt)
		w.SetProtocol(id, p)
		d.hungry = append(d.hungry, p.BecomeHungry)
		d.exit = append(d.exit, p.ExitCS)
	}
	w.AddLocalStateListener(d)
	for id := range lay.points {
		w.ScheduleLocal(core.NodeID(id), sim.Time(100+37*id%500), d.hungry[id])
	}
}

// startForced starts w and installs the mode hook (a no-op on the single
// heap, which has no windows).
func startForced(t *testing.T, w *World, hook func() bool) {
	t.Helper()
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	if w.shard != nil {
		w.shard.forceDirect = hook
	}
}

// pulserTrace runs a pulser world under the given mode hook (nil: the
// engine's own choice) and returns its JSONL event stream.
func pulserTrace(t *testing.T, lay shardedLayout, seed uint64, tiles, workers int, hook func() bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := pulserWorld(lay, seed, tiles, workers, true)
	w.Bus().SetSink(&buf)
	startForced(t, w, hook)
	if err := w.RunUntil(60_000, 5_000_000); err != nil {
		t.Fatal(err)
	}
	if err := w.Bus().Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWindowModeDifferential is the mode oracle: all-direct, all-parallel
// and alternating windows, over tile grids {2,4,8} and worker bounds
// {1,2,4}, produce the 1×1 grid's event stream byte for byte — on the
// mobility/jump/crash scenario of the sharded differential (every layout)
// and on a pulser world, whose windows are dense with state changes (line
// and grid: the clique is one tile, and 47 pings a hunger). Run under -race
// it also checks that a direct window shares nothing with a worker.
func TestWindowModeDifferential(t *testing.T) {
	const seed = 42
	for _, lay := range shardedLayouts(48) {
		pulse := lay.name != "clique"
		chatRef := shardedTrace(t, lay, seed, 1, 0)
		var pulseRef []byte
		if pulse {
			pulseRef = pulserTrace(t, lay, seed, 1, 0, nil)
		}
		for _, tiles := range []int{2, 4, 8} {
			for _, workers := range []int{1, 2, 4} {
				for _, mode := range windowModes {
					name := fmt.Sprintf("%s/tiles=%d/workers=%d/%s", lay.name, tiles, workers, mode.name)
					t.Run(name, func(t *testing.T) {
						got := shardedTraceMode(t, lay, shardedConfig(lay, seed, tiles, workers), mode.hook())
						diffTraces(t, chatRef, got, "chatter "+name)
						if pulse {
							got = pulserTrace(t, lay, seed, tiles, workers, mode.hook())
							diffTraces(t, pulseRef, got, "pulser "+name)
						}
					})
				}
			}
		}
	}
}

// TestWindowStopsAtOwnTick is the regression test of a lookahead wider
// than the mobility tick: with MinDelay 30 ms and TickInterval 20 ms, a
// tick that MoveTo queues from inside a window falls due before that
// window's bound, and must still run before the window's later events.
// Tiles 2 and 4 in both forced window modes must match tiles 1.
func TestWindowStopsAtOwnTick(t *testing.T) {
	lay := shardedLayouts(48)[1]
	run := func(tiles int, hook func() bool) []byte {
		cfg := DefaultConfig()
		cfg.Seed = 7
		cfg.Radius = lay.radius
		cfg.Tiles = tiles
		cfg.ShardWorkers = 2
		cfg.MinDelay, cfg.MaxDelay = 30_000, 40_000
		w := pulserWorldCfg(lay, cfg, false)
		n := core.NodeID(len(lay.points))
		Waypoint{Speed: 3, PauseMin: 2_000, PauseMax: 25_000}.Attach(w, []core.NodeID{2, 17, 30, n - 3})
		var buf bytes.Buffer
		w.Bus().SetSink(&buf)
		startForced(t, w, hook)
		if err := w.RunUntil(800_000, 0); err != nil {
			t.Fatal(err)
		}
		if err := w.Bus().Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := run(1, nil)
	for _, tiles := range []int{2, 4} {
		for _, mode := range windowModes[:2] {
			name := fmt.Sprintf("tiles=%d/%s", tiles, mode.name)
			t.Run(name, func(t *testing.T) {
				diffTraces(t, ref, run(tiles, mode.hook()), name)
			})
		}
	}
}

// TestWindowModeChoice pins what picks the mode: one worker runs every
// window direct; with workers, windows as small as this world's run direct
// too; and a forced-parallel run reports no direct window.
func TestWindowModeChoice(t *testing.T) {
	lay := shardedLayouts(48)[1]
	run := func(workers int, hook func() bool) (directEvents, tileEvents uint64) {
		cfg := DefaultConfig()
		cfg.Radius = lay.radius
		cfg.Tiles = 4
		cfg.ShardWorkers = workers
		cfg.Telemetry = true
		w := NewWorld(cfg)
		for _, pt := range lay.points {
			w.SetProtocol(w.AddNode(pt), &chatter{})
		}
		Waypoint{Speed: 0.7, PauseMin: 2_000, PauseMax: 25_000}.Attach(w, []core.NodeID{2, 9, 17})
		startForced(t, w, hook)
		if err := w.RunUntil(200_000, 2_000_000); err != nil {
			t.Fatal(err)
		}
		e := w.EngineTelemetry()
		if e.DirectWindows > e.Windows {
			t.Fatalf("%d direct windows of %d", e.DirectWindows, e.Windows)
		}
		for _, ts := range e.PerTile {
			tileEvents += ts.Events
		}
		if tileEvents == 0 {
			t.Fatal("no tile events")
		}
		return e.DirectEvents, tileEvents
	}
	if d, n := run(1, nil); d != n {
		t.Fatalf("one worker: %d of %d tile events ran direct", d, n)
	}
	if d, _ := run(4, nil); d == 0 {
		t.Fatal("small windows with 4 workers: none ran direct")
	}
	if d, _ := run(4, func() bool { return false }); d != 0 {
		t.Fatalf("forced parallel: %d events ran direct", d)
	}
}

// orderLog collects, in arrival order, everything the observers of a run
// are told; each orderListener appends its callbacks under its own label.
type orderLog struct{ lines []string }

type orderListener struct {
	log   *orderLog
	label string
}

func (l orderListener) OnStateChange(id core.NodeID, old, new core.State, at sim.Time) {
	l.log.lines = append(l.log.lines, fmt.Sprintf("%s %d %v->%v @%d", l.label, id, old, new, at))
}

// TestDirectWindowListenerOrder pins the order observers are called in
// inside a direct window: for one transition the bus event, then the
// state listeners, then the local listeners — inline — and the whole
// interleaved sequence of a run on a 4×4 grid equal to the 1×1 grid's.
func TestDirectWindowListenerOrder(t *testing.T) {
	lay := shardedLayouts(48)[1]
	run := func(tiles int) []string {
		w := pulserWorld(lay, 7, tiles, 2, true)
		log := &orderLog{}
		w.Bus().Subscribe(func(ev *trace.Event) {
			log.lines = append(log.lines, fmt.Sprintf("bus %d %s->%s @%d", ev.Node, ev.Old, ev.New, ev.At))
		}, trace.KindState)
		w.AddStateListener(orderListener{log, "state"})
		w.AddLocalStateListener(orderListener{log, "local"})
		startForced(t, w, func() bool { return true })
		if err := w.RunUntil(40_000, 1_000_000); err != nil {
			t.Fatal(err)
		}
		return log.lines
	}
	ref, got := run(1), run(4)
	if len(ref) < 300 {
		t.Fatalf("reference run observed only %d callbacks", len(ref))
	}
	if len(got) != len(ref) {
		t.Fatalf("4×4 grid observed %d callbacks, 1×1 grid %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("callback %d: 4×4 grid %q, 1×1 grid %q", i, got[i], ref[i])
		}
	}
	for i := 0; i+2 < len(got); i += 3 {
		if !strings.HasPrefix(got[i], "bus ") || !strings.HasPrefix(got[i+1], "state ") || !strings.HasPrefix(got[i+2], "local ") {
			t.Fatalf("transition at %d not bus→state→local: %q %q %q", i, got[i], got[i+1], got[i+2])
		}
	}
}

// bomb panics on its third message.
type bomb struct {
	chatter
	seen int
}

func (b *bomb) OnMessage(from core.NodeID, msg core.Message) {
	if b.seen++; b.seen == 3 {
		panic("boom")
	}
	b.chatter.OnMessage(from, msg)
}

// TestWindowPanicSurfaces pins that a handler panic reaches the caller of
// RunUntil in the same form from either window mode: a string naming the
// window, the original value and the handler's stack.
func TestWindowPanicSurfaces(t *testing.T) {
	lay := shardedLayouts(48)[1]
	for _, mode := range windowModes[:2] {
		t.Run(mode.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Radius = lay.radius
			cfg.Tiles = 4
			cfg.ShardWorkers = 2
			w := NewWorld(cfg)
			for _, pt := range lay.points {
				w.SetProtocol(w.AddNode(pt), &bomb{})
			}
			Waypoint{Speed: 0.7, PauseMin: 2_000, PauseMax: 25_000}.Attach(w, []core.NodeID{2, 9, 17})
			startForced(t, w, mode.hook())
			defer func() {
				r := recover()
				msg, ok := r.(string)
				if !ok {
					t.Fatalf("recovered %T %v, want the engine's string", r, r)
				}
				for _, want := range []string{"panic in shard window", "boom", "(*bomb).OnMessage"} {
					if !strings.Contains(msg, want) {
						t.Fatalf("panic message lacks %q:\n%s", want, msg)
					}
				}
			}()
			err := w.RunUntil(500_000, 2_000_000)
			t.Fatalf("RunUntil returned (%v) past a panicking handler", err)
		})
	}
}

// TestDirectWindowAllocs gates the direct path's steady state: once heaps,
// pools and the cursor scratch have grown to size, running windows
// allocates nothing.
func TestDirectWindowAllocs(t *testing.T) {
	w := pulserWorld(shardedLayouts(48)[1], 1, 4, 2, false)
	var transitions int
	w.AddStateListener(core.ListenerFunc(func(core.NodeID, core.State, core.State, sim.Time) { transitions++ }))
	startForced(t, w, func() bool { return true })
	if err := w.RunUntil(200_000, 0); err != nil {
		t.Fatal(err)
	}
	before := transitions
	allocs := testing.AllocsPerRun(200, func() {
		if err := w.RunUntil(w.Now()+1_000, 0); err != nil {
			t.Fatal(err)
		}
	})
	if transitions-before < 200 {
		t.Fatalf("only %d transitions in the measured windows: the world went idle", transitions-before)
	}
	if allocs != 0 {
		t.Fatalf("a steady-state direct window allocates %.1f times", allocs)
	}
}

// countSink is a stub that only counts what it receives, so receiving
// allocates nothing.
type countSink struct {
	stub
	got int
}

func (c *countSink) OnMessage(core.NodeID, core.Message) { c.got++ }

// TestParallelWindowAllocsPerMessage is the parallel-window twin of
// TestDirectWindowAllocs, over one-way cross-tile traffic: k senders on
// the left tiles pulse once per lookahead, each sending one message to
// its sink on the right tiles, which never answer. Every message crosses
// a tile boundary through a sender's outbox and is delivered on another
// worker. A steady-state window costs the same allocations at k = 2 and
// k = 16 — a delivered message costs none. (Records pooled per tile would
// be taken from the sender's tile and given back to the sink's, so
// one-way traffic would allocate on every send.)
func TestParallelWindowAllocsPerMessage(t *testing.T) {
	const pulse = 1_000
	perWindow := func(k int) (allocs float64, delivered int) {
		cfg := DefaultConfig()
		cfg.Radius = 0.12
		cfg.MinDelay, cfg.MaxDelay = pulse, pulse
		cfg.Tiles, cfg.ShardWorkers = 2, 2
		w := NewWorld(cfg)
		sinks := make([]*countSink, k)
		for i := range k {
			y := 0.05 + 0.9*float64(i)/float64(k-1)
			from := w.AddNode(graph.Point{X: 0.45, Y: y})
			to := w.AddNode(graph.Point{X: 0.55, Y: y})
			w.SetProtocol(from, &stub{})
			sinks[i] = &countSink{}
			w.SetProtocol(to, sinks[i])
			var fire func()
			fire = func() {
				w.send(from, to, msgPing{})
				w.ScheduleLocal(from, pulse, fire)
			}
			w.ScheduleLocal(from, 0, fire)
		}
		startForced(t, w, func() bool { return false })
		if err := w.RunUntil(50*pulse, 0); err != nil {
			t.Fatal(err)
		}
		before := 0
		for _, s := range sinks {
			before += s.got
		}
		const runs = 200
		allocs = testing.AllocsPerRun(runs, func() {
			if err := w.RunUntil(w.Now()+pulse, 0); err != nil {
				t.Fatal(err)
			}
		})
		for _, s := range sinks {
			delivered += s.got
		}
		if want := k * (runs + 1); delivered-before != want {
			t.Fatalf("k=%d: %d messages delivered in the measured windows, want %d", k, delivered-before, want)
		}
		return allocs, delivered
	}
	lo, _ := perWindow(2)
	hi, _ := perWindow(16)
	if perMsg := (hi - lo) / 14; perMsg != 0 {
		t.Fatalf("a delivered cross-tile message allocates %.2f times (window: %.0f allocs at 2 senders, %.0f at 16)", perMsg, lo, hi)
	}
}

// TestTileFillsCacheLines keeps tile a whole number of cache lines: the
// allocator aligns such a size class to lines, so the hot fields of two
// tiles (heap header, counters, pools) never share one, and two workers
// never write the same line.
func TestTileFillsCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(tile{}); size%64 != 0 {
		t.Fatalf("tile is %d bytes, not a multiple of a 64-byte cache line: neighbouring tiles would share lines", size)
	}
}
