package manet

// The tile engine, the world's one execution engine: conservative
// parallel discrete-event simulation over a grid of spatial tiles.
//
// The bounding box of the initial node positions is split into a g×g grid
// of tiles (g = Config.Tiles, at least 1), each owning the nodes inside it
// and a private queue of their pending events, a sim.Wheel: message
// delays are bounded, so a calendar queue indexed by time pops them in
// canonical key order without sifting a heap. Execution
// alternates between windows and serial barriers:
//
//   - Window: every tile whose earliest event precedes the window bound
//     runs its events below the bound. The bound is KeyFloor(W + L) where
//     W is the globally earliest pending instant and the lookahead L is
//     min(Config.MinDelay, TickInterval): inside a window, the only way
//     one node affects another is a message, which arrives no earlier
//     than MinDelay after it was sent, hence at or after the bound — so
//     no tile can receive an event it should already have executed (the
//     classic conservative lookahead argument) — and a movement tick a
//     window queues is due a tick later, also at or after the bound.
//     Everything a tile touches in a window is owned by its own nodes;
//     the topology is frozen.
//
//   - Barrier: at most one serial event runs on the coordinator: a
//     topology event — a movement tick or jump, which mutates two nodes'
//     link state and the spatial index at once — or an ownerless script
//     closure queued by World.At. Windows never extend past the earliest
//     pending serial event, so serial events interleave with node events
//     in exact canonical order.
//
// A 1×1 grid has no other tile whose cursor could go stale, so it needs
// no lookahead: its window runs to the earliest serial event or to the
// deadline, always direct — the plain single-queue loop over one tile
// queue. A serial event queued from inside a direct window (a tick from
// MoveTo, a script's World.At) that falls below the window's bound lowers
// the bound at push time, so the window stops short of it.
//
// A window runs in one of two modes, chosen per window from the smoothed
// events-per-window estimate (see runTiles):
//
//   - Parallel: the active tiles run on worker goroutines. Observable
//     effects (bus events, deferred listener callbacks) are buffered per
//     tile, cross-tile deliveries and topology requests go to outboxes,
//     and the barrier routes the outboxes and replays the effects of all
//     tiles merged in canonical key order.
//
//   - Direct: the coordinator runs the window itself, popping the
//     globally smallest key across the active tile queues one event at a
//     time. Every event executes in coordinator context — effects publish
//     inline, deliveries push straight into the receiver's tile queue — so
//     there is nothing to buffer, merge or replay, and no goroutine to
//     start. A window too small to repay a fork/join and an effect replay
//     runs this way.
//
// Determinism: every event executes in the canonical sim.Key order — the
// window bound arithmetic only decides how events are grouped into
// windows and the mode only where they run, never their relative order,
// and all randomness is drawn from per-node streams. A run's event
// sequence (and hence its trace) is bit-identical for every tile-grid
// size, every worker count and every mix of window modes. The
// differential tests in sharded_test.go and window_test.go, with the 1×1
// grid as the reference, and TestGoldenTraceHash pin this.

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/metrics"
	"lme/internal/sim"
	"lme/internal/telemetry"
	"lme/internal/trace"
)

// effKind discriminates the buffered effect variants.
type effKind uint8

const (
	effBus   effKind = iota // a bus event to publish
	effState                // a deferred state-listener callback
	effMove                 // a deferred move-listener callback
)

// effect is one observable occurrence buffered during a parallel window:
// a bus publication or a deferred listener callback, stamped with the
// canonical key of the event that produced it, so the barrier can replay
// all tiles' effects as one stream in exactly the order a direct window
// would have produced them. One event's effects sit next to each
// other in its tile's buffer, in emission order.
type effect struct {
	key  sim.Key
	kind effKind

	ev         trace.Event // effBus
	id         core.NodeID // effState, effMove
	oldS, newS core.State  // effState
	flag       bool        // effMove: moving
	at         sim.Time    // effState, effMove
}

// tile is one spatial shard: a region of the plane, the event queue of
// the nodes inside it, and the window-scratch state of its worker. All
// fields are touched only by the tile's worker during a parallel window
// and only by the coordinator otherwise.
//
// The struct is a whole number of cache lines (21: the wheel's 1 KB of
// bucket heads is most of it), and the allocator places objects of its
// size class (1 408 bytes, 22 lines) on line boundaries, so two workers
// never write one line from neighbouring tiles. A size off the 64-byte
// grid loses that; three lines that missed it by eight bytes cost
// sim_static_10k about 5 % (TestTileFillsCacheLines). The trailing pad
// keeps it on the grid.
type tile struct {
	idx   int32
	queue sim.Wheel

	// now is the tile-local clock of a parallel window: the instant of
	// the event being (or last) executed on this tile.
	now sim.Time

	// curKey stamps buffered effects: the canonical key of the currently
	// executing event.
	curKey sim.Key

	processed               uint64
	msgsSent, msgsDelivered uint64

	// effs buffers a parallel window's observable effects; outMsgs its
	// cross-tile deliveries (routed at the barrier); outTopo its
	// topology-event requests (pushed to the coordinator's serial heap at
	// the barrier).
	effs    []effect
	outMsgs []sim.Item
	outTopo []sim.Item

	_ [32]byte
}

// buffer records one observable effect of the currently executing event.
func (t *tile) buffer(e effect) {
	e.key = t.curKey
	t.effs = append(t.effs, e)
}

// run executes the tile's events strictly below bound, in worker context.
func (t *tile) run(w *World, bound sim.Key) {
	for {
		k, ok := t.queue.MinKey()
		if !ok || !k.Less(bound) {
			return
		}
		it := t.queue.Pop()
		t.now = k.At
		t.curKey = k
		w.exec(&it)
		t.processed++
	}
}

// shardExec is the tile engine: the tile set, the coordinator's serial
// heap, and the window/barrier loop state.
type shardExec struct {
	w     *World
	g     int // tiles per side
	tiles []*tile

	// workers bounds the goroutines a window may use.
	workers int

	// serial is the coordinator's heap of serial events: ClassTopo
	// events, owned by a node (movement ticks, jumps) or ownerless
	// (World.At scripts). A heap, not a wheel: movement ticks fall due
	// a TickInterval (20 ms) ahead, past a wheel's horizon.
	serial sim.EventHeap

	// bound is the running window's exclusive upper key. A serial event
	// queued below it from coordinator context lowers it (pushSerial),
	// which a direct window reads after every event.
	bound sim.Key

	// now is the coordinator clock: the latest instant any event has
	// executed at.
	now sim.Time

	// inWindow is true while tile workers run a parallel window; it
	// routes World methods called from tile context to tile-local
	// resources. Written only at window edges on the coordinator (the
	// workers' start/join form the happens-before edges). A direct window
	// leaves it false: its events run in coordinator context.
	inWindow bool

	// evEst is the smoothed events-per-window estimate that picks the
	// next window's mode (see runTiles).
	evEst float64

	// forceDirect, when non-nil, overrides the mode choice of every
	// window. Tests only: the mode-differential suite drives all-direct,
	// all-parallel and alternating runs through it.
	forceDirect func() bool

	// processed counts coordinator-executed (serial) events; tiles count
	// their own.
	processed uint64

	// lookahead is the conservative window width of a grid of more than
	// one tile: min(Config.MinDelay, TickInterval), the minimum time for
	// any cross-node influence and for a movement tick a window queues.
	lookahead sim.Time

	// Tile-grid geometry: tileIdx(p) maps a position to a tile.
	minX, minY, invW, invH float64

	// Reusable window scratch: the tiles with work in the current window,
	// the cursor heap (a direct window's tile merge, a parallel window's
	// effect merge) and the migration buffer.
	active  []*tile
	cursors []cursor
	migBuf  []sim.Item

	// tel accumulates execution telemetry when Config.Telemetry is set;
	// nil on the dark path, where the only residue is nil checks and
	// worker-local integer increments — no allocation, no time calls, no
	// change to how events are grouped or ordered.
	tel *shardTelemetry
}

// shardTelemetry is the engine's telemetry accumulator. All cumulative
// fields are owned by the coordinator and folded at window barriers; the
// w-prefixed slices are window scratch written by workers (one slot per
// worker — disjoint, and the WaitGroup join orders them before the
// coordinator's fold). Out-of-band by construction: nothing here feeds
// back into window bounds, event order or randomness.
type shardTelemetry struct {
	windows       uint64
	stealAttempts uint64
	stealHits     uint64
	crossMsgs     uint64

	// directWindows/directEvents count the windows the coordinator ran in
	// place and the events in them.
	directWindows, directEvents uint64

	// sumMax/sumMean accumulate each window's max and mean
	// events-per-active-tile; their quotient is the imbalance summary.
	sumMax, sumMean float64

	windowSpan   *metrics.Sketch // virtual window width, µs
	barrierStall *metrics.Sketch // per-worker stall at the join, ns

	// traffic is the sparse tile→tile delivery matrix, keyed
	// from<<32|to; lastProc remembers each tile's event count at the
	// previous barrier so per-window deltas need no extra work in the
	// tile hot loop.
	traffic  map[uint64]uint64
	lastProc []uint64

	wAttempts []uint64
	wHits     []uint64
	wFinish   []time.Time
}

func newShardTelemetry(tiles, workers int) *shardTelemetry {
	return &shardTelemetry{
		windowSpan:   metrics.NewSketch(),
		barrierStall: metrics.NewSketch(),
		traffic:      make(map[uint64]uint64),
		lastProc:     make([]uint64, tiles),
		wAttempts:    make([]uint64, workers),
		wHits:        make([]uint64, workers),
		wFinish:      make([]time.Time, workers),
	}
}

// workerDone records one worker's window tally: its draws on the shared
// work queue and the instant it ran out of tiles. Worker context; slot
// wi is exclusively this worker's.
func (tel *shardTelemetry) workerDone(wi int, attempts, hits uint64) {
	tel.wAttempts[wi] = attempts
	tel.wHits[wi] = hits
	tel.wFinish[wi] = time.Now()
}

// foldWorkers folds the window's worker slots after the join: draw
// counters into the steal totals, and each worker's gap to the last
// finisher into the barrier-stall sketch. Coordinator context.
func (tel *shardTelemetry) foldWorkers(nw int) {
	last := tel.wFinish[0]
	for _, ts := range tel.wFinish[1:nw] {
		if ts.After(last) {
			last = ts
		}
	}
	for wi := 0; wi < nw; wi++ {
		tel.stealAttempts += tel.wAttempts[wi]
		tel.stealHits += tel.wHits[wi]
		tel.barrierStall.ObserveFloat(float64(last.Sub(tel.wFinish[wi])))
	}
}

// crossTile counts one delivery sent from one tile to another.
func (tel *shardTelemetry) crossTile(from, to int32) {
	tel.crossMsgs++
	tel.traffic[uint64(uint32(from))<<32|uint64(uint32(to))]++
}

// foldWindow accumulates one window's shape: its virtual width and the
// max/mean events per active tile. Coordinator context, called between
// runTiles and the next window.
func (sx *shardExec) foldWindow(wstartAt, boundAt sim.Time) {
	tel := sx.tel
	tel.windows++
	tel.windowSpan.ObserveFloat(float64(boundAt - wstartAt))
	if len(sx.active) == 0 {
		return
	}
	var maxEv, sumEv uint64
	for _, t := range sx.active {
		d := t.processed - tel.lastProc[t.idx]
		tel.lastProc[t.idx] = t.processed
		if d > maxEv {
			maxEv = d
		}
		sumEv += d
	}
	tel.sumMax += float64(maxEv)
	tel.sumMean += float64(sumEv) / float64(len(sx.active))
}

// telemetrySnapshot assembles the engine's lme/telemetry/v1 record.
// Coordinator context only (between RunUntil slices, or after the run):
// it reads tile counters the workers own during windows.
func (sx *shardExec) telemetrySnapshot() *telemetry.EngineStats {
	tel := sx.tel
	if tel == nil {
		return nil
	}
	es := &telemetry.EngineStats{
		Schema:         telemetry.Schema,
		Tiles:          sx.g,
		Workers:        sx.workers, // 1 on a 1×1 grid
		Windows:        tel.windows,
		Events:         sx.totalProcessed(),
		StealAttempts:  tel.stealAttempts,
		StealHits:      tel.stealHits,
		DirectWindows:  tel.directWindows,
		DirectEvents:   tel.directEvents,
		CrossTileMsgs:  tel.crossMsgs,
		WindowSpanUS:   tel.windowSpan.Snapshot(),
		BarrierStallNS: tel.barrierStall.Snapshot(),
	}
	if tel.windows > 0 {
		es.ImbalanceMaxAvg = tel.sumMax / float64(tel.windows)
		es.ImbalanceMeanAvg = tel.sumMean / float64(tel.windows)
		if es.ImbalanceMeanAvg > 0 {
			es.Imbalance = es.ImbalanceMaxAvg / es.ImbalanceMeanAvg
		}
	}
	es.PerTile = make([]telemetry.TileStats, len(sx.tiles))
	for i, t := range sx.tiles {
		es.PerTile[i] = telemetry.TileStats{
			Tile: t.idx, Events: t.processed,
			MsgsSent: t.msgsSent, MsgsDelivered: t.msgsDelivered,
		}
	}
	if len(tel.traffic) > 0 {
		keys := make([]uint64, 0, len(tel.traffic))
		for k := range tel.traffic {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		es.Traffic = make([]telemetry.TileLink, len(keys))
		for i, k := range keys {
			es.Traffic[i] = telemetry.TileLink{
				From: int32(k >> 32), To: int32(uint32(k)), Msgs: tel.traffic[k],
			}
		}
	}
	return es
}

// initShard builds the tile grid over the initial node positions and
// starts the engine. Called from Start after the initial topology is
// computed and before protocols initialise, so Init's sends route into
// tile queues.
func (w *World) initShard() {
	g := w.cfg.Tiles
	sx := &shardExec{
		w:         w,
		g:         g,
		workers:   w.cfg.ShardWorkers,
		lookahead: max(min(w.cfg.MinDelay, w.cfg.TickInterval), 1),
	}
	if g == 1 {
		sx.workers = 1
	} else if sx.workers <= 0 {
		sx.workers = runtime.GOMAXPROCS(0)
	}
	if w.cfg.Telemetry {
		sx.tel = newShardTelemetry(g*g, max(sx.workers, 1))
	}
	// The tile grid covers the bounding box of the initial positions
	// (layouts like LinePoints extend beyond the unit square). Geometry
	// only shapes load balance, never results: a mover leaving the box
	// is clamped to the border tiles.
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, n := range w.nodes {
		minX, maxX = math.Min(minX, n.pos.X), math.Max(maxX, n.pos.X)
		minY, maxY = math.Min(minY, n.pos.Y), math.Max(maxY, n.pos.Y)
	}
	width, height := maxX-minX, maxY-minY
	if !(width > 0) {
		width = 1
	}
	if !(height > 0) {
		height = 1
	}
	sx.minX, sx.minY = minX, minY
	sx.invW = float64(g) / width
	sx.invH = float64(g) / height
	sx.tiles = make([]*tile, g*g)
	for i := range sx.tiles {
		sx.tiles[i] = &tile{idx: int32(i)}
	}
	for _, n := range w.nodes {
		n.tile = sx.tileIdx(n.pos)
	}
	w.shard = sx
	for _, it := range w.pending {
		if it.K.Class == sim.ClassTopo {
			sx.serial.Push(it)
		} else {
			sx.tiles[w.nodes[it.K.Owner].tile].queue.Push(it)
		}
	}
	w.pending = nil
}

// tileIdx maps a position to its owning tile, clamped to the grid.
func (sx *shardExec) tileIdx(p graph.Point) int32 {
	x := int((p.X - sx.minX) * sx.invW)
	if x < 0 {
		x = 0
	} else if x >= sx.g {
		x = sx.g - 1
	}
	y := int((p.Y - sx.minY) * sx.invH)
	if y < 0 {
		y = 0
	} else if y >= sx.g {
		y = sx.g - 1
	}
	return int32(y*sx.g + x)
}

// migrate re-homes n after a relocation: if its position now falls in a
// different tile, its pending events follow it. Coordinator context only
// (relocations happen inside topology events); all outboxes are empty at
// that point, so every pending event owned by n sits in its old tile's
// queue.
func (sx *shardExec) migrate(n *node) {
	dst := sx.tileIdx(n.pos)
	if dst == n.tile {
		return
	}
	old := sx.tiles[n.tile]
	sx.migBuf = old.queue.ExtractOwner(int32(n.id), sx.migBuf[:0])
	to := sx.tiles[dst]
	for _, it := range sx.migBuf {
		to.queue.Push(it)
	}
	clear(sx.migBuf)
	n.tile = dst
}

// totalProcessed sums executed events across the coordinator and tiles.
func (sx *shardExec) totalProcessed() uint64 {
	total := sx.processed
	for _, t := range sx.tiles {
		total += t.processed
	}
	return total
}

// pushSerial queues a serial event from coordinator context. One queued
// below the running window's bound lowers the bound, so a direct window
// stops short of it; between windows the bound is stale and lowering it
// is harmless.
func (sx *shardExec) pushSerial(it sim.Item) {
	sx.serial.Push(it)
	if it.K.Less(sx.bound) {
		sx.bound = it.K
	}
}

// runUntil is the engine's window/barrier loop behind World.RunUntil.
// maxEvents is checked after every event of a direct window and at the
// barrier of a parallel one, so a call may overshoot the budget by up to
// one parallel window before reporting sim.ErrEventLimit.
func (sx *shardExec) runUntil(deadline sim.Time, maxEvents uint64) error {
	var done uint64 // events executed by this call
	for {
		// W: the globally earliest pending instant.
		wstart, ok := sx.earliest()
		if !ok || wstart.At > deadline {
			break
		}
		// The window runs events strictly below min(W+L, deadline+1) —
		// a 1×1 grid below deadline+1 — and never past the earliest
		// serial event, which runs at the barrier if it falls inside the
		// window.
		tb := sim.Infinity
		if len(sx.tiles) > 1 {
			tb = wstart.At + sx.lookahead
		}
		if deadline != sim.Infinity && tb > deadline+1 {
			tb = deadline + 1
		}
		limit := sim.KeyFloor(tb)
		sx.bound = limit
		if k, ok := sx.serial.MinKey(); ok && k.Less(limit) {
			sx.bound = k
		}
		var budget uint64
		if maxEvents > 0 {
			budget = maxEvents - done
		}
		done += sx.runTiles(budget)
		if sx.tel != nil {
			end := sx.bound.At
			if end == sim.Infinity {
				end = sx.now + 1 // an open-ended 1×1 window: up to its last event
			}
			sx.foldWindow(wstart.At, end)
		}
		if k, ok := sx.serial.MinKey(); ok && k.Less(limit) && (maxEvents == 0 || done < maxEvents) {
			it := sx.serial.Pop()
			sx.now = it.K.At
			sx.w.exec(&it)
			sx.processed++
			done++
		}
		if maxEvents > 0 && done >= maxEvents {
			return fmt.Errorf("%w (%d events by t=%v)", sim.ErrEventLimit, done, sx.now)
		}
	}
	if deadline != sim.Infinity && sx.now < deadline {
		sx.now = deadline
	}
	return nil
}

// earliest returns the smallest pending key across all tiles and the
// serial heap.
func (sx *shardExec) earliest() (sim.Key, bool) {
	var best sim.Key
	have := false
	for _, t := range sx.tiles {
		if k, ok := t.queue.MinKey(); ok && (!have || k.Less(best)) {
			best, have = k, true
		}
	}
	if k, ok := sx.serial.MinKey(); ok && (!have || k.Less(best)) {
		best, have = k, true
	}
	return best, have
}

// directBelow is the window-mode threshold: a window expected to hold
// fewer events than this runs direct. What a parallel window pays beyond
// the events themselves — starting and joining the workers, buffering
// every effect in a 216-byte record and replaying the merged records at
// the barrier — is bought back by the second core only above some window
// size, and that size depends on how much each event leaves to replay:
// forcing both modes over static worlds of 40 to 6 000 events per window
// (BenchmarkWindowModes; the PR 16 entry of BENCH_e2e.json has the table)
// puts the crossover near 320 events in a world with no ring or spans and
// near 1 200 in one with a ring, a span fold and (when that was measured)
// a per-message registry, which the harness no longer attaches. 600 is
// their geometric middle: between the two crossovers either choice costs
// at most a sixth, outside them the choice is right. Of the benchmark's
// worlds sim_mobile_2k (ring and span fold, 177 events per window) sits
// far below it and sim_static_10k (neither, 2 915) far above.
const directBelow = 600

// runTiles executes one window and reports how many events it ran: every
// tile with work below sx.bound runs it, either on up to sx.workers
// goroutines (runParallel) or in place on the coordinator (runDirect,
// which stops after budget events when budget is not 0). The mode is picked from what the engine has seen, never from
// configuration: a window goes direct when it has one active tile or one
// worker — nothing to run side by side — or when evEst,
// an exponential moving average (weight 1/8) of the events in the
// non-empty windows so far, is below directBelow. The average rather than
// the last window, because RunUntil deadlines cut the odd short window out
// of a run of long ones and one of those must not send the next long
// window direct. Both modes execute the same events in the same canonical
// order, so the choice is invisible in every output. A 1×1 grid's window
// is not bounded by the lookahead, so it always runs direct.
func (sx *shardExec) runTiles(budget uint64) uint64 {
	bound := sx.bound
	active := sx.active[:0]
	var before uint64
	for _, t := range sx.tiles {
		if k, ok := t.queue.MinKey(); ok && k.Less(bound) {
			before += t.processed
			active = append(active, t)
		}
	}
	sx.active = active
	if len(active) == 0 {
		return 0
	}
	direct := sx.workers <= 1 || len(active) == 1 || sx.evEst < directBelow
	if sx.forceDirect != nil && sx.g > 1 {
		direct = sx.forceDirect()
	}
	if direct {
		sx.runDirect(budget)
	} else {
		sx.runParallel(bound)
	}
	var after uint64
	for _, t := range active {
		after += t.processed
	}
	events := after - before
	sx.evEst += (float64(events) - sx.evEst) / 8
	if tel := sx.tel; tel != nil && direct {
		// Every draw hits, nobody stalls.
		tel.stealAttempts += uint64(len(active))
		tel.stealHits += uint64(len(active))
		tel.directWindows++
		tel.directEvents += events
	}
	return events
}

// windowPanic re-raises a panic caught in a window on the caller of
// RunUntil, in one form for both modes: the value and the stack of the
// goroutine that ran the handler.
func windowPanic(r any, stack []byte) {
	panic(fmt.Sprintf("manet: event handler panic in shard window: %v\n%s", r, stack))
}

// cursor is one tile's entry in a k-way merge by canonical key: a direct
// window merges the active tiles' event queues (key = the queue's minimum),
// a parallel window's barrier merges their effect buffers (key = that of
// effs[i]). The key is a copy, so ordering two cursors never follows the
// tile pointer. Keys of different cursors differ: a key names one event,
// and an event is queued, and runs, on one tile.
type cursor struct {
	key sim.Key
	t   *tile
	i   int
}

// siftCursor restores the min-heap property of h below position i.
func siftCursor(h []cursor, i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(h) && h[l].key.Less(h[m].key) {
			m = l
		}
		if r := 2*i + 2; r < len(h) && h[r].key.Less(h[m].key) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// heapifyCursors orders h as a min-heap.
func heapifyCursors(h []cursor) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftCursor(h, i)
	}
}

// runDirect executes one window on the coordinator: it pops the smallest
// key across the active tiles' queues through a binary heap of cursors and
// runs the event with inWindow false — emit publishes, listeners fire and
// deliveries land in their receiver's tile queue on the spot. What an event
// schedules for its own node (or, on a 1×1 grid, for any node) may fall
// inside the window and is picked up when its tile's cursor is refreshed;
// what it sends to another tile arrives at or beyond the bound (the
// lookahead argument), so no other cursor goes stale. The bound is re-read
// after every event, because a serial event the event queued may have
// lowered it (pushSerial); the window also ends after budget events when
// budget is not 0.
func (sx *shardExec) runDirect(budget uint64) {
	defer func() {
		if r := recover(); r != nil {
			windowPanic(r, debug.Stack())
		}
	}()
	h := sx.cursors[:0]
	for _, t := range sx.active {
		k, _ := t.queue.MinKey()
		h = append(h, cursor{key: k, t: t})
	}
	heapifyCursors(h)
	for ran := uint64(0); len(h) > 0 && h[0].key.Less(sx.bound); {
		t := h[0].t
		it := t.queue.Pop()
		sx.now = it.K.At
		sx.w.exec(&it)
		t.processed++
		if ran++; ran == budget {
			break
		}
		if k, ok := t.queue.MinKey(); ok && k.Less(sx.bound) {
			h[0].key = k
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftCursor(h, 0)
	}
	sx.cursors = h[:0]
}

// runParallel executes one window on min(workers, active tiles)
// goroutines drawing tiles from a shared queue, then does the barrier
// work such a window leaves behind: routing the outboxes and replaying the
// buffered effects.
func (sx *shardExec) runParallel(bound sim.Key) {
	active := sx.active
	tel := sx.tel
	nw := min(sx.workers, len(active))
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicVal any
	var panicStack []byte
	sx.inWindow = true
	for wi := range nw {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() {
						panicVal = r
						panicStack = debug.Stack()
					})
				}
			}()
			var attempts, hits uint64
			for {
				i := next.Add(1) - 1
				attempts++
				if int(i) >= len(active) {
					break
				}
				hits++
				active[i].run(sx.w, bound)
			}
			if tel != nil {
				tel.workerDone(wi, attempts, hits)
			}
		}()
	}
	wg.Wait()
	sx.inWindow = false
	if panicVal != nil {
		windowPanic(panicVal, panicStack)
	}
	if tel != nil {
		tel.foldWorkers(nw)
	}
	for _, t := range active {
		if t.now > sx.now {
			sx.now = t.now
		}
	}
	sx.drainOutboxes()
	sx.dispatchEffects()
}

// drainOutboxes routes a parallel window's cross-tile deliveries to their
// receivers' tiles and its topology requests to the serial heap.
// Every routed delivery's instant is at or beyond the window bound, so no
// tile has executed past it.
func (sx *shardExec) drainOutboxes() {
	w := sx.w
	tel := sx.tel
	for _, t := range sx.active {
		for i, it := range t.outMsgs {
			dst := w.nodes[it.K.Owner].tile
			if tel != nil {
				tel.crossTile(t.idx, dst)
			}
			sx.tiles[dst].queue.Push(it)
			t.outMsgs[i] = sim.Item{}
		}
		t.outMsgs = t.outMsgs[:0]
		for i, it := range t.outTopo {
			sx.serial.Push(it)
			t.outTopo[i] = sim.Item{}
		}
		t.outTopo = t.outTopo[:0]
	}
}

// dispatchEffects replays a parallel window's buffered effects from all
// active tiles — bus publications and deferred listener callbacks — in
// canonical key order, an event's effects in emission order: exactly the
// stream a direct window would have produced inline. Each tile
// buffered its effects in that order already (it executes its events in
// key order and appends as they emit), so the replay is a k-way merge over
// the tiles' heads through the cursor heap; the effect records, two
// hundred bytes each, are read in place and never copied or swapped.
func (sx *shardExec) dispatchEffects() {
	h := sx.cursors[:0]
	for _, t := range sx.active {
		if len(t.effs) > 0 {
			h = append(h, cursor{key: t.effs[0].key, t: t})
		}
	}
	heapifyCursors(h)
	for len(h) > 0 {
		c := &h[0]
		sx.replay(&c.t.effs[c.i])
		if c.i++; c.i < len(c.t.effs) {
			c.key = c.t.effs[c.i].key
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftCursor(h, 0)
	}
	for _, t := range sx.active {
		clear(t.effs)
		t.effs = t.effs[:0]
	}
	sx.cursors = h[:0]
}

// replay dispatches one buffered effect on the coordinator.
func (sx *shardExec) replay(e *effect) {
	w := sx.w
	switch e.kind {
	case effBus:
		w.bus.Publish(&e.ev)
	case effState:
		for _, l := range w.stateListeners {
			l.OnStateChange(e.id, e.oldS, e.newS, e.at)
		}
	case effMove:
		for _, l := range w.moveListeners {
			l.OnMove(e.id, e.flag, e.at)
		}
	}
}
