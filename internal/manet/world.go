// Package manet models the mobile ad hoc network of §3.1 of the paper on
// top of the discrete-event scheduler: nodes with positions on the plane, a
// unit-disk communication graph that changes as nodes move, reliable FIFO
// links with bounded message delay ν, link-level LinkUp/LinkDown
// indications with the paper's static/moving symmetry-breaking bias, crash
// failures, and the dispatch loop that drives each node's Protocol one
// atomic event at a time.
//
// The world has two interchangeable execution engines behind one API.
// The single-heap engine (Config.Tiles ≤ 1) runs every event off one
// sim.Scheduler — the exact legacy behaviour. The region-sharded engine
// (Config.Tiles > 1, see shard.go) partitions the plane into a grid of
// tiles, each with its own value-typed event heap, synchronised by
// conservative lookahead; a window of events runs on worker goroutines,
// or — when it is too small to repay them — in place on the coordinator.
// Both engines execute events in the canonical
// (time, owner, class, a, b) key order and draw every random number from
// per-node streams, so a run's event trace is bit-identical regardless of
// engine, tiling, or worker count (pinned by the sharded differential
// tests and TestGoldenTraceHash).
//
// The transport and link-maintenance layer is allocation-lean and scales
// to 100k+ nodes: adjacency is a per-node sorted ID slice with a parallel
// slice of per-link records (FIFO floor and incarnation stamp; O(degree)
// per node, not O(n)), in-flight messages are pooled sim.Runner records
// instead of per-send closures, and link maintenance queries a uniform
// spatial hash (internal grid, cell size = Radius) instead of scanning all
// n nodes.
package manet

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/metrics"
	"lme/internal/sim"
	"lme/internal/telemetry"
	"lme/internal/trace"
)

// Config carries the physical parameters of the world.
type Config struct {
	// Seed derives every random choice (delays, mobility); runs with the
	// same seed and the same call sequence are identical. Each node owns
	// an independent stream derived from (Seed, id), which is what keeps
	// runs identical across engines and worker counts.
	Seed uint64

	// Radius is the radio range: two nodes are neighbours iff their
	// Euclidean distance is at most Radius.
	Radius float64

	// MinDelay and MaxDelay bound the end-to-end message delay; MaxDelay
	// is the paper's ν. Delays are drawn uniformly per message, then
	// clamped so that each directed link delivers in FIFO order. MinDelay
	// also lower-bounds how soon one node can affect another, which is
	// the sharded engine's conservative lookahead.
	MinDelay, MaxDelay sim.Time

	// TickInterval is the mobility integration step for continuous
	// movement. Zero selects a default of 20ms.
	TickInterval sim.Time

	// NonFIFO disables the per-directed-link FIFO delivery order — an
	// ablation of the paper's §3.1 link assumption (experiment E12).
	NonFIFO bool

	// TraceRing sizes the event bus's retained-history ring (0 = keep
	// no history; subscribers and sinks still receive every event).
	TraceRing int

	// Tiles selects the execution engine: ≤ 1 runs the single-heap
	// scheduler (exact legacy behaviour); g > 1 partitions the node
	// bounding box into a g×g grid of tiles executed by the sharded
	// engine. The event trace is identical either way.
	Tiles int

	// ShardWorkers bounds the sharded engine's worker goroutines
	// (0 = GOMAXPROCS). Ignored by the single-heap engine. The trace is
	// identical for every worker count.
	ShardWorkers int

	// Telemetry enables the engine's execution-telemetry counters
	// (EngineTelemetry). Out-of-band: it never changes the event order,
	// the trace or any result — a run with telemetry on is bit-identical
	// to the same run with it off, which TestTelemetryInvariance pins.
	Telemetry bool
}

// DefaultConfig returns the parameters used throughout the experiments:
// ν = 10ms with a 1ms floor, 20ms mobility ticks, single-heap engine.
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		Radius:       0.25,
		MinDelay:     sim.Time(1_000),
		MaxDelay:     sim.Time(10_000),
		TickInterval: sim.Time(20_000),
	}
}

// AutoTiles suggests a tile-grid side for an n-node world: roughly 64
// nodes per tile, clamped to [1, 64] tiles per side.
func AutoTiles(n int) int {
	g := 1
	for g < 64 && g*g*64 < n {
		g++
	}
	return g
}

// LinkListener observes communication-graph changes (used by the safety
// checker and by traces).
type LinkListener interface {
	// OnLink is called after a link between a and b appears (up=true) or
	// disappears (up=false) and after both endpoint protocols processed
	// their notifications.
	OnLink(a, b core.NodeID, up bool, at sim.Time)
}

// MoveListener observes mobility status changes (used by the response-time
// recorder, which per Definition 1 only samples nodes that stayed static
// throughout a hungry interval).
type MoveListener interface {
	// OnMove is called when id starts (moving=true) or stops
	// (moving=false) moving.
	OnMove(id core.NodeID, moving bool, at sim.Time)
}

// node is the world-side record of a mobile node.
type node struct {
	id      core.NodeID
	pos     graph.Point
	proto   core.Protocol
	state   core.State
	moving  bool
	crashed bool

	// nbrs is the current neighbour set as an incrementally maintained
	// sorted ID slice; links is the parallel slice of this end's state of
	// the link to nbrs[i], dropped with the entry on link-down. Memory is
	// O(degree) per node.
	nbrs  []core.NodeID
	links []link

	// linkGen is the largest link-incarnation stamp this node has ever
	// held; see link.epoch.
	linkGen uint64

	// sendSeq is the node's monotone message counter; every accepted
	// send is stamped with the next value so traces carry a causal
	// send→deliver identity even across equal-time deliveries.
	sendSeq uint64

	// oseq is the node's monotone schedule counter: the A component of
	// every local and topology event key it owns. It is only ever
	// touched from the node's own execution context (its tile's worker,
	// or the coordinator while tiles are paused), so it needs no
	// synchronisation.
	oseq uint64

	// rng is the node's private random stream, derived from (Seed, id).
	// Message delays, waypoint draws and workload think times all come
	// from here, which makes every draw independent of global execution
	// order — the prerequisite for bit-identical parallel runs.
	rng *rand.Rand

	// tile is the index of the tile currently owning the node (sharded
	// engine only; updated by the coordinator on migration).
	tile int32

	// movement target; valid while moving.
	target graph.Point
	speed  float64 // plane units per second
	moveID uint64  // invalidates stale movement ticks
}

// link is one endpoint's record of a link.
type link struct {
	// lastOut is the FIFO floor of this direction: the arrival instant of
	// the last message sent over it (a new incarnation starts from zero,
	// exactly the legacy reset semantics).
	lastOut sim.Time

	// epoch is the link's incarnation stamp. A message carries the stamp
	// its link had when it was sent and is destroyed with the link if, at
	// delivery, the link is gone or carries another stamp. Both ends hold
	// the same stamp, so the receiver-side check in delivery.Run equals
	// the legacy sender-side one. Nothing outlives a link-down: a later
	// incarnation cannot repeat an earlier stamp, because setLink draws
	// every stamp above the linkGen of both endpoints (0 = a link of the
	// initial topology).
	epoch uint64
}

// nbrIndex locates j in the sorted neighbour slice: the index of the first
// ID that is at least j, and whether that ID is j. Like core.Slots.search
// it halves down to a window of eight and scans that — at the degrees of
// the worlds run here, the scan alone: every send and every delivery comes
// through here, and a generic binary search over a dozen IDs costs more in
// mispredicted branches than the scan does in compares.
func (n *node) nbrIndex(j core.NodeID) (int, bool) {
	ids := n.nbrs
	lo, hi := 0, len(ids)
	for hi-lo > 8 {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for lo < hi && ids[lo] < j {
		lo++
	}
	return lo, lo < len(ids) && ids[lo] == j
}

// hasNbr reports whether j is currently a neighbour.
func (n *node) hasNbr(j core.NodeID) bool {
	_, ok := n.nbrIndex(j)
	return ok
}

// insertNeighbor adds j to the sorted neighbour slice with a fresh FIFO
// floor and the given link-incarnation stamp.
func (n *node) insertNeighbor(j core.NodeID, epoch uint64) {
	i, found := n.nbrIndex(j)
	if found {
		return
	}
	n.nbrs = slices.Insert(n.nbrs, i, j)
	n.links = slices.Insert(n.links, i, link{epoch: epoch})
}

// removeNeighbor deletes j from the sorted neighbour slice, dropping its
// FIFO floor and link stamp with it.
func (n *node) removeNeighbor(j core.NodeID) {
	i, found := n.nbrIndex(j)
	if !found {
		return
	}
	n.nbrs = slices.Delete(n.nbrs, i, i+1)
	n.links = slices.Delete(n.links, i, i+1)
}

// nodeSeed derives the per-node random stream seed (splitmix64 over the
// world seed and the node ID, the same construction internal/fleet uses
// for replica seeds).
func nodeSeed(seed uint64, id core.NodeID) uint64 {
	z := seed + 0x9e3779b97f4a7c15*uint64(int64(id)+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// World is the simulated MANET. With the single-heap engine all mutation
// happens inside scheduler events or before the run starts; with the
// sharded engine, node-local events run on tile workers (parallel windows)
// or on the coordinating goroutine (direct windows), while topology events
// and all observable effects (bus, listeners) are serialised on the
// coordinating goroutine in canonical key order.
type World struct {
	cfg   Config
	sched *sim.Scheduler
	nodes []*node

	// grid is the spatial index link maintenance queries; scratch is its
	// reusable candidate buffer.
	grid    grid
	scratch []core.NodeID

	// freeDeliveries and freeTickers pool the reusable in-flight message
	// and movement-tick records of the closure-free timer paths.
	// freeDeliveries serves the single-heap engine only: under the sharded
	// engine every tile keeps its own delivery pool.
	freeDeliveries []*delivery
	freeTickers    []*moveTicker

	// stateListeners are deferred observers: in parallel windows their
	// callbacks are buffered and replayed at barriers in canonical
	// order. localStateListeners (the workload driver) run inline in the
	// executing context, because they schedule follow-up events for the
	// node itself; they are invoked after the deferred ones in single
	// mode and in direct windows, preserving the legacy registration
	// order.
	stateListeners      []core.Listener
	localStateListeners []core.Listener
	linkListeners       []LinkListener
	moveListeners       []MoveListener

	// bus is the typed event stream every observable occurrence is
	// published to; namer classifies message payloads for it.
	bus   *trace.Bus
	namer *trace.TypeNamer

	started bool

	// shard is the sharded executor; nil before Start and in single-heap
	// mode. pending holds events scheduled before Start in sharded mode
	// (routed into tile heaps once tiles exist); pendingHook likewise.
	shard       *shardExec
	pending     []sim.Item
	pendingHook func(sim.Time)

	// msgsSent and msgsDelivered count protocol messages (the paper's
	// future-work measure of message complexity). They are maintained
	// natively so the cheap headline numbers survive even when nothing
	// subscribes to the bus. The sharded engine counts into per-tile
	// fields instead; readers sum.
	msgsSent, msgsDelivered uint64
}

// NewWorld creates an empty world driven by its own scheduler.
func NewWorld(cfg Config) *World {
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = 20_000
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 10_000
	}
	if cfg.MinDelay <= 0 {
		cfg.MinDelay = 1
	}
	if cfg.MinDelay > cfg.MaxDelay {
		cfg.MinDelay = cfg.MaxDelay
	}
	if cfg.Tiles < 1 {
		cfg.Tiles = 1
	}
	if cfg.Tiles > 128 {
		cfg.Tiles = 128
	}
	return &World{
		cfg:   cfg,
		sched: sim.NewScheduler(cfg.Seed),
		bus:   trace.NewBus(cfg.TraceRing),
		namer: trace.NewTypeNamer(),
	}
}

// Bus exposes the world's typed event stream; subscribe before Start to
// observe the whole run.
func (w *World) Bus() *trace.Bus { return w.bus }

// TypeNamer exposes the world's message-type cache — the mint of the
// MsgID values traffic events carry. Consumers (metrics.Instrument) use
// it to resolve dense type IDs back to schema names.
func (w *World) TypeNamer() *trace.TypeNamer { return w.namer }

// Scheduler exposes the single-heap event loop for workloads and
// harnesses that script scenarios with raw closures. It is unavailable in
// sharded mode, where no global scheduler exists: use Now, RunUntil,
// ScheduleLocal and the mobility/crash helpers instead — they work with
// both engines.
func (w *World) Scheduler() *sim.Scheduler {
	if w.cfg.Tiles > 1 {
		panic("manet: Scheduler() is unavailable with the sharded engine (Tiles > 1); use World.Now/RunUntil/ScheduleLocal")
	}
	return w.sched
}

// Config returns the world's configuration.
func (w *World) Config() Config { return w.cfg }

// N returns the number of nodes.
func (w *World) N() int { return len(w.nodes) }

// Now returns the current virtual time under either engine.
func (w *World) Now() sim.Time {
	if sx := w.shard; sx != nil {
		return sx.now
	}
	return w.sched.Now()
}

// nowOf returns the virtual time of n's execution context: its tile clock
// inside a parallel window, the coordinator clock otherwise.
func (w *World) nowOf(n *node) sim.Time {
	if sx := w.shard; sx != nil {
		if sx.inWindow {
			return sx.tiles[n.tile].now
		}
		return sx.now
	}
	return w.sched.Now()
}

// Processed reports how many events have been executed under either
// engine.
func (w *World) Processed() uint64 {
	if sx := w.shard; sx != nil {
		total := sx.processed
		for _, t := range sx.tiles {
			total += t.processed
		}
		return total
	}
	return w.sched.Processed()
}

// EngineTelemetry assembles the execution-layer lme/telemetry/v1 record,
// or nil when Config.Telemetry is off (or the sharded engine has not
// started yet). The single-heap engine reports the degenerate 1×1 grid —
// one tile, zero windows and steals — so consumers see one shape from
// both engines. Coordinator context only: call between RunUntil slices
// or after the run, never from an event handler under the sharded
// engine.
func (w *World) EngineTelemetry() *telemetry.EngineStats {
	if !w.cfg.Telemetry {
		return nil
	}
	if w.cfg.Tiles > 1 {
		if sx := w.shard; sx != nil {
			return sx.telemetrySnapshot()
		}
		return nil
	}
	events := w.sched.Processed()
	empty := metrics.NewSketch().Snapshot()
	return &telemetry.EngineStats{
		Schema: telemetry.Schema,
		Tiles:  1, Workers: 1,
		Events:         events,
		WindowSpanUS:   empty,
		BarrierStallNS: empty,
		PerTile: []telemetry.TileStats{{
			Tile: 0, Events: events,
			MsgsSent: w.msgsSent, MsgsDelivered: w.msgsDelivered,
		}},
	}
}

// SetEventHook installs f to run after every executed event, at the
// event's virtual time (nil uninstalls). Under the sharded engine the
// hook may be invoked concurrently from tile workers, so it must be
// goroutine-safe (the harness's throughput counter is atomic).
func (w *World) SetEventHook(f func(sim.Time)) {
	if w.cfg.Tiles > 1 {
		if sx := w.shard; sx != nil {
			sx.hook = f
		} else {
			w.pendingHook = f
		}
		return
	}
	w.sched.SetEventHook(f)
}

// RunUntil executes events in canonical order until the queues are empty
// or the next event is later than deadline; events at exactly the
// deadline still run and the clock lands on deadline. maxEvents bounds
// the total executed in this call (0 = no bound); exceeding it returns
// sim.ErrEventLimit. Under the sharded engine the bound is checked at
// window barriers, so it may overshoot by up to one window.
func (w *World) RunUntil(deadline sim.Time, maxEvents uint64) error {
	if sx := w.shard; sx != nil {
		return sx.runUntil(deadline, maxEvents)
	}
	return w.sched.RunUntil(deadline, maxEvents)
}

// Run executes pending events (including ones they schedule) until the
// queues drain, with an event budget.
func (w *World) Run(maxEvents uint64) error {
	return w.RunUntil(sim.Infinity, maxEvents)
}

// AddNode places a new node at pos and returns its ID. Must be called
// before Start.
func (w *World) AddNode(pos graph.Point) core.NodeID {
	if w.started {
		panic("manet: AddNode after Start")
	}
	id := core.NodeID(len(w.nodes))
	s := nodeSeed(w.cfg.Seed, id)
	w.nodes = append(w.nodes, &node{
		id:    id,
		pos:   pos,
		state: core.Thinking,
		rng:   rand.New(rand.NewPCG(s, s^0x9e3779b97f4a7c15)),
	})
	return id
}

// SetProtocol installs the algorithm instance for a node. Must be called
// before Start.
func (w *World) SetProtocol(id core.NodeID, p core.Protocol) {
	if w.started {
		panic("manet: SetProtocol after Start")
	}
	w.nodes[id].proto = p
}

// NodeRand exposes id's private deterministic random stream (the workload
// driver's think-time source). Draw only from id's own execution context.
func (w *World) NodeRand(id core.NodeID) *rand.Rand { return w.nodes[id].rng }

// AddStateListener registers a dining-state transition observer. Under
// the sharded engine the callbacks of a parallel window are deferred to
// its barrier and replayed in canonical event order (a direct window calls
// them inline, in the same order); listeners must therefore derive
// their state from the callback stream (plus the frozen-between-barriers
// topology) rather than reading live node state — which every metrics
// listener already does.
func (w *World) AddStateListener(l core.Listener) {
	w.stateListeners = append(w.stateListeners, l)
}

// AddLocalStateListener registers a state observer that runs inline in
// the transitioning node's own execution context even under the sharded
// engine — required for listeners that schedule follow-up events for the
// node (the workload driver). Inline listeners run after the deferred
// ones registered so far when both engines run single-threaded.
func (w *World) AddLocalStateListener(l core.Listener) {
	w.localStateListeners = append(w.localStateListeners, l)
}

// AddLinkListener registers a communication-graph change observer.
func (w *World) AddLinkListener(l LinkListener) {
	w.linkListeners = append(w.linkListeners, l)
}

// AddMoveListener registers a mobility status observer.
func (w *World) AddMoveListener(l MoveListener) {
	w.moveListeners = append(w.moveListeners, l)
}

// setMoving flips a node's mobility flag, publishes the mobility event
// and notifies observers.
func (w *World) setMoving(n *node, moving bool) {
	if n.moving == moving {
		return
	}
	n.moving = moving
	kind := trace.KindMoveStop
	if moving {
		kind = trace.KindMoveStart
	}
	if w.bus.Wants(kind) {
		w.emit(n, trace.Event{
			Kind: kind, Node: n.id, Peer: trace.NoNode,
			Detail: fmt.Sprintf("(%.3f,%.3f)", n.pos.X, n.pos.Y),
		})
	}
	if len(w.moveListeners) == 0 {
		return
	}
	at := w.nowOf(n)
	if sx := w.shard; sx != nil && sx.inWindow {
		sx.tiles[n.tile].buffer(effect{kind: effMove, id: n.id, flag: moving, at: at})
		return
	}
	for _, l := range w.moveListeners {
		l.OnMove(n.id, moving, at)
	}
}

// emit stamps the event with the node's current virtual time and
// publishes it — directly in coordinator context, or into the tile's
// effect buffer inside a parallel window (replayed at the barrier in
// canonical order, so the bus sees one monotone stream either way).
func (w *World) emit(n *node, e trace.Event) {
	if sx := w.shard; sx != nil && sx.inWindow {
		t := sx.tiles[n.tile]
		e.At = t.now
		t.buffer(effect{kind: effBus, ev: e})
		return
	}
	e.At = w.Now()
	w.bus.Publish(e)
}

// relocate moves a node to p, keeping the spatial index — and, under the
// sharded engine, its tile assignment and pending events — in sync.
// Coordinator context only (topology events are serialised there).
func (w *World) relocate(n *node, p graph.Point) {
	w.grid.move(n.id, n.pos, p)
	n.pos = p
	if sx := w.shard; sx != nil {
		sx.migrate(n)
	}
}

// addLink silently records the link a—b (Start's initial topology: stamp
// 0, no notifications).
func (w *World) addLink(a, b core.NodeID) {
	w.nodes[a].insertNeighbor(b, 0)
	w.nodes[b].insertNeighbor(a, 0)
}

// Start computes the initial communication graph (silently: pre-existing
// links generate no LinkUp indications; the paper's initial fork and colour
// distributions are ID-based conventions each protocol applies in Init) and
// initialises every protocol. With Tiles > 1 it also partitions the node
// bounding box into the tile grid and routes any pre-scheduled events to
// their owners' tiles.
func (w *World) Start() error {
	if w.started {
		return fmt.Errorf("manet: Start called twice")
	}
	for _, n := range w.nodes {
		if n.proto == nil {
			return fmt.Errorf("manet: node %d has no protocol", n.id)
		}
	}
	w.started = true
	r2 := w.cfg.Radius * w.cfg.Radius
	w.grid = newGrid(w.cfg.Radius)
	for _, n := range w.nodes {
		w.grid.insert(n.id, n.pos)
	}
	for _, n := range w.nodes {
		cand := w.grid.appendNearby(n.pos, w.scratch[:0])
		for _, j := range cand {
			if j <= n.id {
				continue // each unordered pair once
			}
			if n.pos.Dist2(w.nodes[j].pos) <= r2 {
				w.addLink(n.id, j)
			}
		}
		w.scratch = cand[:0]
	}
	if w.cfg.Tiles > 1 {
		w.initShard()
	}
	for _, n := range w.nodes {
		n.proto.Init(&env{w: w, n: n})
	}
	return nil
}

// Neighbors returns the neighbour IDs of id in ascending order. The
// returned slice is a read-only view owned by the world; it is invalidated
// by the next topology change. Copy it to retain it.
func (w *World) Neighbors(id core.NodeID) []core.NodeID {
	return w.nodes[id].nbrs
}

// Position returns the current position of id.
func (w *World) Position(id core.NodeID) graph.Point { return w.nodes[id].pos }

// Moving reports whether id is currently in motion.
func (w *World) Moving(id core.NodeID) bool { return w.nodes[id].moving }

// Crashed reports whether id has crashed.
func (w *World) Crashed(id core.NodeID) bool { return w.nodes[id].crashed }

// State returns the last dining state reported by id's protocol.
func (w *World) State(id core.NodeID) core.State { return w.nodes[id].state }

// Protocol returns the protocol instance of id (for white-box tests).
func (w *World) Protocol(id core.NodeID) core.Protocol { return w.nodes[id].proto }

// CommGraph snapshots the current communication graph.
func (w *World) CommGraph() *graph.Graph {
	g := graph.New(len(w.nodes))
	for _, n := range w.nodes {
		for _, peer := range n.nbrs {
			g.AddEdge(int(n.id), int(peer))
		}
	}
	return g
}

// MessagesSent reports the number of protocol messages handed to the
// transport so far.
func (w *World) MessagesSent() uint64 {
	total := w.msgsSent
	if sx := w.shard; sx != nil {
		for _, t := range sx.tiles {
			total += t.msgsSent
		}
	}
	return total
}

// MessagesDelivered reports the number of protocol messages delivered so
// far (sent minus dropped on link failures and crashes).
func (w *World) MessagesDelivered() uint64 {
	total := w.msgsDelivered
	if sx := w.shard; sx != nil {
		for _, t := range sx.tiles {
			total += t.msgsDelivered
		}
	}
	return total
}

// MaxDegree returns δ of the current communication graph.
func (w *World) MaxDegree() int {
	max := 0
	for _, n := range w.nodes {
		if d := len(n.nbrs); d > max {
			max = d
		}
	}
	return max
}

// countSent tallies one protocol message handed to the transport, on the
// sender's tile under the sharded engine (the executing context owns it:
// the tile's worker in a parallel window, the coordinator otherwise).
func (w *World) countSent(src *node) {
	if sx := w.shard; sx != nil {
		sx.tiles[src.tile].msgsSent++
		return
	}
	w.msgsSent++
}

// countDelivered tallies one delivered protocol message, on the
// receiver's tile under the sharded engine.
func (w *World) countDelivered(dst *node) {
	if sx := w.shard; sx != nil {
		sx.tiles[dst.tile].msgsDelivered++
		return
	}
	w.msgsDelivered++
}

// Crash fails node id at the current instant: it stops processing events,
// stops moving, and never recovers. Other nodes receive no indication (the
// paper's crash model is undetectable).
func (w *World) Crash(id core.NodeID) {
	n := w.nodes[id]
	if n.crashed {
		return
	}
	n.crashed = true
	w.setMoving(n, false)
	n.moveID++ // cancel pending movement ticks
	if w.bus.Wants(trace.KindCrash) {
		w.emit(n, trace.Event{Kind: trace.KindCrash, Node: id, Peer: trace.NoNode})
	}
}

// CrashAt schedules a crash of id at time t. The crash is a node-local
// event owned by id, so it executes on id's tile under the sharded
// engine.
func (w *World) CrashAt(id core.NodeID, t sim.Time) {
	w.scheduleLocalAt(w.nodes[id], t, func() { w.Crash(id) })
}

// ScheduleLocal schedules fn to run in id's execution context, after time
// units from id's current instant. It is the engine-agnostic timer the
// workload driver uses for dining follow-ups; fn must touch only id-local
// state. Call it from id's own execution context (or while the world is
// not running).
func (w *World) ScheduleLocal(id core.NodeID, after sim.Time, fn func()) {
	n := w.nodes[id]
	w.scheduleLocalAt(n, w.nowOf(n)+after, fn)
}

// scheduleLocalAt schedules a ClassLocal event owned by n at time at.
func (w *World) scheduleLocalAt(n *node, at sim.Time, fn func()) {
	if now := w.nowOf(n); at < now {
		at = now
	}
	n.oseq++
	w.push(sim.Item{
		K:  sim.Key{At: at, Owner: int32(n.id), Class: sim.ClassLocal, A: n.oseq},
		Fn: fn,
	}, n)
}

// scheduleLocalRunner is scheduleLocalAt for pooled runners (the waypoint
// state machines).
func (w *World) scheduleLocalRunner(n *node, at sim.Time, r sim.Runner) {
	if now := w.nowOf(n); at < now {
		at = now
	}
	n.oseq++
	w.push(sim.Item{
		K: sim.Key{At: at, Owner: int32(n.id), Class: sim.ClassLocal, A: n.oseq},
		R: r,
	}, n)
}

// scheduleTopo schedules a ClassTopo event owned by n at time at: a
// topology mutation (movement tick, jump) the sharded engine serialises
// on its coordinator.
func (w *World) scheduleTopo(n *node, at sim.Time, it sim.Item) {
	n.oseq++
	it.K = sim.Key{At: at, Owner: int32(n.id), Class: sim.ClassTopo, A: n.oseq}
	if w.cfg.Tiles > 1 {
		sx := w.shard
		if sx == nil {
			w.pending = append(w.pending, it)
			return
		}
		if sx.inWindow {
			// Tile context: hand the request to the coordinator at the
			// barrier. Topo events are always ≥ one tick or one settle
			// ahead, hence outside the current window.
			t := sx.tiles[n.tile]
			t.outTopo = append(t.outTopo, it)
			return
		}
		sx.topo.Push(it)
		return
	}
	if it.Fn != nil {
		w.sched.AtKey(it.K, it.Fn)
	} else {
		w.sched.AtRunnerKey(it.K, it.R)
	}
}

// push routes an owned node-local event to the engine: the single heap,
// the owner's tile heap, or the pre-Start pending list. In tile context
// the owner is necessarily the executing node, so pushing into its own
// heap is race-free.
func (w *World) push(it sim.Item, n *node) {
	if w.cfg.Tiles > 1 {
		sx := w.shard
		if sx == nil {
			w.pending = append(w.pending, it)
			return
		}
		sx.tiles[n.tile].heap.Push(it)
		return
	}
	if it.Fn != nil {
		w.sched.AtKey(it.K, it.Fn)
	} else {
		w.sched.AtRunnerKey(it.K, it.R)
	}
}

// delivery is one pooled in-flight message: the sim.Runner the transport
// schedules instead of capturing six variables in a fresh closure per
// send. Records are recycled through per-tile free lists (sharded) or
// World.freeDeliveries after firing.
type delivery struct {
	w        *World
	from, to core.NodeID
	msg      core.Message
	sentAt   sim.Time
	ep       uint64
	seq      uint64
	msgName  string
	msgSize  int
	msgID    trace.MsgType
	observed bool
}

// Run implements sim.Runner: deliver the message, or destroy it if its
// link incarnation ended or the receiver crashed before the instant came.
// It executes in the receiver's context and touches only receiver-local
// state (the endpoints' link stamps always agree, so the receiver-side
// check equals the legacy sender-side one).
func (d *delivery) Run() {
	w := d.w
	dst := w.nodes[d.to]
	if i, linked := dst.nbrIndex(d.from); dst.crashed || !linked || dst.links[i].epoch != d.ep {
		// Destroyed with the link, or receiver dead.
		if d.observed && w.bus.Wants(trace.KindDrop) {
			reason := "link-changed"
			if dst.crashed {
				reason = "receiver-crashed"
			}
			w.emit(dst, trace.Event{
				Kind: trace.KindDrop, Node: d.to, Peer: d.from,
				Msg: d.msgName, Size: d.msgSize, MsgSeq: d.seq, MsgID: d.msgID,
				Detail: reason,
			})
		}
	} else {
		w.countDelivered(dst)
		if d.observed && w.bus.Wants(trace.KindDeliver) {
			w.emit(dst, trace.Event{
				Kind: trace.KindDeliver, Node: d.to, Peer: d.from,
				Msg: d.msgName, Size: d.msgSize, MsgSeq: d.seq, MsgID: d.msgID,
				Delay: w.nowOf(dst) - d.sentAt,
			})
		}
		dst.proto.OnMessage(d.from, d.msg)
	}
	d.msg = nil // release the payload before pooling
	w.releaseDelivery(dst, d)
}

// allocDelivery takes a record from the sender's pool: its tile's under
// the sharded engine — in either window mode, so records keep circulating
// among the tiles however the modes mix — the world's otherwise.
func (w *World) allocDelivery(src *node) *delivery {
	pool := &w.freeDeliveries
	if sx := w.shard; sx != nil {
		pool = &sx.tiles[src.tile].freeDel
	}
	if k := len(*pool); k > 0 {
		d := (*pool)[k-1]
		*pool = (*pool)[:k-1]
		return d
	}
	return new(delivery)
}

// releaseDelivery returns a fired record to the receiver's pool.
func (w *World) releaseDelivery(dst *node, d *delivery) {
	if sx := w.shard; sx != nil {
		t := sx.tiles[dst.tile]
		t.freeDel = append(t.freeDel, d)
		return
	}
	w.freeDeliveries = append(w.freeDeliveries, d)
}

// send transmits a message over the link from→to, if it exists, with a
// uniformly random delay in [MinDelay, MaxDelay] drawn from the sender's
// stream, clamped to keep the directed link FIFO. The message is destroyed
// if the link fails (or the receiver crashes) before delivery. The
// delivery event's canonical key is (arrival, receiver, deliver, sender,
// sendSeq) — reproducible under any partitioning of the event population.
func (w *World) send(from, to core.NodeID, msg core.Message) {
	src := w.nodes[from]
	if src.crashed {
		return
	}
	oi, ok := src.nbrIndex(to)
	if !ok {
		return
	}
	w.countSent(src)
	src.sendSeq++
	observed := w.bus.Wants(trace.KindSend) ||
		w.bus.Wants(trace.KindDeliver) || w.bus.Wants(trace.KindDrop)
	var msgName string
	var msgSize int
	var msgID trace.MsgType
	if observed {
		msgName, msgSize, msgID = w.namer.Info(msg)
		if w.bus.Wants(trace.KindSend) {
			w.emit(src, trace.Event{
				Kind: trace.KindSend, Node: from, Peer: to,
				Msg: msgName, Size: msgSize, MsgSeq: src.sendSeq, MsgID: msgID,
			})
		}
	}
	sentAt := w.nowOf(src)
	delay := w.cfg.MinDelay
	if span := int64(w.cfg.MaxDelay - w.cfg.MinDelay); span > 0 {
		delay += sim.Time(src.rng.Int64N(span + 1))
	}
	at := sentAt + delay
	if !w.cfg.NonFIFO {
		if floor := src.links[oi].lastOut; at <= floor {
			at = floor + 1
		}
		src.links[oi].lastOut = at
	}
	d := w.allocDelivery(src)
	*d = delivery{
		w: w, from: from, to: to, msg: msg, sentAt: sentAt,
		ep: src.links[oi].epoch, seq: src.sendSeq,
		msgName: msgName, msgSize: msgSize, msgID: msgID, observed: observed,
	}
	key := sim.Key{At: at, Owner: int32(to), Class: sim.ClassDeliver, A: uint64(from), B: src.sendSeq}
	if w.cfg.Tiles > 1 {
		sx := w.shard
		if sx == nil {
			w.pending = append(w.pending, sim.Item{K: key, R: d})
			return
		}
		if sx.inWindow {
			st := sx.tiles[src.tile]
			if w.nodes[to].tile == src.tile {
				st.heap.Push(sim.Item{K: key, R: d})
			} else {
				// Cross-tile: arrival is ≥ window start + ν, so the
				// coordinator can route it at the barrier before any
				// tile could reach that instant.
				st.outMsgs = append(st.outMsgs, sim.Item{K: key, R: d})
			}
			return
		}
		// Coordinator context (a direct window, a topology event, Init):
		// every tile is paused, so the delivery goes straight in.
		dt := w.nodes[to].tile
		if sx.tel != nil && dt != src.tile {
			sx.tel.crossTile(src.tile, dt)
		}
		sx.tiles[dt].heap.Push(sim.Item{K: key, R: d})
		return
	}
	w.sched.AtRunnerKey(key, d)
}

// setLink creates or destroys the link between a and b, dispatching the
// biased notifications of §3.1. No-op if the link is already in the
// requested state. Coordinator context only: link transitions mutate both
// endpoints and are serialised with every tile paused, which is also what
// freezes the topology between sharded window barriers.
func (w *World) setLink(a, b core.NodeID, up bool) {
	na, nb := w.nodes[a], w.nodes[b]
	if na.hasNbr(b) == up {
		return
	}
	if up {
		gen := max(na.linkGen, nb.linkGen) + 1
		na.linkGen, nb.linkGen = gen, gen
		na.insertNeighbor(b, gen)
		nb.insertNeighbor(a, gen)
		movingSide := w.pickMovingSide(na, nb)
		if w.bus.Wants(trace.KindLinkUp) {
			w.emit(na, trace.Event{
				Kind: trace.KindLinkUp, Node: a, Peer: b,
				Detail: fmt.Sprint(movingSide),
			})
		}
		// Deliver the static-side indication first: in the paper's
		// link-level protocol the static node reacts by sending its
		// status (colour and doorway positions) to the newcomer.
		first, second := na, nb
		if first.id == movingSide {
			first, second = nb, na
		}
		if !first.crashed {
			first.proto.OnLinkUp(second.id, first.id == movingSide)
		}
		if !second.crashed {
			second.proto.OnLinkUp(first.id, second.id == movingSide)
		}
	} else {
		na.removeNeighbor(b)
		nb.removeNeighbor(a)
		if w.bus.Wants(trace.KindLinkDown) {
			w.emit(na, trace.Event{Kind: trace.KindLinkDown, Node: a, Peer: b})
		}
		if !na.crashed {
			na.proto.OnLinkDown(b)
		}
		if !nb.crashed {
			nb.proto.OnLinkDown(a)
		}
	}
	for _, l := range w.linkListeners {
		l.OnLink(a, b, up, w.Now())
	}
}

// pickMovingSide decides which endpoint of a new link receives the
// "I am moving" notification: the genuinely moving one if exactly one
// endpoint moves, otherwise (two movers meeting) the higher-ID endpoint,
// realising the symmetry-breaking rule of §3.1 with its bias toward static
// nodes.
func (w *World) pickMovingSide(a, b *node) core.NodeID {
	switch {
	case a.moving && !b.moving:
		return a.id
	case b.moving && !a.moving:
		return b.id
	default:
		// Both moving (links never form between two static nodes in
		// this model, but be safe): exactly one gets the moving role.
		if a.id > b.id {
			return a.id
		}
		return b.id
	}
}

// refreshLinks recomputes every link incident to id against the current
// positions. Candidates come from the spatial index (possible link-ups)
// plus the current neighbour list (possible link-downs); any node in
// neither set is out of range with no link, for which setLink would be a
// no-op — so it transitions exactly the links an all-pairs scan would, in
// ascending peer order (the differential tests check both).
func (w *World) refreshLinks(id core.NodeID) {
	n := w.nodes[id]
	r2 := w.cfg.Radius * w.cfg.Radius
	cand := append(w.scratch[:0], n.nbrs...)
	cand = w.grid.appendNearby(n.pos, cand)
	slices.Sort(cand)
	w.scratch = cand[:0] // recycle the buffer's capacity next call
	prev := core.NodeID(-1)
	for _, other := range cand {
		if other == id || other == prev {
			continue
		}
		prev = other
		w.setLink(id, other, n.pos.Dist2(w.nodes[other].pos) <= r2)
	}
}

// setState records a protocol-reported dining transition and fans it out:
// the bus event and deferred listeners go through the effect path (exact
// canonical order at barriers), the inline listeners (workload driver)
// run immediately in the node's context.
func (w *World) setState(n *node, s core.State) {
	if n.state == s {
		return
	}
	old := n.state
	n.state = s
	if w.bus.Wants(trace.KindState) {
		w.emit(n, trace.Event{
			Kind: trace.KindState, Node: n.id, Peer: trace.NoNode,
			Old: old.String(), New: s.String(),
		})
	}
	at := w.nowOf(n)
	if sx := w.shard; sx != nil && sx.inWindow {
		if len(w.stateListeners) > 0 {
			sx.tiles[n.tile].buffer(effect{kind: effState, id: n.id, oldS: old, newS: s, at: at})
		}
	} else {
		for _, l := range w.stateListeners {
			l.OnStateChange(n.id, old, s, at)
		}
	}
	for _, l := range w.localStateListeners {
		l.OnStateChange(n.id, old, s, at)
	}
}

// env adapts a world node to core.Env.
type env struct {
	w *World
	n *node
}

var (
	_ core.Env       = (*env)(nil)
	_ trace.Emitter  = (*env)(nil)
	_ trace.Interest = (*env)(nil)
)

func (e *env) ID() core.NodeID { return e.n.id }

// Emit implements trace.Emitter: protocol-level events (doorway
// crossings, recolouring rounds, diagnostics) join the world's stream,
// stamped with the node's identity and the current instant. The Peer field
// passes through verbatim: emitters set trace.NoNode explicitly when the
// event has no peer, so an event genuinely about node 0 is never
// mislabelled (the zero-value rewrite this replaced silently turned
// Peer == 0 into NoNode).
func (e *env) Emit(ev trace.Event) {
	ev.Node = e.n.id
	e.w.emit(e.n, ev)
}

// Wants implements trace.Interest: protocols ask before assembling an
// event whose strings cost something to build (notef diagnostics,
// doorway details), and skip the work when no ring, sink, or subscriber
// would see that kind.
func (e *env) Wants(k trace.Kind) bool { return e.w.bus.Wants(k) }

func (e *env) Now() sim.Time { return e.w.nowOf(e.n) }

// Neighbors returns the node's current neighbours in ascending order, as
// a read-only view owned by the world (valid until the next topology
// change; copy to retain).
func (e *env) Neighbors() []core.NodeID { return e.n.nbrs }

func (e *env) Send(to core.NodeID, msg core.Message) { e.w.send(e.n.id, to, msg) }

func (e *env) Broadcast(msg core.Message) {
	for _, to := range e.n.nbrs {
		e.w.send(e.n.id, to, msg)
	}
}

func (e *env) Moving() bool { return e.n.moving }

func (e *env) SetState(s core.State) { e.w.setState(e.n, s) }
