// Package livenet runs the same core.Protocol state machines that the
// discrete-event simulator drives — unchanged — as a networked lock
// service: one event loop per core, each hosting a contiguous block of
// nodes, a pluggable Transport moving framed messages per directed link
// (in-process channels for hermetic tests, UDP sockets for deployment
// shape), and a lease-based client API (Node.Acquire / Lease.Release) on
// top. Every protocol instance is only ever touched by its shard's event
// loop, so the package is race-clean by construction (and tested with
// -race).
//
// Livenet supports static topologies: mobility experiments live in
// internal/manet, where virtual time makes them reproducible. What livenet
// adds is evidence that the algorithms run correctly under genuine
// concurrency, real clocks and real sockets — and a service surface real
// clients can hold locks through.
package livenet

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
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

// Defaults of Config, in one place. The names follow the lme.Config
// vocabulary (ν = MaxMessageDelay, τ = EatTime, think bounds, seed), at
// the µs scale appropriate for wall-clock runs.
const (
	// DefaultMaxMessageDelay is the live ν: the per-frame link delay
	// bound of the channel transport.
	DefaultMaxMessageDelay = 500 * time.Microsecond
	// DefaultEatTime is the live τ: how long the self-driving workload
	// holds the critical section.
	DefaultEatTime = 300 * time.Microsecond
	// DefaultThinkMax bounds the workload's uniform thinking period.
	DefaultThinkMax = 500 * time.Microsecond
	// DefaultLeaseTTL is the lease expiry horizon: a client that holds a
	// lease this long without releasing is presumed crashed, and the node
	// is demoted out of eating so its neighbours are not starved.
	DefaultLeaseTTL = 250 * time.Millisecond
	// DefaultSeed seeds the delay/think randomness, matching lme.Config's
	// seed-0-means-1 handling.
	DefaultSeed = 1
)

// Config parameterises a live cluster. The field vocabulary matches
// lme.Config — ν, τ, think bounds, seed — so the simulated and live entry
// points read as one API.
type Config struct {
	// MaxMessageDelay bounds the per-message link delay (the paper's ν).
	// Default DefaultMaxMessageDelay. Only the channel transport imposes
	// it; UDP links have whatever delay the network gives them.
	MaxMessageDelay time.Duration

	// EatTime is the critical-section hold time τ of the self-driving
	// workload (Run and the load generator). Default DefaultEatTime.
	EatTime time.Duration

	// ThinkMin and ThinkMax bound the workload's uniform thinking
	// period. Default (0, DefaultThinkMax].
	ThinkMin, ThinkMax time.Duration

	// Seed drives the delay/think randomness (default DefaultSeed; 0
	// means the default, as in lme.Config).
	Seed uint64

	// LeaseTTL is how long an unreleased lease lives before the service
	// presumes its client crashed and demotes the node out of eating.
	// Default DefaultLeaseTTL.
	LeaseTTL time.Duration

	// Transport moves frames between nodes. Nil selects the in-process
	// channel transport over the cluster graph (hermetic, race-clean);
	// pass NewUDPTransport for real sockets. The cluster owns Start and
	// Close either way.
	Transport Transport

	// TraceRing keeps the last TraceRing events on the bus for
	// Bus().Recent. The default 0 keeps none; a ring consumes every event
	// kind, so setting it puts every frame on the bus (see Bus).
	TraceRing int
}

// withDefaults is the single place live defaults are applied.
func (cfg Config) withDefaults() Config {
	if cfg.MaxMessageDelay <= 0 {
		cfg.MaxMessageDelay = DefaultMaxMessageDelay
	}
	if cfg.EatTime <= 0 {
		cfg.EatTime = DefaultEatTime
	}
	if cfg.ThinkMax <= 0 {
		cfg.ThinkMax = DefaultThinkMax
	}
	if cfg.ThinkMin < 0 {
		cfg.ThinkMin = 0
	}
	if cfg.ThinkMin > cfg.ThinkMax {
		cfg.ThinkMin = cfg.ThinkMax
	}
	if cfg.Seed == 0 {
		cfg.Seed = DefaultSeed
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	return cfg
}

// Errors of the lifecycle and lease API.
var (
	errAlreadyStarted = errors.New("livenet: transport already started")
	// ErrStopped reports an Acquire interrupted by cluster shutdown.
	ErrStopped = errors.New("livenet: cluster stopped")
	// ErrLeaseExpired reports a Release that arrived after the lease TTL
	// already demoted the node: the critical section was force-exited.
	ErrLeaseExpired = errors.New("livenet: lease expired")
	// ErrLeaseReleased reports a second Release of the same lease.
	ErrLeaseReleased = errors.New("livenet: lease already released")
)

// event is one unit of work for a shard's loop: what happened (kind), the
// node it is for, and for a message its sender and payload.
type event struct {
	kind eventKind
	node core.NodeID
	from core.NodeID
	msg  core.Message
}

type eventKind int

const (
	evMessage eventKind = iota + 1
	evAcquire
	evRelease
	evCrash
)

// mailbox is an unbounded FIFO queue whose consumer takes everything
// queued at once.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []event
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// push enqueues an event; no-op after close.
func (m *mailbox) push(e event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.items = append(m.items, e)
	m.cond.Signal()
}

// drain blocks until events are queued, then takes the whole queue in
// one lock hold and leaves spare (the caller's previous batch, zeroed) as
// the new queue — a double buffer, so a turn costs one lock hold however
// many events it handles. ok=false after close and drain.
func (m *mailbox) drain(spare []event) (batch []event, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.items) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.items) == 0 {
		return nil, false
	}
	batch, m.items = m.items, spare[:0]
	return batch, true
}

// close wakes all waiters; pending events are still drained.
func (m *mailbox) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
}

// turnMax bounds a turn: a shard loop handles at most this many events
// before the frames they produced leave and the loop yields. Without a
// bound a loop that always has mail never blocks, and on a box with as
// many shards as cores nothing else — the transport's readers first —
// gets a core: ACKs then outlive the retransmission timeout and most of
// the wire is retransmissions.
const turnMax = 256

// blocks is how many contiguous blocks of node IDs n nodes are hosted in:
// one per core, never more than nodes. The cluster's shards and the UDP
// transport's ports both use it, so by default a port has one sender.
func blocks(n int) int { return min(n, runtime.GOMAXPROCS(0)) }

// blockOf maps a node to its block: IDs are cut into nblocks contiguous
// ranges of (almost) equal size.
func blockOf(id core.NodeID, nblocks, n int) int { return int(id) * nblocks / n }

// Cluster is a running (or runnable) lock service over a set of live
// nodes. Build with New, then either drive it with the lease API
// (Start, Node(i).Acquire, Stop) or let the built-in dining workload
// exercise it (Run).
type Cluster struct {
	cfg    Config
	g      *graph.Graph
	nbrs   [][]core.NodeID // shared read-only neighbour views, one per node
	nodes  []*liveNode
	shards []*shard
	tr     Transport

	bus   *trace.Bus
	busMu sync.Mutex // the bus is single-threaded; live goroutines serialise here
	namer *trace.TypeNamer

	start   time.Time
	stopCh  chan struct{}
	wg      sync.WaitGroup
	busy    atomic.Int64  // nodes whose lease slot is taken (see pace)
	paceCh  chan struct{} // wakes the pacer when busy leaves zero
	started bool
	stopped bool
	lifeMu  sync.Mutex // guards started/stopped transitions

	mu           sync.Mutex // guards checker, meals, grant stats
	checker      *metrics.SafetyChecker
	meals        []int
	grant        *metrics.Sketch
	acquisitions uint64
	expired      uint64
}

// shard is one event loop and the block of nodes it hosts: the only
// goroutine that ever calls into their protocols after Init.
type shard struct {
	c     *Cluster
	inbox *mailbox

	// out holds the frames the current turn produced, in send order, until
	// flushOut hands them to the transport; now is the turn's clock, read
	// once and stamped on every frame of the turn. Both belong to the loop
	// (and to Start, which runs Init before the loops exist).
	out []Frame
	now sim.Time

	// sent counts the frames this shard handed to the transport.
	sent atomic.Uint64
}

type liveNode struct {
	id    core.NodeID
	proto core.Protocol
	c     *Cluster
	sh    *shard

	// mseq is the node's monotone message id, last its previously reported
	// state and crashed whether it stopped handling events; only the
	// shard's loop (and Init, before the loops start) touches them.
	mseq    uint64
	last    core.State
	crashed bool

	// delivered counts the frames the transport delivered to this node.
	// Per node, so concurrent deliveries share no cache line.
	delivered atomic.Uint64

	// slot serialises leases: at most one outstanding Acquire/Lease per
	// node, later Acquire calls queue on it.
	slot chan struct{}

	// pmu guards pending and lease.
	pmu     sync.Mutex
	pending *pendingAcquire
	lease   *Lease
}

// post queues an event for the node on its shard's loop.
func (n *liveNode) post(kind eventKind) {
	n.sh.inbox.push(event{kind: kind, node: n.id})
}

// New builds a cluster over the given static communication graph.
// protocols[i] is node i's algorithm instance. Subscribe to Bus before
// Start; the configured transport is started and closed by the cluster.
func New(cfg Config, g *graph.Graph, protocols []core.Protocol) (*Cluster, error) {
	if len(protocols) != g.N() {
		return nil, fmt.Errorf("livenet: %d protocols for %d nodes", len(protocols), g.N())
	}
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:    cfg,
		g:      g,
		nbrs:   make([][]core.NodeID, g.N()),
		meals:  make([]int, g.N()),
		bus:    trace.NewBus(cfg.TraceRing),
		namer:  trace.NewTypeNamer(),
		grant:  metrics.NewSketch(),
		stopCh: make(chan struct{}),
		paceCh: make(chan struct{}, 1),
	}
	for i := 0; i < blocks(g.N()); i++ {
		c.shards = append(c.shards, &shard{c: c, inbox: newMailbox()})
	}
	for i := 0; i < g.N(); i++ {
		nbrs := g.Neighbors(i)
		ids := make([]core.NodeID, len(nbrs))
		for j, nb := range nbrs {
			ids[j] = core.NodeID(nb)
		}
		c.nbrs[i] = ids
		c.nodes = append(c.nodes, &liveNode{
			id:    core.NodeID(i),
			proto: protocols[i],
			c:     c,
			sh:    c.shards[blockOf(core.NodeID(i), len(c.shards), g.N())],
			last:  core.Thinking,
			slot:  make(chan struct{}, 1),
		})
	}
	c.checker = metrics.NewSafetyChecker(topoAdapter{c})
	if cfg.Transport == nil {
		cfg.Transport = NewChannelTransport(g, cfg.MaxMessageDelay, cfg.Seed)
		c.cfg.Transport = cfg.Transport
	}
	c.tr = cfg.Transport
	return c, nil
}

// topoAdapter exposes the cluster's neighbour views to the safety
// checker. The returned slice is the runtime-owned read-only view;
// the checker only iterates it.
type topoAdapter struct {
	c *Cluster
}

func (t topoAdapter) Neighbors(id core.NodeID) []core.NodeID {
	return t.c.nbrs[id]
}

// Bus exposes the cluster's typed event stream. Subscribe before Start;
// the bus itself is single-threaded, so the cluster serialises publishes
// from its goroutines internally, and subscribers run one at a time. The
// stream is pay-per-subscriber: the cluster publishes only the kinds
// something consumes (a Subscribe, a TraceRing or a sink),
// and a cluster nobody observes publishes nothing and never takes the
// serialising lock on the frame path.
func (c *Cluster) Bus() *trace.Bus { return c.bus }

// now is the cluster-relative clock in virtual-time units (µs).
func (c *Cluster) now() sim.Time {
	return sim.FromDuration(time.Since(c.start))
}

// emit serialises an event onto the bus. The timestamp is taken under
// the lock, so the published stream is monotone.
func (c *Cluster) emit(e trace.Event) {
	c.busMu.Lock()
	e.At = c.now()
	c.bus.Publish(&e)
	c.busMu.Unlock()
}

// Start initialises the protocols, starts the transport and launches the
// shard event loops. It is idempotent-hostile by design: a second Start
// errors.
func (c *Cluster) Start() error {
	c.lifeMu.Lock()
	defer c.lifeMu.Unlock()
	if c.started {
		return errors.New("livenet: cluster already started")
	}
	c.started = true
	c.start = time.Now()
	if err := c.tr.Start(c.deliver); err != nil {
		return err
	}
	// Init may send; the transport is live, the loops are not — frames
	// queue in the inboxes until the loops drain them.
	for _, n := range c.nodes {
		n.proto.Init(&liveEnv{node: n})
	}
	for _, sh := range c.shards {
		sh.flushOut()
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			sh.loop()
		}()
	}
	// Best effort: without a kernel ticker the cluster runs unpaced.
	if k, err := newKernelTicker(); err == nil {
		c.wg.Add(1)
		go c.pace(k)
	}
	return nil
}

// Stop shuts the cluster down: pending Acquires fail with ErrStopped,
// the transport closes, the shard loops drain and exit, and the span
// layer (when attached) is finalised. It returns the safety checker's
// verdict. Stop is idempotent.
func (c *Cluster) Stop() error {
	c.lifeMu.Lock()
	if c.stopped {
		c.lifeMu.Unlock()
		return c.checker.Err()
	}
	c.stopped = true
	c.lifeMu.Unlock()

	close(c.stopCh)
	c.tr.Close()
	for _, sh := range c.shards {
		sh.inbox.close()
	}
	c.wg.Wait()
	c.bus.Flush() //nolint:errcheck // loss is visible via SinkDropped
	return c.checker.Err()
}

// deliver is the transport's callback: it publishes the deliver event
// and hands the message to the destination's event loop.
func (c *Cluster) deliver(f Frame) {
	c.nodes[f.To].delivered.Add(1)
	if c.bus.Wants(trace.KindDeliver) {
		c.busMu.Lock()
		name, size, id := c.namer.Info(f.Msg)
		now := c.now()
		delay := now - f.SentAt
		if delay < 0 {
			delay = 0
		}
		c.bus.Publish(&trace.Event{
			At: now, Kind: trace.KindDeliver, Node: f.To, Peer: f.From,
			Msg: name, MsgID: id, Size: size, MsgSeq: f.Mseq, Delay: delay,
		})
		c.busMu.Unlock()
	}
	c.nodes[f.To].sh.inbox.push(event{kind: evMessage, node: f.To, from: f.From, msg: f.Msg})
}

// send stamps the frame with the node's message id and the turn's clock,
// publishes the send event and queues the frame for the end of the turn
// (flushOut).
func (n *liveNode) send(to core.NodeID, msg core.Message) {
	c := n.c
	n.mseq++
	f := Frame{From: n.id, To: to, Msg: msg, Mseq: n.mseq, SentAt: n.sh.now}
	if c.bus.Wants(trace.KindSend) {
		c.busMu.Lock()
		name, size, id := c.namer.Info(msg)
		c.bus.Publish(&trace.Event{
			At: c.now(), Kind: trace.KindSend, Node: n.id, Peer: to,
			Msg: name, MsgID: id, Size: size, MsgSeq: n.mseq,
		})
		c.busMu.Unlock()
	}
	n.sh.out = append(n.sh.out, f)
}

// flushOut ends a turn: it hands the frames the turn produced to the
// transport in send order, each corked (Frame.More) except the last, so a
// transport that packs datagrams holds everything back until the turn's
// last frame and then writes the lot at once.
func (sh *shard) flushOut() {
	out := sh.out
	if len(out) == 0 {
		return
	}
	last := len(out) - 1
	for i := range out {
		out[i].More = i < last
		sh.c.tr.Send(out[i])
	}
	sh.sent.Add(uint64(len(out)))
	clear(out) // drop the payload references, keep the capacity
	sh.out = out[:0]
}

// Run drives the cluster for the given wall-clock duration with the
// built-in dining workload: every node's client goroutine loops
// think → Acquire → hold τ → Release, which exercises exactly the lease
// surface external clients use. Everything is shut down and awaited
// before returning; the error is the safety checker's verdict.
func (c *Cluster) Run(d time.Duration) error {
	if err := c.Start(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	var clients sync.WaitGroup
	for i := range c.nodes {
		clients.Add(1)
		go func(id core.NodeID) {
			defer clients.Done()
			c.dine(ctx, id)
		}(core.NodeID(i))
	}
	clients.Wait()
	return c.Stop()
}

// dine is one built-in workload client: the canonical dining cycle over
// the public lease API.
func (c *Cluster) dine(ctx context.Context, id core.NodeID) {
	rng := rand.New(rand.NewPCG(c.cfg.Seed, uint64(id)+1))
	thinkSpread := int64(c.cfg.ThinkMax - c.cfg.ThinkMin)
	for {
		think := c.cfg.ThinkMin + 1
		if thinkSpread > 0 {
			think += time.Duration(rng.Int64N(thinkSpread))
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(think):
		}
		lease, err := c.Node(id).Acquire(ctx)
		if err != nil {
			return
		}
		time.Sleep(c.cfg.EatTime) // the critical section itself
		lease.Release()           //nolint:errcheck // expiry during the hold is fine
	}
}

// CrashAfter fails node id after d of wall-clock time: it stops
// processing events, exactly the paper's silent crash model (a node that
// crashed while eating keeps occupying its critical section; contrast
// with lease expiry, where the node is alive and exits cleanly). Call
// before or during the run.
func (c *Cluster) CrashAfter(id core.NodeID, d time.Duration) {
	time.AfterFunc(d, func() { c.nodes[id].post(evCrash) })
}

// Meals returns the per-node critical-section counts.
func (c *Cluster) Meals() map[core.NodeID]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[core.NodeID]int, len(c.meals))
	for id, n := range c.meals {
		out[core.NodeID(id)] = n
	}
	return out
}

// Violations returns the mutual exclusion violations observed.
func (c *Cluster) Violations() []metrics.Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checker.Violations()
}

// TransportStats snapshots the transport's wire telemetry, or nil for a
// transport that does not implement StatsSource. Safe after Stop — the
// counters outlive the sockets.
func (c *Cluster) TransportStats() *telemetry.TransportStats {
	if src, ok := c.tr.(StatsSource); ok {
		ts := src.Stats()
		return &ts
	}
	return nil
}

// GrantStats snapshots the grant-latency sketch: the Acquire-to-lease
// distribution across all nodes, quantile-accurate to ±1% relative.
func (c *Cluster) GrantStats() metrics.SketchSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.grant.Snapshot()
}

// Acquisitions counts leases granted so far.
func (c *Cluster) Acquisitions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.acquisitions
}

// ExpiredLeases counts leases that hit their TTL and were force-released.
func (c *Cluster) ExpiredLeases() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.expired
}

// MessagesSent reports protocol frames handed to the transport.
func (c *Cluster) MessagesSent() uint64 {
	var total uint64
	for _, sh := range c.shards {
		total += sh.sent.Load()
	}
	return total
}

// MessagesDelivered reports frames the transport delivered.
func (c *Cluster) MessagesDelivered() uint64 {
	var total uint64
	for _, n := range c.nodes {
		total += n.delivered.Load()
	}
	return total
}

// onState serialises state transitions for the checker and resolves
// pending acquisitions. It runs on the node's shard loop.
func (c *Cluster) onState(n *liveNode, old, new core.State) {
	now := c.now()
	if c.bus.Wants(trace.KindState) {
		c.emit(trace.Event{Kind: trace.KindState, Node: n.id, Peer: trace.NoNode,
			Old: old.String(), New: new.String()})
	}
	c.mu.Lock()
	c.checker.OnStateChange(n.id, old, new, now)
	if new == core.Eating {
		c.meals[n.id]++
	}
	c.mu.Unlock()
	if new == core.Eating {
		c.grantLease(n)
	}
}

// loop is the single thread of control of the shard's nodes: the only
// goroutine that ever calls into their protocols after Init. Its unit of
// work is the turn: up to turnMax events of the mailbox are handled back
// to back, then the frames those handlers sent leave together (flushOut)
// and the loop yields, so that whoever became runnable meanwhile — the
// transport's readers, the clients — runs before the next turn. It exits
// once the mailbox is closed and drained.
func (sh *shard) loop() {
	var spare []event
	for {
		batch, ok := sh.inbox.drain(spare)
		if !ok {
			return
		}
		for rest := batch; len(rest) > 0; {
			turn := rest[:min(len(rest), turnMax)]
			rest = rest[len(turn):]
			sh.now = sh.c.now()
			for i := range turn {
				sh.handle(&turn[i])
			}
			sh.flushOut()
			runtime.Gosched()
		}
		clear(batch) // drop the message references before the buffer is reused
		spare = batch
	}
}

// handle runs one event on the node it is for.
func (sh *shard) handle(e *event) {
	n := sh.c.nodes[e.node]
	if n.crashed {
		return // a crashed node silently discards everything
	}
	switch e.kind {
	case evMessage:
		n.proto.OnMessage(e.from, e.msg)
	case evAcquire:
		if n.proto.State() == core.Thinking {
			n.proto.BecomeHungry()
		}
	case evRelease:
		if n.proto.State() == core.Eating {
			n.proto.ExitCS()
		}
	case evCrash:
		// A node that crashed while eating keeps occupying its critical
		// section for safety accounting — its forks are gone with it,
		// exactly the paper's model. What it sent earlier in this turn was
		// sent before the crash and still leaves.
		n.crashed = true
		if sh.c.bus.Wants(trace.KindCrash) {
			sh.c.emit(trace.Event{Kind: trace.KindCrash, Node: n.id, Peer: trace.NoNode})
		}
	}
}

// liveEnv adapts a node to core.Env.
type liveEnv struct {
	node *liveNode
}

var _ core.Env = (*liveEnv)(nil)
var _ trace.Emitter = (*liveEnv)(nil)
var _ trace.Interest = (*liveEnv)(nil)

func (e *liveEnv) ID() core.NodeID { return e.node.id }

func (e *liveEnv) Now() sim.Time { return e.node.c.now() }

// Neighbors returns the runtime-owned read-only view of the node's
// static neighbourhood (the core.Env contract): callers that retain it
// must copy, and the transports do (see the conformance and aliasing
// tests).
func (e *liveEnv) Neighbors() []core.NodeID {
	return e.node.c.nbrs[e.node.id]
}

func (e *liveEnv) Send(to core.NodeID, msg core.Message) {
	e.node.send(to, msg)
}

func (e *liveEnv) Broadcast(msg core.Message) {
	for _, to := range e.Neighbors() {
		e.node.send(to, msg)
	}
}

func (e *liveEnv) Moving() bool { return false }

func (e *liveEnv) SetState(s core.State) {
	old := e.node.last
	e.node.last = s
	e.node.c.onState(e.node, old, s)
}

// Emit implements trace.Emitter: protocols publish doorway crossings and
// diagnostics onto the cluster bus, exactly as they do on the simulator.
func (e *liveEnv) Emit(ev trace.Event) { e.node.c.emit(ev) }

// Wants implements trace.Interest so protocols skip building events
// nobody subscribed to.
func (e *liveEnv) Wants(k trace.Kind) bool { return e.node.c.bus.Wants(k) }
