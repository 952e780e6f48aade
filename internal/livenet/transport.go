package livenet

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/metrics"
	"lme/internal/sim"
	"lme/internal/telemetry"
)

// Frame is one transport-level message on a directed link: the protocol
// payload plus the runtime metadata the observability layer carries
// through delivery (the sender's monotone message id and the send
// instant, both stamped by the cluster).
type Frame struct {
	// From and To are the endpoints of the directed link.
	From, To core.NodeID
	// Msg is the opaque protocol payload.
	Msg core.Message
	// Mseq is the sender's monotone per-node message id (1-based). It
	// doubles as the transport's duplicate-detection key — per directed
	// link, delivered Mseq values are strictly increasing — and as the
	// causality stamp the span layer reads from deliver events.
	Mseq uint64
	// SentAt is the cluster-relative send instant in microseconds; the
	// delivery path derives the link delay from it.
	SentAt sim.Time
	// More is the sender's cork: another frame follows right now in the
	// same flush — on this link or on any other link of the sender's
	// goroutine — so the transport may hold this one back to share a
	// datagram with what follows. The zero value means "transmit now,
	// together with everything held back". It is a field of Frame, not an
	// optional interface, so it survives decorators that forward Frame by
	// value. It is advice to Send only: it never crosses the wire and
	// means nothing on a delivered frame.
	More bool
}

// DeliverFunc receives frames from a transport. Calls are sequential per
// directed link (the FIFO contract) but concurrent across links; the
// callback must be safe for concurrent use. It runs on a goroutine of the
// transport's choosing — possibly a sender's, inside its Send (the UDP
// transport has a sender collect what has arrived for its own block) — so
// it must not wait for anything that a Send in progress holds up. It may
// itself call Send.
type DeliverFunc func(Frame)

// Transport moves frames between the nodes of a static cluster. It is
// the runtime boundary the live runtime is built around: the cluster and
// the protocol state machines above it are transport-agnostic, so the
// in-process channel transport (hermetic, race-clean tests) and the UDP
// transport (real sockets) run the same protocol implementation
// byte-for-byte.
//
// Contract, which the conformance suite enforces on every implementation:
//
//   - FIFO per directed link: frames sent on the same (from, to) pair are
//     delivered in send order, exactly once. This is the paper's §3.1
//     link assumption; implementations over lossy media (UDP) restore it
//     with sequence numbers, a reorder buffer, retransmission and
//     duplicate suppression.
//   - Frame.More is a hint, not a dependency: a frame sent with it is
//     still delivered, in bounded time, if no further frame ever follows
//     (the UDP transport's timer flushes a broken promise), a frame sent
//     without it is never held back to wait for company, and it releases
//     every corked frame sent before it by the same goroutine, whatever
//     their links. A transport with nothing to batch ignores the bit.
//   - No delivery on unknown links: Send on a pair that is not an edge of
//     the cluster graph silently drops the frame.
//   - No delivery after LinkDown(a, b): the link is removed in both
//     directions, frames still in flight on it are destroyed — the same
//     semantics the simulator gives a failing link — and frames sent
//     after LinkDown returns are never delivered. (A single delivery
//     already in progress when LinkDown runs may still complete; only
//     Close gives the stronger wait-for-quiescence guarantee.)
//   - No delivery after Close returns: Close stops all delivery, then
//     waits for in-progress deliveries to finish.
//
// Send is safe for concurrent use by different senders; frames from one
// sender must be sent from a single goroutine at a time (which the shard
// event loop that hosts the node guarantees).
//
// Adjacency crossing the seam follows core.Env.Neighbors's read-only
// rule: a transport handed topology at construction (a *graph.Graph or
// neighbour slices) must snapshot what it retains — it may never alias
// a slice the runtime hands to protocols, and the runtime never aliases
// the transport's copy. TestUDPNeighborsNotAliased vets this by
// comparing backing arrays.
type Transport interface {
	// Start wires the delivery callback and begins moving frames. It is
	// called exactly once, before any Send.
	Start(deliver DeliverFunc) error
	// Send enqueues a frame on the directed link f.From→f.To.
	Send(f Frame)
	// LinkDown removes the link a—b in both directions, dropping frames
	// in flight on it. Subsequent sends on the pair are dropped.
	LinkDown(a, b core.NodeID)
	// Close shuts the transport down. No frame is delivered after Close
	// returns.
	Close() error
}

// StatsSource is the telemetry face of a transport: cumulative
// per-directed-link wire counters aggregated into one lme/telemetry/v1
// record. It is deliberately not part of Transport — a minimal
// implementation stays four methods — but both shipped transports
// provide it (the channel transport with mostly-zero shim counters, so
// the seam contract is observable on either side), and the conformance
// suite exercises it on both.
type StatsSource interface {
	// Stats snapshots the transport's wire telemetry. Safe to call at
	// any point in the lifecycle, including after Close.
	Stats() telemetry.TransportStats
}

// linkKey identifies a directed link.
type linkKey [2]core.NodeID

// frameQueue is an unbounded FIFO of frames with blocking pop, the
// channel transport's per-link buffer.
type frameQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []Frame
	closed bool
}

func newFrameQueue() *frameQueue {
	q := &frameQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues f and reports whether the link still takes frames.
func (q *frameQueue) push(f Frame) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.items = append(q.items, f)
	q.cond.Signal()
	return true
}

func (q *frameQueue) pop() (Frame, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		// A closed link destroys its in-flight frames (the simulator's
		// LinkDown semantics); nothing is drained.
		return Frame{}, false
	}
	f := q.items[0]
	q.items[0] = Frame{} // the backing array must not keep the payload alive
	q.items = q.items[1:]
	return f, true
}

// isClosed reports whether the link was torn down; the forwarder checks
// it after its delay sleep so a frame in flight when LinkDown ran is
// destroyed rather than delivered.
func (q *frameQueue) isClosed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

func (q *frameQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// ChannelTransport is the in-process transport: one unbounded FIFO queue
// and one forwarder goroutine per directed link, each adding a uniform
// random delay in (0, MaxDelay] before handing the frame to the cluster.
// It keeps the live tests hermetic (no sockets) and race-clean, and it is
// the transport the 10k-node load generator runs on. It has no datagrams
// to share, so it ignores Frame.More.
type ChannelTransport struct {
	maxDelay time.Duration
	seed     uint64

	// links is built once by the constructor and never written again, so
	// Send reads it without a lock; a link that went down is a closed
	// queue, not a missing entry.
	links   map[linkKey]*frameQueue
	started bool

	deliver DeliverFunc
	closed  atomic.Bool
	wg      sync.WaitGroup

	framesSent      atomic.Uint64
	framesDelivered atomic.Uint64
}

var (
	_ Transport   = (*ChannelTransport)(nil)
	_ StatsSource = (*ChannelTransport)(nil)
	_ StatsSource = (*UDPTransport)(nil)
)

// NewChannelTransport builds the in-process transport over the edges of
// g. maxDelay bounds the per-frame link delay (the paper's ν); seed
// derives the per-link delay streams.
func NewChannelTransport(g *graph.Graph, maxDelay time.Duration, seed uint64) *ChannelTransport {
	if maxDelay <= 0 {
		maxDelay = DefaultMaxMessageDelay
	}
	t := &ChannelTransport{
		maxDelay: maxDelay,
		seed:     seed,
		links:    make(map[linkKey]*frameQueue, 2*len(g.Edges())),
	}
	for _, e := range g.Edges() {
		a, b := core.NodeID(e[0]), core.NodeID(e[1])
		t.links[linkKey{a, b}] = newFrameQueue()
		t.links[linkKey{b, a}] = newFrameQueue()
	}
	return t
}

// Start launches one forwarder goroutine per directed link.
func (t *ChannelTransport) Start(deliver DeliverFunc) error {
	if t.started {
		return errAlreadyStarted
	}
	t.started = true
	t.deliver = deliver
	for key, q := range t.links {
		t.wg.Add(1)
		go t.forward(key, q)
	}
	return nil
}

// forward is the per-link goroutine: popping sequentially and sleeping
// the random delay in between preserves FIFO order per link while frames
// on different links race freely.
func (t *ChannelTransport) forward(key linkKey, q *frameQueue) {
	defer t.wg.Done()
	rng := rand.New(rand.NewPCG(t.seed, linkSalt(key)))
	for {
		f, ok := q.pop()
		if !ok {
			return
		}
		time.Sleep(time.Duration(rng.Int64N(int64(t.maxDelay)) + 1))
		if t.closed.Load() || q.isClosed() {
			return
		}
		t.framesDelivered.Add(1)
		t.deliver(f)
	}
}

// linkSalt derives a per-link PCG stream id from the directed pair.
func linkSalt(key linkKey) uint64 {
	return uint64(key[0])<<32 ^ uint64(uint32(key[1])) ^ 0x9e3779b97f4a7c15
}

// Send enqueues the frame, dropping it when the pair is not a live link.
func (t *ChannelTransport) Send(f Frame) {
	if t.closed.Load() {
		return
	}
	if q := t.links[linkKey{f.From, f.To}]; q != nil && q.push(f) {
		t.framesSent.Add(1)
	}
}

// Stats reports the channel transport's telemetry: frame counts plus
// zeros for the reliability-shim counters — in-process queues never
// retransmit, duplicate or reorder, and the zeros say so explicitly.
func (t *ChannelTransport) Stats() telemetry.TransportStats {
	return telemetry.TransportStats{
		Schema:          telemetry.Schema,
		Kind:            "channel",
		Links:           len(t.links),
		FramesSent:      t.framesSent.Load(),
		FramesDelivered: t.framesDelivered.Load(),
		AckRTTUS:        metrics.NewSketch().Snapshot(),
	}
}

// LinkDown removes the link in both directions; in-flight frames on it
// are destroyed with the queues.
func (t *ChannelTransport) LinkDown(a, b core.NodeID) {
	for _, key := range []linkKey{{a, b}, {b, a}} {
		if q := t.links[key]; q != nil {
			q.close()
		}
	}
}

// Close stops delivery and waits for the forwarders to exit.
func (t *ChannelTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	for _, q := range t.links {
		q.close()
	}
	t.wg.Wait()
	return nil
}
