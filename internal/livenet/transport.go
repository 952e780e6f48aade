package livenet

import (
	"math"
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

// ChannelTransport is the in-process transport. Every directed link is a
// FIFO server whose service time is a uniform random delay in (0, ν]:
// frame i on a link is due at max(sent_i, due_{i−1}) + delay_i. No link
// runs a goroutine; a frame waits in the delay line of its destination's
// block (the blocks the cluster's shards use), and one goroutine per line
// hands frames to the cluster as they come due. It keeps the live tests
// hermetic (no sockets) and race-clean, and it is the transport the
// 10k-node load generator runs on. It has no datagrams to share, so it
// ignores Frame.More.
type ChannelTransport struct {
	maxDelay int64 // ν in nanoseconds
	epoch    time.Time

	// index and links are built once by the constructor and never
	// resized, so Send finds a link without a lock; a link that went down
	// is flagged, not removed.
	index   map[linkKey]int32
	links   []chanLink
	lines   []*delayLine
	started bool

	deliver DeliverFunc
	closed  atomic.Bool
	stopCh  chan struct{}
	wg      sync.WaitGroup
}

// chanLink is one directed link: its delay stream, the instant its latest
// frame is due, and whether it went down.
type chanLink struct {
	line *delayLine
	// rng and due are guarded by line.mu.
	rng  *rand.Rand
	due  int64
	down atomic.Bool
}

// never is the deadline of an empty delay line.
const never = math.MaxInt64

// lineKeep is the capacity, in frames, a delay line keeps in its slab and
// its delivery batch once it drains; larger buffers, left by a burst, are
// released, so an idle cluster retains no high-water mark.
const lineKeep = 32

// lineItem is one frame in a delay line: when it is due and on which link.
type lineItem struct {
	due  int64
	link int32
	f    Frame
}

// delayLine holds the frames in flight to one block of nodes in a
// value-typed 4-ary min-heap on due. A link's due instants strictly
// increase, so due order is send order on every link.
type delayLine struct {
	mu    sync.Mutex
	items []lineItem
	// armed is the deadline the line's goroutine sleeps until (never when
	// the line is empty); a sender that files an earlier frame wakes it.
	armed int64
	wake  chan struct{}
	sent  uint64 // guarded by mu

	delivered atomic.Uint64
}

// push files it and restores the heap order: the hole at the end climbs
// while its parent is due later, as in sim.EventHeap.
func (ln *delayLine) push(it lineItem) {
	s := append(ln.items, lineItem{})
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if s[parent].due <= it.due {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = it
	ln.items = s
}

// pop removes and returns the earliest frame; the line must be non-empty.
// A line that drains gives back a slab larger than lineKeep.
func (ln *delayLine) pop() lineItem {
	s := ln.items
	root := s[0]
	last := len(s) - 1
	it := s[last]
	s[last] = lineItem{} // the slab must not keep the payload alive
	s = s[:last]
	if last == 0 && cap(s) > lineKeep {
		s = nil
	}
	ln.items = s
	if last == 0 {
		return root
	}
	// The hole at the root sinks, the earliest of up to four children
	// moving up into it, until none is due before it.
	i, n := 0, len(s)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if s[c].due < s[min].due {
				min = c
			}
		}
		if s[min].due >= it.due {
			break
		}
		s[i] = s[min]
		i = min
	}
	s[i] = it
	return root
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
	n := g.N()
	t := &ChannelTransport{
		maxDelay: int64(maxDelay),
		epoch:    time.Now(),
		index:    make(map[linkKey]int32, 2*len(g.Edges())),
		links:    make([]chanLink, 0, 2*len(g.Edges())),
		lines:    make([]*delayLine, blocks(n)),
		stopCh:   make(chan struct{}),
	}
	for i := range t.lines {
		t.lines[i] = &delayLine{armed: never, wake: make(chan struct{}, 1)}
	}
	for _, e := range g.Edges() {
		a, b := core.NodeID(e[0]), core.NodeID(e[1])
		for _, key := range []linkKey{{a, b}, {b, a}} {
			t.index[key] = int32(len(t.links))
			t.links = append(t.links, chanLink{
				line: t.lines[blockOf(key[1], len(t.lines), n)],
				rng:  rand.New(rand.NewPCG(seed, linkSalt(key))),
			})
		}
	}
	return t
}

// linkSalt derives a per-link PCG stream id from the directed pair.
func linkSalt(key linkKey) uint64 {
	return uint64(key[0])<<32 ^ uint64(uint32(key[1])) ^ 0x9e3779b97f4a7c15
}

// now is the transport's clock in nanoseconds.
func (t *ChannelTransport) now() int64 { return int64(time.Since(t.epoch)) }

// Start launches one goroutine per delay line.
func (t *ChannelTransport) Start(deliver DeliverFunc) error {
	if t.started {
		return errAlreadyStarted
	}
	t.started = true
	t.deliver = deliver
	for _, ln := range t.lines {
		t.wg.Add(1)
		go t.run(ln)
	}
	return nil
}

// Send files the frame in its destination's delay line, dropping it when
// the pair is not a live link.
func (t *ChannelTransport) Send(f Frame) {
	if t.closed.Load() {
		return
	}
	i, ok := t.index[linkKey{f.From, f.To}]
	if !ok {
		return
	}
	l := &t.links[i]
	if l.down.Load() {
		return
	}
	ln := l.line
	now := t.now()
	ln.mu.Lock()
	l.due = max(now, l.due) + l.rng.Int64N(t.maxDelay) + 1
	ln.push(lineItem{due: l.due, link: i, f: f})
	ln.sent++
	wake := l.due < ln.armed
	if wake {
		ln.armed = l.due
	}
	ln.mu.Unlock()
	if wake {
		select {
		case ln.wake <- struct{}{}:
		default:
		}
	}
}

// run is a delay line's goroutine: it takes every frame that is due in
// one lock hold, delivers them in due order without the lock (a delivery
// may Send), and sleeps on one reused timer until the next is due or a
// sender files an earlier one. A frame whose link went down while it
// waited is destroyed.
func (t *ChannelTransport) run(ln *delayLine) {
	defer t.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var batch []lineItem
	for {
		ln.mu.Lock()
		now := t.now()
		for len(ln.items) > 0 && ln.items[0].due <= now {
			batch = append(batch, ln.pop())
		}
		next := int64(never)
		if len(ln.items) > 0 {
			next = ln.items[0].due
		}
		ln.armed = next
		ln.mu.Unlock()

		for i := range batch {
			if t.closed.Load() {
				return
			}
			if it := &batch[i]; !t.links[it.link].down.Load() {
				ln.delivered.Add(1)
				t.deliver(it.f)
			}
		}
		if len(batch) > 0 {
			clear(batch) // drop the payload references, keep the capacity
			batch = batch[:0]
			continue // time has passed: look again before sleeping
		}

		var fire <-chan time.Time
		if next != never {
			timer.Reset(time.Duration(next - now))
			fire = timer.C
		} else if cap(batch) > lineKeep {
			batch = nil
		}
		select {
		case <-t.stopCh:
			return
		case <-ln.wake:
		case <-fire:
		}
	}
}

// Stats reports the channel transport's telemetry: frame counts plus
// zeros for the reliability-shim counters — in-process delay lines never
// retransmit, duplicate or reorder, and the zeros say so explicitly.
func (t *ChannelTransport) Stats() telemetry.TransportStats {
	ts := telemetry.TransportStats{
		Schema:   telemetry.Schema,
		Kind:     "channel",
		Links:    len(t.links),
		AckRTTUS: metrics.NewSketch().Snapshot(),
	}
	for _, ln := range t.lines {
		ln.mu.Lock()
		ts.FramesSent += ln.sent
		ln.mu.Unlock()
		ts.FramesDelivered += ln.delivered.Load()
	}
	return ts
}

// LinkDown removes the link in both directions: later sends on it drop,
// and its frames still in a delay line are destroyed when they come due.
func (t *ChannelTransport) LinkDown(a, b core.NodeID) {
	for _, key := range []linkKey{{a, b}, {b, a}} {
		if i, ok := t.index[key]; ok {
			t.links[i].down.Store(true)
		}
	}
}

// Close stops delivery and waits for the delay lines' goroutines to exit.
func (t *ChannelTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	close(t.stopCh)
	t.wg.Wait()
	return nil
}
