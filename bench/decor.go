package bench

import (
	"sync"
	"sync/atomic"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/livenet"
	"lme/internal/telemetry"
	"lme/internal/trace"
)

// The traced pass sees the program only through three seams it already
// has: core.Protocol (what a runtime calls), core.Env (what a protocol
// calls back) and livenet.Transport. The decorators here forward every
// call unchanged and record, from this file alone, how long the far side
// took. They must be transparent: the tests pin that a decorated run
// publishes the same trace bytes and that a decorated transport keeps
// the FIFO/exactly-once contract.

// Span is one timed call into a layer. Raw spans are kept for a 1-in-64
// sample of operations and written to out/trace_<workload>.json.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Node   int32  `json:"node"`
	// Op identifies the operation the span belongs to: on live workloads
	// the node's attempt number (everything node Node does between the
	// Acquire call and its return shares it); on sim workloads the index
	// of the RunFor slice; on tables_full the experiment number.
	Op    uint64 `json:"op"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// sampleEvery is the raw-span sampling stride; maxSpans bounds the raw
// spans one pass keeps in memory (the aggregates always cover every call).
const (
	sampleEvery = 64
	maxSpans    = 200_000
)

// Handler kinds, indexing nodeTrace.calls.
const (
	kInit = iota
	kOnMessage
	kLinkUp
	kLinkDown
	kBecomeHungry
	kExitCS
	numKinds
)

var kindNames = [numKinds]string{
	"core.Init", "core.OnMessage", "core.OnLinkUp", "core.OnLinkDown", "core.BecomeHungry", "core.ExitCS",
}

// nodeTrace is one node's accumulators. The handler-side fields are
// written only by the goroutine currently executing the node (its event
// loop on livenet, the tile worker or coordinator on manet) and read
// after the run has been joined, so they need no synchronisation; op and
// root are the client loop's hand-off to that goroutine and are atomic.
type nodeTrace struct {
	calls  [numKinds]uint64
	busyNs int64 // handler durations, Env time included
	envNs  int64 // time inside Env.Send/Broadcast/SetState
	onMsg  logHist

	sendCalls uint64
	sendNs    int64
	captured  []core.Message

	// inEnv accumulates Env time during the handler in flight, so the
	// handler can report its self time.
	inEnv int64
	// cur is the span id of the handler in flight when its operation is
	// sampled (0 otherwise); nested transport spans name it as parent.
	cur uint64

	// op is attempt<<1 | sampled for the operation in flight (0 = none);
	// root the id of its root span.
	op   atomic.Uint64
	root atomic.Uint64
}

// tracer owns the accumulators and raw spans of one traced pass.
type tracer struct {
	// measuring gates accumulation to the measured window, so warm-up and
	// shutdown never reach the aggregates.
	measuring atomic.Bool
	nodes     []nodeTrace

	nextID atomic.Uint64
	spanMu sync.Mutex
	spans  []Span
	// dropped counts raw spans discarded once maxSpans was reached.
	dropped uint64
}

func newTracer(n int) *tracer {
	return &tracer{nodes: make([]nodeTrace, n)}
}

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

func (t *tracer) addSpan(s Span) {
	t.spanMu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.spanMu.Unlock()
}

// beginOp marks node id as working on operation op and returns the root
// span id (0 when the operation is not sampled).
func (t *tracer) beginOp(id core.NodeID, op uint64, sampled bool) uint64 {
	nt := &t.nodes[id]
	var root, bit uint64
	if sampled {
		root, bit = t.newID(), 1
	}
	nt.root.Store(root)
	nt.op.Store(op<<1 | bit)
	return root
}

func (t *tracer) endOp(id core.NodeID) { t.nodes[id].op.Store(0) }

// wrapProtocol returns p behind the timing decorator of node id.
func (t *tracer) wrapProtocol(id core.NodeID, p core.Protocol) core.Protocol {
	return &protoDecor{inner: p, t: t, nt: &t.nodes[id], id: int32(id)}
}

// protoDecor times the calls a runtime makes into one node's protocol.
type protoDecor struct {
	inner core.Protocol
	t     *tracer
	nt    *nodeTrace
	id    int32
}

var _ core.Protocol = (*protoDecor)(nil)

// call is the bookkeeping of one handler call in flight. It saves the
// enclosing call's state, so a handler re-entered from inside an Env call
// (a listener that calls back into the protocol) nests correctly.
type call struct {
	start    int64
	sid      uint64
	outerEnv int64
	outerCur uint64
}

// enter opens a handler call; leave closes it and accumulates.
func (p *protoDecor) enter() call {
	nt := p.nt
	c := call{outerEnv: nt.inEnv, outerCur: nt.cur}
	nt.inEnv = 0
	if nt.op.Load()&1 == 1 {
		c.sid = p.t.newID()
		nt.cur = c.sid
	}
	c.start = now()
	return c
}

func (p *protoDecor) leave(kind int, c call) {
	end := now()
	nt := p.nt
	start, sid := c.start, c.sid
	if p.t.measuring.Load() {
		nt.calls[kind]++
		nt.busyNs += end - start
		nt.envNs += nt.inEnv
		if kind == kOnMessage {
			nt.onMsg.add(end - start - nt.inEnv)
		}
	}
	if sid != 0 {
		p.t.addSpan(Span{ID: sid, Parent: nt.root.Load(), Name: kindNames[kind],
			Node: p.id, Op: nt.op.Load() >> 1, Start: start, End: end})
	}
	nt.inEnv, nt.cur = c.outerEnv, c.outerCur
}

func (p *protoDecor) Init(env core.Env) {
	c := p.enter()
	p.inner.Init(wrapEnv(env, p))
	p.leave(kInit, c)
}

func (p *protoDecor) OnMessage(from core.NodeID, msg core.Message) {
	c := p.enter()
	p.inner.OnMessage(from, msg)
	p.leave(kOnMessage, c)
}

func (p *protoDecor) OnLinkUp(peer core.NodeID, iAmMoving bool) {
	c := p.enter()
	p.inner.OnLinkUp(peer, iAmMoving)
	p.leave(kLinkUp, c)
}

func (p *protoDecor) OnLinkDown(peer core.NodeID) {
	c := p.enter()
	p.inner.OnLinkDown(peer)
	p.leave(kLinkDown, c)
}

func (p *protoDecor) BecomeHungry() {
	c := p.enter()
	p.inner.BecomeHungry()
	p.leave(kBecomeHungry, c)
}

func (p *protoDecor) ExitCS() {
	c := p.enter()
	p.inner.ExitCS()
	p.leave(kExitCS, c)
}

// State is a plain read the runtimes poll; it is forwarded untimed.
func (p *protoDecor) State() core.State { return p.inner.State() }

// envDecor times the calls a protocol makes back into its runtime, so a
// handler's self time excludes the runtime's send and state-change paths.
// It forwards the optional trace.Emitter / trace.Interest faces exactly as
// far as the wrapped Env has them.
type envDecor struct {
	core.Env
	p *protoDecor
}

// envDecorEmitter is envDecor for runtimes whose Env also implements the
// trace extension; protocols type-assert for it in Init.
type envDecorEmitter struct {
	envDecor
	em trace.Emitter
	in trace.Interest
}

func wrapEnv(env core.Env, p *protoDecor) core.Env {
	d := envDecor{Env: env, p: p}
	em, okE := env.(trace.Emitter)
	in, okI := env.(trace.Interest)
	if okE && okI {
		return &envDecorEmitter{envDecor: d, em: em, in: in}
	}
	return &d
}

func (e *envDecorEmitter) Emit(ev trace.Event)     { e.em.Emit(ev) }
func (e *envDecorEmitter) Wants(k trace.Kind) bool { return e.in.Wants(k) }

func (e *envDecor) Send(to core.NodeID, msg core.Message) {
	start := now()
	e.Env.Send(to, msg)
	e.p.nt.inEnv += now() - start
}

func (e *envDecor) Broadcast(msg core.Message) {
	start := now()
	e.Env.Broadcast(msg)
	e.p.nt.inEnv += now() - start
}

func (e *envDecor) SetState(s core.State) {
	start := now()
	e.Env.SetState(s)
	e.p.nt.inEnv += now() - start
}

// captureMsgs is how many messages per sender the Transport decorator
// keeps for the wire layer's direct timed calls.
const captureMsgs = 16

// linkTrace is one directed link's accumulators. pending is shared by the
// sender (Send) and the receiver (deliver); the rest is written only by
// the link's sequential deliver calls.
type linkTrace struct {
	mu       sync.Mutex
	pending  map[uint64]int64 // mseq → Send entry time
	lastMseq uint64

	transit   logHist
	deliverNs int64
	delivered uint64
	// outOfOrder counts deliveries whose mseq did not increase; unknown
	// deliveries of an mseq that was never sent or already delivered.
	// Either breaks the Transport contract and fails the run.
	outOfOrder, unknown uint64
}

// transportDecor times livenet.Transport from outside and forwards
// Stats() so Cluster.TransportStats keeps working.
type transportDecor struct {
	inner   livenet.Transport
	t       *tracer
	links   map[[2]core.NodeID]*linkTrace
	deliver livenet.DeliverFunc
}

var (
	_ livenet.Transport   = (*transportDecor)(nil)
	_ livenet.StatsSource = (*transportDecor)(nil)
)

func (t *tracer) wrapTransport(inner livenet.Transport, g *graph.Graph) *transportDecor {
	d := &transportDecor{inner: inner, t: t, links: make(map[[2]core.NodeID]*linkTrace, 2*len(g.Edges()))}
	for _, e := range g.Edges() {
		a, b := core.NodeID(e[0]), core.NodeID(e[1])
		d.links[[2]core.NodeID{a, b}] = &linkTrace{pending: map[uint64]int64{}}
		d.links[[2]core.NodeID{b, a}] = &linkTrace{pending: map[uint64]int64{}}
	}
	return d
}

func (d *transportDecor) Start(deliver livenet.DeliverFunc) error {
	d.deliver = deliver
	return d.inner.Start(d.onDeliver)
}

func (d *transportDecor) Send(f livenet.Frame) {
	start := now()
	lt := d.links[[2]core.NodeID{f.From, f.To}]
	if lt != nil {
		lt.mu.Lock()
		lt.pending[f.Mseq] = start
		lt.mu.Unlock()
	}
	d.inner.Send(f)
	end := now()
	nt := &d.t.nodes[f.From]
	if d.t.measuring.Load() {
		nt.sendCalls++
		nt.sendNs += end - start
		if len(nt.captured) < captureMsgs {
			nt.captured = append(nt.captured, f.Msg)
		}
	}
	if nt.cur != 0 {
		d.t.addSpan(Span{ID: d.t.newID(), Parent: nt.cur, Name: "livenet.Send",
			Node: int32(f.From), Op: nt.op.Load() >> 1, Start: start, End: end})
	}
}

func (d *transportDecor) onDeliver(f livenet.Frame) {
	start := now()
	lt := d.links[[2]core.NodeID{f.From, f.To}]
	var sent int64
	if lt != nil {
		lt.mu.Lock()
		var ok bool
		if sent, ok = lt.pending[f.Mseq]; ok {
			delete(lt.pending, f.Mseq)
		} else {
			lt.unknown++
		}
		if f.Mseq <= lt.lastMseq {
			lt.outOfOrder++
		}
		lt.lastMseq = f.Mseq
		lt.mu.Unlock()
	}
	d.deliver(f)
	end := now()
	if lt == nil {
		return
	}
	if d.t.measuring.Load() {
		lt.delivered++
		lt.deliverNs += end - start
		if sent != 0 {
			lt.transit.add(start - sent)
		}
	}
	// A frame that reaches a node whose operation is sampled is part of
	// that operation: record its flight and its delivery under the root.
	nt := &d.t.nodes[f.To]
	if op := nt.op.Load(); op&1 == 1 {
		root := nt.root.Load()
		if sent != 0 {
			d.t.addSpan(Span{ID: d.t.newID(), Parent: root, Name: "livenet.transit",
				Node: int32(f.To), Op: op >> 1, Start: sent, End: start})
		}
		d.t.addSpan(Span{ID: d.t.newID(), Parent: root, Name: "livenet.deliver",
			Node: int32(f.To), Op: op >> 1, Start: start, End: end})
	}
}

func (d *transportDecor) LinkDown(a, b core.NodeID) { d.inner.LinkDown(a, b) }
func (d *transportDecor) Close() error              { return d.inner.Close() }

// Stats forwards the wrapped transport's telemetry (zero value when it
// has none).
func (d *transportDecor) Stats() telemetry.TransportStats {
	if src, ok := d.inner.(livenet.StatsSource); ok {
		return src.Stats()
	}
	return telemetry.TransportStats{}
}

// contractBreaches sums the FIFO/exactly-once breaches the decorator saw.
func (d *transportDecor) contractBreaches() uint64 {
	var n uint64
	for _, lt := range d.links {
		n += lt.outOfOrder + lt.unknown
	}
	return n
}
