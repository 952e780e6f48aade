package livenet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/metrics"
	"lme/internal/sim"
	"lme/internal/telemetry"
	"lme/internal/wire"
)

// The algorithms assume reliable FIFO links (§3.1); UDP gives neither.
// UDPTransport restores the contract with a per-directed-link reliability
// shim: every data frame carries a per-link sequence number, the receiver
// delivers strictly in sequence through a reorder buffer, duplicates are
// suppressed twice (by sequence number and by the sender's monotone
// message id), and the sender retransmits unacknowledged frames on a
// timer until the receiver's cumulative ACK covers them.
//
// The wire format is the v2 coalesced framing of internal/wire: one
// datagram carries many frames for a directed link plus an optional
// piggybacked cumulative ACK for the reverse direction (see
// wire/dgram.go for the byte layout, DESIGN.md §15 for the rules).
// Outbound frames accumulate in a per-link datagram buffer that Send
// writes to the socket itself as soon as a frame arrives uncorked
// (!Frame.More) or the buffer reaches the MTU budget — data never waits
// on a timer. ACKs are never sent eagerly: the receiver owes one after
// each data datagram, and the debt is settled by riding on the next data
// datagram to that peer or, failing that, by a standalone ACK datagram
// once it has waited RTO/8. Payloads are encoded by the
// zero-allocation codecs each algorithm's wire.go registers with
// internal/wire; the gob path (UDPOptions.Gob) is retained as the
// differential-test oracle and benchmark baseline.
const (
	udpMaxPayload = 60 << 10

	// defaultUDPMTU is the datagram coalescing budget: corked frames go
	// out once the buffer reaches it. It is a soft budget sized to the
	// classic ethernet-safe payload; a single oversized frame still goes
	// out alone (loopback carries up to 64 KiB).
	defaultUDPMTU = 1400

	defaultUDPRTO = 20 * time.Millisecond

	// ackDelayDiv derives the delayed-ACK wait from the RTO: an owed ACK
	// waits RTO/8 for reverse data to ride on before it costs a datagram
	// of its own — long enough that a request's ACK rides on the reply,
	// far enough below the RTO that it never provokes a retransmission.
	ackDelayDiv = 8
)

// UDPOptions configures the UDP transport; zero values select the
// defaults above.
type UDPOptions struct {
	// RTO is the retransmission timeout (default 20ms).
	RTO time.Duration
	// MTU is the datagram coalescing budget in bytes (default 1400).
	MTU int
	// Gob switches payload encoding to the encoding/gob oracle (one
	// encoder per message, as before the codec registry). Benchmarks and
	// differential tests only.
	Gob bool
}

// wirePayload wraps the protocol message so gob encodes it as an
// interface value (restoring the concrete registered type on decode).
type wirePayload struct {
	M core.Message
}

// udpSendLink is the sender half of one directed link.
type udpSendLink struct {
	mu      sync.Mutex
	nextSeq uint64
	unacked []udpPending
	down    bool

	// Datagram under construction: corked frames waiting for the turn's
	// last frame on this link. gen counts buffer hand-offs so a delayed-ACK
	// queue entry can recognise that its debt already rode out on data
	// (or the link went down); scheduled records that an entry is
	// outstanding for the current gen.
	buf       []byte
	bufFrames uint64
	gen       uint64
	scheduled bool
	// ackOwed/ackSeq is the cumulative-ACK debt for the reverse link:
	// settled by piggybacking on the next data datagram, or by a
	// standalone ACK datagram when the ACK delay expires first.
	ackOwed bool
	ackSeq  uint64

	// Wire telemetry, cumulative, guarded by mu.
	sent         uint64 // frames accepted by Send
	retransmits  uint64 // frames resent by the RTO loop
	datagrams    uint64 // datagrams written (data + standalone ACK)
	ackDgrams    uint64 // standalone ACK datagrams
	piggyAcks    uint64 // ACKs that rode on a data datagram
	framesWire   uint64 // frames written, retransmissions included
	wireBytes    uint64 // total datagram bytes written
	payloadBytes uint64 // codec payload bytes accepted by Send
}

type udpPending struct {
	seq      uint64
	frame    []byte // one encoded frame: header + payload
	lastSent time.Time
	resent   bool // ever retransmitted — its ACK is ambiguous for RTT (Karn's rule)
}

// udpRecvLink is the receiver half of one directed link.
type udpRecvLink struct {
	mu       sync.Mutex
	nextSeq  uint64               // next in-order seq expected (1-based)
	lastMseq uint64               // msg-id dedup guard: delivered ids are strictly increasing
	reorder  map[uint64]udpParked // out-of-order frames keyed by seq
	down     bool

	// Wire telemetry, cumulative, guarded by mu.
	delivered uint64 // frames handed to the delivery callback
	dupDrops  uint64 // duplicates suppressed (stale seq or stale mseq)
	depthHW   uint64 // reorder-buffer high-water depth
	overflow  uint64 // frames discarded because the reorder buffer was full
}

// udpParked is one out-of-order frame waiting in the reorder buffer; the
// payload is copied out of the socket read buffer.
type udpParked struct {
	mseq    uint64
	sentAt  int64
	payload []byte
	gob     bool
}

// udpReorderCap bounds the reorder buffer per link; frames beyond the
// window are dropped and recovered by retransmission.
const udpReorderCap = 1024

// flushReq is one entry of the delayed-ACK queue: link key, the buffer
// generation the debt was recorded in, and the deadline. Deadlines are
// monotone (every entry is now+RTO/8), so FIFO pop order is deadline
// order and one goroutine drains the queue with a single timer.
type flushReq struct {
	key linkKey
	gen uint64
	at  time.Time
}

// dgramPool recycles datagram build buffers across links and flushes.
var dgramPool = sync.Pool{
	New: func() any { return make([]byte, 0, 2048) },
}

func getDgramBuf() []byte  { return dgramPool.Get().([]byte)[:0] }
func putDgramBuf(b []byte) { dgramPool.Put(b[:0]) } //nolint:staticcheck // []byte in a Pool is fine here

// UDPTransport runs the cluster's links over loopback UDP sockets, one
// socket per node, with the reliability shim documented above. It is the
// deployment-shaped transport: same Transport contract as the channel
// implementation, exercised by the same conformance suite.
type UDPTransport struct {
	n     int
	nbrs  [][]core.NodeID // adjacency, copied — never aliases the cluster's view
	conns []*net.UDPConn
	addrs []*net.UDPAddr

	send map[linkKey]*udpSendLink
	recv map[linkKey]*udpRecvLink

	deliver DeliverFunc
	rto     time.Duration
	mtu     int
	gob     bool
	started bool
	closed  atomic.Bool
	stopCh  chan struct{}
	wg      sync.WaitGroup

	flushMu   sync.Mutex
	flushCond *sync.Cond
	flushQ    []flushReq
	flushStop bool

	// rtt sketches the send→cumulative-ACK round trip (µs) across all
	// links; reader goroutines observe into it concurrently, hence the
	// dedicated lock.
	rttMu sync.Mutex
	rtt   *metrics.Sketch

	// mangle, when set (tests only), intercepts every outgoing datagram
	// that carries frames and returns the datagrams actually written —
	// it simulates loss (empty slice), duplication and corruption so the
	// conformance suite can exercise the shim without a lossy network.
	// Standalone ACK datagrams bypass it.
	mangle func(pkt []byte) [][]byte
}

var _ Transport = (*UDPTransport)(nil)

// NewUDPTransport binds one loopback UDP socket per node of g with
// default options except the retransmission timeout (default 20ms when
// ≤ 0). Kept as the common constructor; NewUDPTransportOpts exposes the
// full option set.
func NewUDPTransport(g *graph.Graph, rto time.Duration) (*UDPTransport, error) {
	return NewUDPTransportOpts(g, UDPOptions{RTO: rto})
}

// NewUDPTransportOpts binds one loopback UDP socket per node of g and
// builds the per-directed-link shim state.
func NewUDPTransportOpts(g *graph.Graph, opts UDPOptions) (*UDPTransport, error) {
	if opts.RTO <= 0 {
		opts.RTO = defaultUDPRTO
	}
	if opts.MTU <= 0 {
		opts.MTU = defaultUDPMTU
	}
	n := g.N()
	t := &UDPTransport{
		n:      n,
		nbrs:   make([][]core.NodeID, n),
		conns:  make([]*net.UDPConn, n),
		addrs:  make([]*net.UDPAddr, n),
		send:   make(map[linkKey]*udpSendLink, 2*len(g.Edges())),
		recv:   make(map[linkKey]*udpRecvLink, 2*len(g.Edges())),
		rto:    opts.RTO,
		mtu:    opts.MTU,
		gob:    opts.Gob,
		stopCh: make(chan struct{}),
		rtt:    metrics.NewSketch(),
	}
	t.flushCond = sync.NewCond(&t.flushMu)
	for i := 0; i < n; i++ {
		// Copy-on-retain: the transport keeps its own adjacency slices so
		// it never aliases a runtime-owned Neighbors() view.
		for _, nb := range g.Neighbors(i) {
			t.nbrs[i] = append(t.nbrs[i], core.NodeID(nb))
		}
		conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.closeConns()
			return nil, fmt.Errorf("livenet: udp bind node %d: %w", i, err)
		}
		t.conns[i] = conn
		t.addrs[i] = conn.LocalAddr().(*net.UDPAddr)
	}
	for _, e := range g.Edges() {
		a, b := core.NodeID(e[0]), core.NodeID(e[1])
		t.send[linkKey{a, b}] = &udpSendLink{nextSeq: 1}
		t.send[linkKey{b, a}] = &udpSendLink{nextSeq: 1}
		t.recv[linkKey{a, b}] = &udpRecvLink{nextSeq: 1, reorder: make(map[uint64]udpParked)}
		t.recv[linkKey{b, a}] = &udpRecvLink{nextSeq: 1, reorder: make(map[uint64]udpParked)}
	}
	return t, nil
}

func (t *UDPTransport) closeConns() {
	for _, c := range t.conns {
		if c != nil {
			c.Close()
		}
	}
}

// Start launches one reader goroutine per socket, the delayed-ACK
// goroutine and the retransmission loop.
func (t *UDPTransport) Start(deliver DeliverFunc) error {
	if t.started {
		return errAlreadyStarted
	}
	t.started = true
	t.deliver = deliver
	for i := range t.conns {
		t.wg.Add(1)
		go t.read(core.NodeID(i))
	}
	t.wg.Add(2)
	go t.retransmitLoop()
	go t.flushLoop()
	return nil
}

// Send encodes the frame into the link's datagram buffer, registers it
// as unacknowledged, and writes the datagram on the caller's goroutine
// unless the frame is corked (f.More) and the MTU budget still has room:
// no timer, no hand-off. A corked frame whose follow-up never comes is
// already in unacked, so the RTO loop transmits it. Drops silently on
// unknown or downed links, oversized payloads, and after Close — the
// same semantics as the channel transport. A message type with no
// registered codec panics: the failure must be loud at the sender, not a
// mystery at the peer.
func (t *UDPTransport) Send(f Frame) {
	if t.closed.Load() {
		return
	}
	key := linkKey{f.From, f.To}
	sl := t.send[key]
	if sl == nil {
		return
	}
	sl.mu.Lock()
	if sl.down {
		sl.mu.Unlock()
		return
	}
	if sl.buf == nil {
		sl.buf = wire.AppendDgramHeader(getDgramBuf(), uint32(f.From), uint32(f.To))
		if t.gob {
			wire.SetDgramGob(sl.buf)
		}
	}
	// Encode the frame in place: header with a zero length, payload
	// appended by the codec, length backfilled. On any encode failure the
	// buffer rolls back to frameStart and the datagram is untouched.
	frameStart := len(sl.buf)
	seq := sl.nextSeq
	sl.buf = wire.AppendFrame(sl.buf, seq, f.Mseq, int64(f.SentAt), nil)
	payStart := len(sl.buf)
	if t.gob {
		var gbuf bytes.Buffer
		if err := gob.NewEncoder(&gbuf).Encode(wirePayload{M: f.Msg}); err != nil {
			sl.buf = sl.buf[:frameStart]
			t.rollbackEmpty(sl)
			sl.mu.Unlock()
			return
		}
		sl.buf = append(sl.buf, gbuf.Bytes()...)
	} else {
		var err error
		sl.buf, err = wire.AppendMessage(sl.buf, f.Msg)
		if err != nil {
			sl.buf = sl.buf[:frameStart]
			t.rollbackEmpty(sl)
			sl.mu.Unlock()
			panic(err) // *wire.UnregisteredError: fail loudly at Send
		}
	}
	paylen := len(sl.buf) - payStart
	if paylen > udpMaxPayload {
		sl.buf = sl.buf[:frameStart]
		t.rollbackEmpty(sl)
		sl.mu.Unlock()
		return
	}
	wire.BackfillFrameLen(sl.buf, frameStart, paylen)

	sl.nextSeq++
	sl.sent++
	sl.payloadBytes += uint64(paylen)
	sl.bufFrames++
	frame := make([]byte, len(sl.buf)-frameStart)
	copy(frame, sl.buf[frameStart:])
	sl.unacked = append(sl.unacked, udpPending{seq: seq, frame: frame, lastSent: time.Now()})

	if f.More && len(sl.buf) < t.mtu {
		sl.mu.Unlock()
		return
	}
	pkt := t.takeLocked(sl)
	sl.mu.Unlock()
	t.writeDgram(key, pkt)
	putDgramBuf(pkt)
}

// rollbackEmpty recycles the link's datagram buffer if a rolled-back
// frame left it headed but empty and no ACK debt justifies keeping it.
// Caller holds sl.mu.
func (t *UDPTransport) rollbackEmpty(sl *udpSendLink) {
	if sl.bufFrames == 0 && !sl.ackOwed {
		putDgramBuf(sl.buf)
		sl.buf = nil
	}
}

// takeLocked hands the link's datagram buffer to the caller for writing:
// it settles any owed ACK by piggybacking, advances the buffer
// generation (invalidating the delayed-ACK entry) and books the wire
// telemetry. Caller holds sl.mu and must putDgramBuf after writing.
func (t *UDPTransport) takeLocked(sl *udpSendLink) []byte {
	pkt := sl.buf
	sl.buf = nil
	frames := sl.bufFrames
	sl.bufFrames = 0
	sl.gen++
	sl.scheduled = false
	if sl.ackOwed {
		wire.SetDgramAck(pkt, sl.ackSeq)
		sl.ackOwed = false
		sl.piggyAcks++
	}
	sl.datagrams++
	sl.framesWire += frames
	sl.wireBytes += uint64(len(pkt))
	return pkt
}

// scheduleFlush arms the ACK delay for one link buffer generation.
func (t *UDPTransport) scheduleFlush(key linkKey, gen uint64) {
	req := flushReq{key: key, gen: gen, at: time.Now().Add(t.rto / ackDelayDiv)}
	t.flushMu.Lock()
	if t.flushStop {
		t.flushMu.Unlock()
		return
	}
	t.flushQ = append(t.flushQ, req)
	t.flushCond.Signal()
	t.flushMu.Unlock()
}

// flushLoop drains the delayed-ACK queue: entries are appended with a
// uniform delay, so the head is always the earliest deadline — one
// goroutine and one timer serve every link.
func (t *UDPTransport) flushLoop() {
	defer t.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		t.flushMu.Lock()
		for len(t.flushQ) == 0 && !t.flushStop {
			t.flushCond.Wait()
		}
		if t.flushStop {
			t.flushMu.Unlock()
			return
		}
		req := t.flushQ[0]
		t.flushQ = t.flushQ[1:]
		t.flushMu.Unlock()

		if d := time.Until(req.at); d > 0 {
			timer.Reset(d)
			select {
			case <-t.stopCh:
				timer.Stop()
				return
			case <-timer.C:
			}
		}
		t.flushLink(req.key, req.gen)
	}
}

// flushLink settles one ACK-delay expiry. If the generation is still
// current no data datagram has left since the debt was recorded: the
// owed ACK goes out standalone — or, when corked frames are buffered
// (their follow-up has not arrived yet, or never will), on a datagram
// with them.
func (t *UDPTransport) flushLink(key linkKey, gen uint64) {
	sl := t.send[key]
	if sl == nil || t.closed.Load() {
		return
	}
	sl.mu.Lock()
	if sl.gen != gen || sl.down {
		sl.mu.Unlock()
		return
	}
	if sl.buf != nil && sl.bufFrames > 0 {
		pkt := t.takeLocked(sl)
		sl.mu.Unlock()
		t.writeDgram(key, pkt)
		putDgramBuf(pkt)
		return
	}
	if sl.ackOwed {
		// Reuse a headered-but-empty buffer (a rolled-back Send can leave
		// one) rather than leaking it.
		pkt := sl.buf
		sl.buf = nil
		if pkt == nil {
			pkt = wire.AppendDgramHeader(getDgramBuf(), uint32(key[0]), uint32(key[1]))
		}
		wire.SetDgramAck(pkt, sl.ackSeq)
		sl.ackOwed = false
		sl.gen++
		sl.scheduled = false
		sl.datagrams++
		sl.ackDgrams++
		sl.wireBytes += uint64(len(pkt))
		sl.mu.Unlock()
		t.conns[key[0]].WriteToUDP(pkt, t.addrs[key[1]]) //nolint:errcheck // lost acks are recovered by dedup
		putDgramBuf(pkt)
		return
	}
	if sl.buf != nil {
		// Headered but empty and no ACK debt left (a retransmit datagram
		// can settle the debt first): recycle instead of sending.
		putDgramBuf(sl.buf)
		sl.buf = nil
	}
	sl.gen++
	sl.scheduled = false
	sl.mu.Unlock()
}

// writeDgram sends one frame-carrying datagram from key[0]'s socket to
// key[1]'s address, applying the test mangle hook.
func (t *UDPTransport) writeDgram(key linkKey, pkt []byte) {
	pkts := [][]byte{pkt}
	if t.mangle != nil {
		pkts = t.mangle(pkt)
	}
	for _, p := range pkts {
		t.conns[key[0]].WriteToUDP(p, t.addrs[key[1]]) //nolint:errcheck // lossy medium; the shim retransmits
	}
}

// retransmitLoop rescans the unacknowledged frames of every link each
// rto/2 and repacks those older than rto into MTU-budgeted datagrams —
// the ACK/retry half of the shim. Retransmission coalesces exactly like
// first transmission: a loss burst resends as a few dense datagrams, not
// a frame-per-datagram storm.
func (t *UDPTransport) retransmitLoop() {
	defer t.wg.Done()
	tick := time.NewTicker(t.rto / 2)
	defer tick.Stop()
	for {
		select {
		case <-t.stopCh:
			return
		case <-tick.C:
		}
		now := time.Now()
		for key, sl := range t.send {
			var resend [][]byte
			sl.mu.Lock()
			var pkt []byte
			var frames uint64
			for i := range sl.unacked {
				if sl.down || now.Sub(sl.unacked[i].lastSent) < t.rto {
					continue
				}
				sl.unacked[i].lastSent = now
				sl.unacked[i].resent = true
				sl.retransmits++
				if pkt == nil {
					pkt = wire.AppendDgramHeader(getDgramBuf(), uint32(key[0]), uint32(key[1]))
					if t.gob {
						wire.SetDgramGob(pkt)
					}
					if sl.ackOwed {
						wire.SetDgramAck(pkt, sl.ackSeq)
						sl.ackOwed = false
						sl.piggyAcks++
					}
				}
				pkt = append(pkt, sl.unacked[i].frame...)
				frames++
				if len(pkt) >= t.mtu {
					sl.datagrams++
					sl.framesWire += frames
					sl.wireBytes += uint64(len(pkt))
					resend = append(resend, pkt)
					pkt, frames = nil, 0
				}
			}
			if pkt != nil {
				sl.datagrams++
				sl.framesWire += frames
				sl.wireBytes += uint64(len(pkt))
				resend = append(resend, pkt)
			}
			sl.mu.Unlock()
			for _, p := range resend {
				if t.closed.Load() {
					return
				}
				t.writeDgram(key, p)
				putDgramBuf(p)
			}
		}
	}
}

// read is the per-node socket loop: it parses datagrams addressed to
// node id, feeds piggybacked ACKs to the sender state and data frames to
// the receiver shim.
func (t *UDPTransport) read(id core.NodeID) {
	defer t.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, _, err := t.conns[id].ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		if t.closed.Load() {
			return
		}
		hdr, body, err := wire.ParseDgram(buf[:n])
		if err != nil {
			continue
		}
		from, to := core.NodeID(hdr.From), core.NodeID(hdr.To)
		if to != id || from < 0 || int(from) >= t.n {
			continue
		}
		if hdr.HasAck() {
			// The ack names the directed link id→from (we are the
			// sender): drop everything the cumulative seq covers.
			t.onAck(linkKey{id, from}, hdr.Ack)
		}
		if len(body) > 0 {
			t.onFrames(linkKey{from, to}, body, hdr.Gob())
		}
	}
}

// onAck discards acknowledged frames from the link's retransmit queue
// and samples their round trips (first-transmission frames only — a
// retransmitted frame's ACK cannot be attributed to one send). The
// sample spans encode → cumulative ACK, so on a link whose ACKs go
// standalone it includes the receiver's ACK delay.
func (t *UDPTransport) onAck(key linkKey, cum uint64) {
	sl := t.send[key]
	if sl == nil {
		return
	}
	now := time.Now()
	sl.mu.Lock()
	// unacked is in seq order, so a cumulative ACK covers a prefix.
	k := 0
	for k < len(sl.unacked) && sl.unacked[k].seq <= cum {
		k++
	}
	if k > 0 {
		t.rttMu.Lock()
		for _, p := range sl.unacked[:k] {
			if !p.resent {
				t.rtt.ObserveFloat(float64(now.Sub(p.lastSent)) / float64(time.Microsecond))
			}
		}
		t.rttMu.Unlock()
		rest := copy(sl.unacked, sl.unacked[k:])
		clear(sl.unacked[rest:])
		sl.unacked = sl.unacked[:rest]
	}
	sl.mu.Unlock()
}

// onFrames runs the receiver shim over every frame of one datagram —
// dedup, reorder, in-sequence delivery — then records the cumulative-ACK
// debt on the reverse link (absorbed into the next outbound data
// datagram, or sent standalone when the ACK delay expires).
func (t *UDPTransport) onFrames(key linkKey, body []byte, gobbed bool) {
	rl := t.recv[key]
	if rl == nil {
		return
	}
	rl.mu.Lock()
	if rl.down {
		rl.mu.Unlock()
		return // no delivery after LinkDown; no ack either — the link is gone
	}
	for len(body) > 0 {
		f, rest, err := wire.NextFrame(body)
		if err != nil {
			break // truncated datagram tail; retransmission recovers
		}
		body = rest
		t.frameLocked(rl, key, f, gobbed)
	}
	cum := rl.nextSeq - 1
	rl.mu.Unlock()
	t.oweAck(key, cum)
}

// frameLocked applies the shim to one frame. Caller holds rl.mu.
func (t *UDPTransport) frameLocked(rl *udpRecvLink, key linkKey, f wire.FrameView, gobbed bool) {
	switch {
	case f.Seq < rl.nextSeq:
		// Duplicate of a delivered frame (lost ack or retransmit race).
		rl.dupDrops++
		return
	case f.Seq > rl.nextSeq:
		if _, dup := rl.reorder[f.Seq]; dup {
			rl.dupDrops++
		} else if len(rl.reorder) < udpReorderCap {
			payload := make([]byte, len(f.Payload))
			copy(payload, f.Payload)
			rl.reorder[f.Seq] = udpParked{mseq: f.Mseq, sentAt: f.SentAt, payload: payload, gob: gobbed}
			if d := uint64(len(rl.reorder)); d > rl.depthHW {
				rl.depthHW = d
			}
		} else {
			// Beyond the reorder window: the frame is discarded and
			// recovered by the sender's retransmission once the buffer
			// drains. Counted — a hot reorder_overflow means the cap (or
			// the RTO) is mistuned for the link.
			rl.overflow++
		}
		return
	}
	// In sequence: deliver, then drain the reorder buffer.
	t.deliverLocked(rl, key, f.Mseq, f.SentAt, f.Payload, gobbed)
	for {
		next, ok := rl.reorder[rl.nextSeq]
		if !ok {
			break
		}
		delete(rl.reorder, rl.nextSeq)
		t.deliverLocked(rl, key, next.mseq, next.sentAt, next.payload, next.gob)
	}
}

// deliverLocked decodes and hands one in-sequence frame up, advancing
// the shim state. Caller holds rl.mu, which serialises deliveries per
// link — the FIFO contract.
func (t *UDPTransport) deliverLocked(rl *udpRecvLink, key linkKey, mseq uint64, sentAt int64, payload []byte, gobbed bool) {
	rl.nextSeq++
	if mseq <= rl.lastMseq {
		// Msg-id dedup: per link the sender's message ids are strictly
		// increasing, so a stale id here is a duplicate that slipped past
		// the sequence check (e.g. a corrupted seq field).
		rl.dupDrops++
		return
	}
	var msg core.Message
	var err error
	if gobbed {
		msg, err = decodePayload(payload)
	} else {
		msg, err = wire.DecodeMessage(payload)
	}
	if err != nil {
		return // undecodable payload; retransmission cannot help, drop
	}
	rl.lastMseq = mseq
	rl.delivered++
	t.deliver(Frame{
		From:   key[0],
		To:     key[1],
		Msg:    msg,
		Mseq:   mseq,
		SentAt: sim.Time(sentAt),
	})
}

// oweAck records a cumulative-ACK debt for the data link key (the ack
// travels key[1]→key[0], so it rides the reverse send link). The debt is
// settled by the next data datagram in that direction or, with nothing
// to ride on, by a standalone ACK datagram after the ACK delay.
func (t *UDPTransport) oweAck(key linkKey, cum uint64) {
	rev := linkKey{key[1], key[0]}
	sl := t.send[rev]
	if sl == nil {
		return
	}
	sl.mu.Lock()
	if sl.down {
		sl.mu.Unlock()
		return
	}
	sl.ackOwed = true
	sl.ackSeq = cum
	if !sl.scheduled {
		sl.scheduled = true
		gen := sl.gen
		sl.mu.Unlock()
		t.scheduleFlush(rev, gen)
		return
	}
	sl.mu.Unlock()
}

// LinkDown tears the link down in both directions: retransmission stops,
// queued, buffered and in-flight frames are dropped, later datagrams are
// ignored.
func (t *UDPTransport) LinkDown(a, b core.NodeID) {
	for _, key := range []linkKey{{a, b}, {b, a}} {
		if sl := t.send[key]; sl != nil {
			sl.mu.Lock()
			sl.down = true
			sl.unacked = nil
			if sl.buf != nil {
				putDgramBuf(sl.buf)
				sl.buf = nil
			}
			sl.bufFrames = 0
			sl.ackOwed = false
			sl.gen++
			sl.scheduled = false
			sl.mu.Unlock()
		}
		if rl := t.recv[key]; rl != nil {
			rl.mu.Lock()
			rl.down = true
			rl.reorder = make(map[uint64]udpParked)
			rl.mu.Unlock()
		}
	}
}

// Stats aggregates the shim's per-directed-link wire counters into the
// lme/telemetry/v1 transport record. Safe any time (including after
// Close): the link maps are immutable after construction and every
// counter sits under its link's lock.
func (t *UDPTransport) Stats() telemetry.TransportStats {
	ts := telemetry.TransportStats{
		Schema: telemetry.Schema,
		Kind:   "udp",
		Links:  len(t.send),
	}
	for _, sl := range t.send {
		sl.mu.Lock()
		ts.FramesSent += sl.sent
		ts.Retransmits += sl.retransmits
		ts.DatagramsSent += sl.datagrams
		ts.AckDatagrams += sl.ackDgrams
		ts.AcksPiggybacked += sl.piggyAcks
		ts.FramesWire += sl.framesWire
		ts.WireBytes += sl.wireBytes
		ts.PayloadBytes += sl.payloadBytes
		sl.mu.Unlock()
	}
	for _, rl := range t.recv {
		rl.mu.Lock()
		ts.FramesDelivered += rl.delivered
		ts.DupDrops += rl.dupDrops
		ts.ReorderOverflow += rl.overflow
		if rl.depthHW > ts.ReorderDepthHW {
			ts.ReorderDepthHW = rl.depthHW
		}
		rl.mu.Unlock()
	}
	if data := ts.DatagramsSent - ts.AckDatagrams; data > 0 {
		ts.FramesPerDatagram = float64(ts.FramesWire) / float64(data)
	}
	if ts.FramesSent > 0 {
		ts.PayloadBytesPerFrame = float64(ts.PayloadBytes) / float64(ts.FramesSent)
	}
	t.rttMu.Lock()
	ts.AckRTTUS = t.rtt.Snapshot()
	t.rttMu.Unlock()
	return ts
}

// Close shuts every socket and waits for the readers, the delayed-ACK
// loop and the retransmission loop to exit; no delivery happens after it
// returns.
func (t *UDPTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	close(t.stopCh)
	t.flushMu.Lock()
	t.flushStop = true
	t.flushCond.Broadcast()
	t.flushMu.Unlock()
	t.closeConns()
	t.wg.Wait()
	return nil
}

// decodePayload restores the concrete gob-registered message type (the
// oracle path; hot-path decoding goes through wire.DecodeMessage).
func decodePayload(b []byte) (core.Message, error) {
	var p wirePayload
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&p); err != nil {
		return nil, err
	}
	return p.M, nil
}
