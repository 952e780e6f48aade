package livenet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"net"
	"net/netip"
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
// A link still speaks the v2 coalesced framing of internal/wire — one
// link datagram carries many frames for a directed link plus an optional
// piggybacked cumulative ACK for the reverse direction — but links do not
// own sockets. The nodes are cut into one contiguous block per core, a
// "port": one socket, one reader goroutine and one send lock. What a
// socket write carries is a train (wire format v3): the link datagrams of
// one flush that go to the same destination port, back to back (see
// wire/dgram.go for the byte layout, DESIGN.md §15 for the rules).
//
// A port's socket is read from two places. Whoever flushes the port then
// polls it (poll): on loopback the trains a block wrote to itself are
// already in its socket when the write returns, so the sender collects
// them — and whatever else has arrived — on its own goroutine, with the
// link state it has just touched still in its cache. The reader goroutine
// blocks on the socket for everything that arrives while nobody flushes.
// Without the poll every frame crosses from the sender's core to the
// reader's and back, and the throughput of a saturated cluster follows
// the price of a cache miss between two cores of the host, which on a
// shared machine changes from one second to the next.
//
// Outbound frames accumulate in their link's datagram buffer. A frame
// that arrives uncorked (!Frame.More), or that fills its link datagram to
// the MTU budget, flushes the sender's port on the caller's goroutine:
// every link datagram under construction on the port is closed, every
// link of the port that owes a cumulative ACK and has no data to carry it
// gets an 18-byte ACK-only datagram, and the lot leaves as one train per
// destination port — data never waits on a timer. A port nobody flushes
// (ACK debts with no traffic to ride on, a cork whose promise was broken)
// is flushed by the timer loop after RTO/8. Payloads are encoded by the
// zero-allocation codecs each algorithm's wire.go registers with
// internal/wire; the gob path (UDPOptions.Gob) is retained as the
// differential-test oracle and benchmark baseline.
//
// Lock order: port (udpPort.mu) → link (udpSendLink.mu) → the port's ACK
// list (udpPort.ackMu). The receive side starts from the port's receive
// lock (udpPort.rmu, never taken with udpPort.mu held): under it, link
// locks (udpRecvLink.mu, held across the delivery callback; udpSendLink.mu
// for ACKs), then ackMu or rttMu as leaves.
const (
	udpMaxPayload = 60 << 10

	// defaultUDPMTU is the coalescing budget: a link datagram that
	// reaches it flushes its port, and a train is written before it would
	// grow past it. It is a soft budget sized to the classic
	// ethernet-safe payload; a single oversized frame still goes out
	// alone (loopback carries up to 64 KiB).
	defaultUDPMTU = 1400

	defaultUDPRTO = 20 * time.Millisecond

	// ackDelayDiv derives the timer loop's period from the RTO: an owed
	// ACK that nothing carried for one to two periods of RTO/8 costs a
	// train of its own — long enough that a request's ACK rides on the
	// reply, far enough below the RTO that it never provokes a
	// retransmission. rtoTicks is how many periods pass between two scans
	// for frames to retransmit (RTO/2).
	ackDelayDiv = 8
	rtoTicks    = ackDelayDiv / 2

	// udpSockBuf is the kernel buffer asked for on each socket, both
	// ways: one socket absorbs the bursts of a whole block of nodes.
	udpSockBuf = 4 << 20

	// udpReadBuf is the size of a socket read buffer: the largest UDP
	// datagram. pollMax bounds the trains one poll takes off the socket,
	// so a sender is never kept from its own work by what others send it.
	udpReadBuf = 64 << 10
	pollMax    = 32
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

// udpPort is one block of nodes behind one socket.
type udpPort struct {
	conn *net.UDPConn
	addr netip.AddrPort
	// fd is conn's descriptor for poll's non-blocking reads, -1 where the
	// platform has none to offer. It is only used under rmu, which Close
	// takes before it closes conn.
	fd int

	// rmu is the port's receive lock: one train is taken apart at a time,
	// by the reader or by a poll. rbuf is poll's read buffer (the reader
	// has its own, it blocks in the read).
	rmu  sync.Mutex
	rbuf []byte

	// mu is the port's send lock. It guards everything below down to
	// ackMu, and buf/bufSeq/bufFrames of the port's send links. With the
	// cluster's shards cut like the ports it has one taker on the frame
	// path, the shard's loop; the timer loop, LinkDown and Stats are the
	// others.
	mu sync.Mutex
	// open lists the send links with a datagram under construction, in
	// the order they were opened.
	open []*udpSendLink
	// trains[q] is the train under construction for destination port q.
	trains []train
	// waited records that the timer loop found work waiting (open links or
	// ACK debts) at its previous tick; if it is still set at the next one
	// nobody flushed in between and the timer loop does.
	waited bool

	// Wire telemetry, cumulative, of trains actually written.
	datagrams  uint64 // trains written
	ackDgrams  uint64 // trains without a data section
	piggyAcks  uint64 // cumulative ACKs that rode in a train carrying data
	framesWire uint64 // frames written, retransmissions included
	wireBytes  uint64 // train bytes written

	// ackMu is a leaf lock over the ACK list: the send links of the port
	// that came to owe an ACK since the last flush. The port's reader
	// appends, a flush takes the whole list; ackSpare is the flush's
	// previous list, recycled.
	ackMu    sync.Mutex
	acks     []*udpSendLink
	ackSpare []*udpSendLink

	// rtt sketches the send→cumulative-ACK round trip (µs) of the port's
	// links, under its own leaf lock; Stats merges the ports.
	rttMu sync.Mutex
	rtt   *metrics.Sketch
}

// train is one outgoing UDP datagram under construction.
type train struct {
	buf    []byte
	frames uint64 // data frames in its sections
	acks   uint64 // cumulative ACKs in its sections
}

// udpSendLink is the sender half of one directed link.
type udpSendLink struct {
	from, to core.NodeID
	port     *udpPort // the sender's
	dst      int      // the receiver's port

	// Link datagram under construction: corked frames waiting for their
	// port's flush. bufSeq is the seq of its first frame. Guarded by
	// port.mu.
	buf       []byte
	bufSeq    uint64
	bufFrames uint64

	mu      sync.Mutex
	nextSeq uint64
	unacked []udpPending
	down    bool
	// ackOwed/ackSeq is the cumulative-ACK debt for the reverse link:
	// settled by the port's next flush, on this link's data datagram if it
	// has one, else on an ACK-only datagram.
	ackOwed bool
	ackSeq  uint64

	// Wire telemetry, cumulative, guarded by mu.
	sent         uint64 // frames accepted by Send
	retransmits  uint64 // frames resent by the RTO scan
	payloadBytes uint64 // codec payload bytes accepted by Send
}

type udpPending struct {
	seq   uint64
	frame []byte // one encoded frame: header + payload
	// lastSent is when the frame last left in a train — zero while it has
	// only been encoded into a link datagram nobody has flushed yet, so
	// neither the RTT sample nor the RTO age includes the cork wait.
	lastSent time.Time
	resent   bool // ever retransmitted — its ACK is ambiguous for RTT (Karn's rule)
}

// udpRecvLink is the receiver half of one directed link.
type udpRecvLink struct {
	from, to core.NodeID
	// rev is the send link of the reverse direction: the one this link's
	// piggybacked ACKs acknowledge, and the one that carries the ACKs this
	// link comes to owe.
	rev *udpSendLink

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

// UDPTransport runs the cluster's links over loopback UDP sockets, one
// socket per block of nodes, with the reliability shim documented above.
// It is the deployment-shaped transport: same Transport contract as the
// channel implementation, exercised by the same conformance suite.
type UDPTransport struct {
	n     int
	nbrs  [][]core.NodeID // adjacency, copied — never aliases the cluster's view
	ports []*udpPort

	// send and recv hold the two halves of every directed link. Built
	// once by the constructor and only read afterwards.
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

	// mangle, when set (tests only), intercepts every outgoing link
	// datagram that carries frames and returns the datagrams that actually
	// board the train — it simulates loss (empty slice), duplication and
	// corruption so the conformance suite can exercise the shim without a
	// lossy network. ACK-only datagrams bypass it.
	mangle func(pkt []byte) [][]byte
}

var _ Transport = (*UDPTransport)(nil)

// NewUDPTransport binds the loopback UDP sockets for g with default
// options except the retransmission timeout (default 20ms when ≤ 0). Kept
// as the common constructor; NewUDPTransportOpts exposes the full option
// set.
func NewUDPTransport(g *graph.Graph, rto time.Duration) (*UDPTransport, error) {
	return NewUDPTransportOpts(g, UDPOptions{RTO: rto})
}

// NewUDPTransportOpts binds one loopback UDP socket per block of nodes of
// g — as many blocks as cores — and builds the per-directed-link shim
// state.
func NewUDPTransportOpts(g *graph.Graph, opts UDPOptions) (*UDPTransport, error) {
	return newUDPTransport(g, opts, blocks(g.N()))
}

// newUDPTransport is the constructor with the port count spelled out.
func newUDPTransport(g *graph.Graph, opts UDPOptions, nports int) (*UDPTransport, error) {
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
		send:   make(map[linkKey]*udpSendLink, 2*len(g.Edges())),
		recv:   make(map[linkKey]*udpRecvLink, 2*len(g.Edges())),
		rto:    opts.RTO,
		mtu:    opts.MTU,
		gob:    opts.Gob,
		stopCh: make(chan struct{}),
	}
	for range nports {
		conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.closeConns()
			return nil, fmt.Errorf("livenet: udp bind port %d: %w", len(t.ports), err)
		}
		// Best effort: the kernel clamps to its own limits, and the shim
		// recovers whatever a short buffer drops.
		conn.SetReadBuffer(udpSockBuf)  //nolint:errcheck
		conn.SetWriteBuffer(udpSockBuf) //nolint:errcheck
		t.ports = append(t.ports, &udpPort{
			conn:   conn,
			addr:   conn.LocalAddr().(*net.UDPAddr).AddrPort(),
			fd:     pollFD(conn),
			rbuf:   make([]byte, udpReadBuf),
			trains: make([]train, nports),
			rtt:    metrics.NewSketch(),
		})
	}
	for i := 0; i < n; i++ {
		// Copy-on-retain: the transport keeps its own adjacency slices so
		// it never aliases a runtime-owned Neighbors() view.
		for _, nb := range g.Neighbors(i) {
			t.nbrs[i] = append(t.nbrs[i], core.NodeID(nb))
		}
		me := core.NodeID(i)
		for _, peer := range t.nbrs[i] {
			sl := &udpSendLink{from: me, to: peer, port: t.ports[t.portOf(me)], dst: t.portOf(peer), nextSeq: 1}
			t.send[linkKey{me, peer}] = sl
			t.recv[linkKey{peer, me}] = &udpRecvLink{from: peer, to: me, rev: sl, nextSeq: 1}
		}
	}
	return t, nil
}

// portOf maps a node to the port that hosts it.
func (t *UDPTransport) portOf(id core.NodeID) int { return blockOf(id, len(t.ports), t.n) }

// closeConns closes every socket, each under its port's receive lock: a
// poll in flight finishes first, and none reads the descriptor afterwards.
func (t *UDPTransport) closeConns() {
	for _, p := range t.ports {
		p.rmu.Lock()
		p.conn.Close()
		p.rmu.Unlock()
	}
}

// Start launches one reader goroutine per port and the timer loop.
func (t *UDPTransport) Start(deliver DeliverFunc) error {
	if t.started {
		return errAlreadyStarted
	}
	t.started = true
	t.deliver = deliver
	for _, p := range t.ports {
		t.wg.Add(1)
		go t.read(p)
	}
	t.wg.Add(1)
	go t.timerLoop()
	return nil
}

// Send encodes the frame into its link's datagram buffer and registers it
// as unacknowledged. Unless the frame is corked (f.More) and the link
// datagram still has room under the MTU budget, it then flushes the
// sender's port on the caller's goroutine — no timer, no hand-off — and
// polls the port's socket, so frames addressed to the sender's block may
// be delivered on the caller's goroutine before Send returns. A corked
// frame whose follow-up never comes is flushed by the timer loop.
// Drops silently on unknown or downed links, oversized payloads, and
// after Close — the same semantics as the channel transport. A message
// type with no registered codec panics: the failure must be loud at the
// sender, not a mystery at the peer.
func (t *UDPTransport) Send(f Frame) {
	if t.closed.Load() {
		return
	}
	sl := t.send[linkKey{f.From, f.To}]
	if sl == nil {
		return
	}
	p := sl.port
	p.mu.Lock()
	flush := t.encode(sl, f) && (!f.More || len(sl.buf) >= t.mtu)
	if flush {
		t.flushLocked(p, time.Now())
	}
	p.mu.Unlock()
	if flush {
		t.poll(p)
	}
}

// poll takes what has arrived on the port's socket, without blocking, on
// the caller's goroutine: at most pollMax trains, and nothing at all when
// a train of the port is being taken apart already — by the reader, by
// another sender, or further up the caller's own stack (a delivery
// callback that sends).
func (t *UDPTransport) poll(p *udpPort) {
	if p.fd < 0 || !p.rmu.TryLock() {
		return
	}
	defer p.rmu.Unlock()
	for i := 0; i < pollMax && !t.closed.Load(); i++ {
		n, ok := readNow(p.fd, p.rbuf)
		if !ok {
			return
		}
		t.onTrain(p, p.rbuf[:n])
	}
}

// encode appends the frame to the link's datagram under construction and
// to its retransmit queue, and reports whether it did. Caller holds the
// port lock.
func (t *UDPTransport) encode(sl *udpSendLink, f Frame) bool {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.down {
		return false
	}
	if len(sl.buf) == 0 {
		sl.buf = wire.AppendDgramHeader(sl.buf, uint32(sl.from), uint32(sl.to))
		if t.gob {
			wire.SetDgramGob(sl.buf)
		}
		sl.bufSeq = sl.nextSeq
	}
	// Encode the frame in place: header with a zero length, payload
	// appended by the codec, length backfilled. On any encode failure the
	// buffer rolls back to frameStart (to nothing, if the frame would have
	// been the datagram's first).
	frameStart := len(sl.buf)
	rollback := func() {
		sl.buf = sl.buf[:frameStart]
		if sl.bufFrames == 0 {
			sl.buf = sl.buf[:0]
		}
	}
	seq := sl.nextSeq
	sl.buf = wire.AppendFrame(sl.buf, seq, f.Mseq, int64(f.SentAt), nil)
	payStart := len(sl.buf)
	if t.gob {
		var gbuf bytes.Buffer
		if err := gob.NewEncoder(&gbuf).Encode(wirePayload{M: f.Msg}); err != nil {
			rollback()
			return false
		}
		sl.buf = append(sl.buf, gbuf.Bytes()...)
	} else {
		var err error
		sl.buf, err = wire.AppendMessage(sl.buf, f.Msg)
		if err != nil {
			rollback()
			panic(err) // *wire.UnregisteredError: fail loudly at Send
		}
	}
	paylen := len(sl.buf) - payStart
	if paylen > udpMaxPayload {
		rollback()
		return false
	}
	wire.BackfillFrameLen(sl.buf, frameStart, paylen)

	sl.nextSeq++
	sl.sent++
	sl.payloadBytes += uint64(paylen)
	if sl.bufFrames == 0 {
		sl.port.open = append(sl.port.open, sl)
	}
	sl.bufFrames++
	frame := make([]byte, len(sl.buf)-frameStart)
	copy(frame, sl.buf[frameStart:])
	sl.unacked = append(sl.unacked, udpPending{seq: seq, frame: frame})
	return true
}

// flushLocked puts everything the port holds back on the wire: the link
// datagrams under construction (each settling its link's ACK debt by
// piggybacking), then an ACK-only datagram for every listed link whose
// debt found no data to ride on, packed into one train per destination
// port. now stamps the frames that leave. Caller holds p.mu.
func (t *UDPTransport) flushLocked(p *udpPort, now time.Time) {
	p.waited = false
	for _, sl := range p.open {
		if len(sl.buf) == 0 {
			continue // LinkDown emptied it
		}
		var acks uint64
		sl.mu.Lock()
		if sl.ackOwed {
			wire.SetDgramAck(sl.buf, sl.ackSeq)
			sl.ackOwed = false
			acks = 1
		}
		for i := len(sl.unacked) - 1; i >= 0 && sl.unacked[i].seq >= sl.bufSeq; i-- {
			sl.unacked[i].lastSent = now
		}
		sl.mu.Unlock()
		t.board(p, sl.dst, sl.buf, sl.bufFrames, acks)
		sl.buf, sl.bufFrames = sl.buf[:0], 0
	}
	clear(p.open)
	p.open = p.open[:0]

	p.ackMu.Lock()
	acks := p.acks
	p.acks = p.ackSpare[:0]
	p.ackMu.Unlock()
	for _, sl := range acks {
		sl.mu.Lock()
		owed, cum := sl.ackOwed && !sl.down, sl.ackSeq
		sl.ackOwed = false
		sl.mu.Unlock()
		if owed {
			var hdr [wire.DgramHeaderLen]byte
			pkt := wire.AppendDgramHeader(hdr[:0], uint32(sl.from), uint32(sl.to))
			wire.SetDgramAck(pkt, cum)
			t.addSection(p, sl.dst, pkt, 0, 1)
		}
	}
	clear(acks)
	p.ackSpare = acks
	t.writeTrains(p)
}

// board puts one link datagram carrying frames on the train from p to
// port q — or, under the test hook, whatever the hook makes of it. Caller
// holds p.mu.
func (t *UDPTransport) board(p *udpPort, q int, dgram []byte, frames, acks uint64) {
	if t.mangle == nil {
		t.addSection(p, q, dgram, frames, acks)
		return
	}
	for _, pkt := range t.mangle(dgram) {
		t.addSection(p, q, pkt, frames, acks)
	}
}

// addSection appends one link datagram to the train from p to port q,
// writing the train first when the datagram would take it past the MTU
// budget. Caller holds p.mu.
func (t *UDPTransport) addSection(p *udpPort, q int, dgram []byte, frames, acks uint64) {
	if len(dgram) > math.MaxUint16 {
		return // cannot be framed, and no UDP datagram could carry it
	}
	tr := &p.trains[q]
	if len(tr.buf) > 0 && len(tr.buf)+2+len(dgram) > t.mtu {
		t.writeTrain(p, q)
	}
	tr.buf = wire.AppendSection(tr.buf, dgram)
	tr.frames += frames
	tr.acks += acks
}

// writeTrains writes every train p has under construction. Caller holds
// p.mu.
func (t *UDPTransport) writeTrains(p *udpPort) {
	for q := range p.trains {
		if len(p.trains[q].buf) > 0 {
			t.writeTrain(p, q)
		}
	}
}

// writeTrain sends the train from p to port q, books it and empties it.
// Caller holds p.mu.
func (t *UDPTransport) writeTrain(p *udpPort, q int) {
	tr := &p.trains[q]
	p.datagrams++
	p.wireBytes += uint64(len(tr.buf))
	if tr.frames > 0 {
		p.framesWire += tr.frames
		p.piggyAcks += tr.acks
	} else {
		p.ackDgrams++
	}
	p.conn.WriteToUDPAddrPort(tr.buf, t.ports[q].addr) //nolint:errcheck // lossy medium; the shim retransmits
	*tr = train{buf: tr.buf[:0]}
}

// timerLoop is the transport's one timer: every RTO/8 it flushes the
// ports where something has been waiting since the previous tick — an ACK
// debt no data came to carry, or corked frames whose uncorked follow-up
// never arrived — and every RTO/2 it rescans the unacknowledged frames of
// every link for ones to retransmit.
func (t *UDPTransport) timerLoop() {
	defer t.wg.Done()
	tick := time.NewTicker(t.rto / ackDelayDiv)
	defer tick.Stop()
	for n := 1; ; n++ {
		select {
		case <-t.stopCh:
			return
		case <-tick.C:
		}
		now := time.Now()
		for _, p := range t.ports {
			p.mu.Lock()
			p.ackMu.Lock()
			waiting := len(p.acks) > 0 || len(p.open) > 0
			p.ackMu.Unlock()
			if waiting && p.waited {
				t.flushLocked(p, now)
			} else {
				p.waited = waiting
			}
			p.mu.Unlock()
		}
		if n%rtoTicks == 0 {
			t.retransmit(now)
		}
	}
}

// retransmit repacks the frames that have been on the wire unacknowledged
// for an RTO into MTU-budgeted link datagrams and boards those on their
// port's trains — the ACK/retry half of the shim. Retransmission
// coalesces exactly like first transmission: a loss burst resends as a
// few dense trains per port pair, not a frame-per-datagram storm.
func (t *UDPTransport) retransmit(now time.Time) {
	var dgram []byte // scratch: the link datagram being repacked
	for _, sl := range t.send {
		dgram = t.resendLink(sl, now, dgram)
	}
	for _, p := range t.ports {
		p.mu.Lock()
		t.writeTrains(p)
		p.mu.Unlock()
	}
}

// resendLink boards the link's overdue frames, if any, on its port's
// trains and returns the scratch buffer.
func (t *UDPTransport) resendLink(sl *udpSendLink, now time.Time, dgram []byte) []byte {
	var due [][]byte
	var acks, cum uint64
	sl.mu.Lock()
	for i := range sl.unacked {
		u := &sl.unacked[i]
		// A frame that never left (zero lastSent) sits in a link datagram
		// under construction: its port's flush sends it.
		if sl.down || u.lastSent.IsZero() || now.Sub(u.lastSent) < t.rto {
			continue
		}
		u.lastSent = now
		u.resent = true
		sl.retransmits++
		due = append(due, u.frame)
	}
	if len(due) > 0 && sl.ackOwed {
		sl.ackOwed = false
		acks, cum = 1, sl.ackSeq
	}
	sl.mu.Unlock()
	if len(due) == 0 {
		return dgram
	}
	p := sl.port
	p.mu.Lock()
	defer p.mu.Unlock()
	var frames uint64
	for i, frame := range due {
		if frames == 0 {
			dgram = wire.AppendDgramHeader(dgram[:0], uint32(sl.from), uint32(sl.to))
			if t.gob {
				wire.SetDgramGob(dgram)
			}
			if acks > 0 {
				wire.SetDgramAck(dgram, cum)
			}
		}
		dgram = append(dgram, frame...)
		frames++
		if len(dgram) >= t.mtu || i == len(due)-1 {
			t.board(p, sl.dst, dgram, frames, acks)
			frames = 0
		}
	}
	return dgram
}

// read is the per-port socket loop: it blocks for what arrives while no
// sender polls the port.
func (t *UDPTransport) read(p *udpPort) {
	defer t.wg.Done()
	buf := make([]byte, udpReadBuf)
	for {
		n, _, err := p.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // socket closed
		}
		p.rmu.Lock()
		if t.closed.Load() {
			p.rmu.Unlock()
			return
		}
		t.onTrain(p, buf[:n])
		p.rmu.Unlock()
	}
}

// onTrain walks one received train section by section: each is a link
// datagram addressed to a node of port p, whose piggybacked ACK goes to
// the sender state and whose data frames go to the receiver shim. Bytes
// that do not parse end the walk; a well-formed section that names no
// link of this port is skipped.
func (t *UDPTransport) onTrain(p *udpPort, pkt []byte) {
	if len(pkt) == 0 || pkt[0] != wire.TrainVersion {
		return
	}
	var now time.Time // the train's arrival, read when the first ACK needs it
	for body := pkt[1:]; len(body) > 0; {
		dgram, rest, err := wire.NextSection(body)
		if err != nil {
			return
		}
		body = rest
		hdr, frames, err := wire.ParseDgram(dgram)
		if err != nil {
			continue
		}
		from, to := core.NodeID(hdr.From), core.NodeID(hdr.To)
		if uint64(hdr.To) >= uint64(t.n) || t.ports[t.portOf(to)] != p {
			continue // not a node of this port
		}
		rl := t.recv[linkKey{from, to}]
		if rl == nil {
			continue // not a link
		}
		if hdr.HasAck() {
			// The ack names the directed link to→from (we are the
			// sender): drop everything the cumulative seq covers.
			if now.IsZero() {
				now = time.Now()
			}
			t.onAck(rl.rev, hdr.Ack, now)
		}
		if len(frames) > 0 {
			t.onFrames(rl, frames, hdr.Gob())
		}
	}
}

// onAck discards acknowledged frames from the link's retransmit queue
// and samples their round trips (first-transmission frames only — a
// retransmitted frame's ACK cannot be attributed to one send). The
// sample spans socket write → arrival of the train with the cumulative
// ACK (now), so on a link whose ACKs wait for the timer it includes the
// receiver's ACK delay.
func (t *UDPTransport) onAck(sl *udpSendLink, cum uint64, now time.Time) {
	sl.mu.Lock()
	// unacked is in seq order, so a cumulative ACK covers a prefix.
	k := 0
	for k < len(sl.unacked) && sl.unacked[k].seq <= cum {
		k++
	}
	if k > 0 {
		p := sl.port
		p.rttMu.Lock()
		for _, u := range sl.unacked[:k] {
			if !u.resent && !u.lastSent.IsZero() {
				p.rtt.ObserveFloat(float64(now.Sub(u.lastSent)) / float64(time.Microsecond))
			}
		}
		p.rttMu.Unlock()
		rest := copy(sl.unacked, sl.unacked[k:])
		clear(sl.unacked[rest:])
		sl.unacked = sl.unacked[:rest]
	}
	sl.mu.Unlock()
}

// onFrames runs the receiver shim over every frame of one link datagram —
// dedup, reorder, in-sequence delivery — then records the cumulative-ACK
// debt on the reverse link (settled by its port's next flush).
func (t *UDPTransport) onFrames(rl *udpRecvLink, body []byte, gobbed bool) {
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
		t.frameLocked(rl, f, gobbed)
	}
	cum := rl.nextSeq - 1
	rl.mu.Unlock()
	t.oweAck(rl.rev, cum)
}

// frameLocked applies the shim to one frame. Caller holds rl.mu.
func (t *UDPTransport) frameLocked(rl *udpRecvLink, f wire.FrameView, gobbed bool) {
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
			if rl.reorder == nil {
				rl.reorder = make(map[uint64]udpParked)
			}
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
	t.deliverLocked(rl, f.Mseq, f.SentAt, f.Payload, gobbed)
	for len(rl.reorder) > 0 {
		next, ok := rl.reorder[rl.nextSeq]
		if !ok {
			break
		}
		delete(rl.reorder, rl.nextSeq)
		t.deliverLocked(rl, next.mseq, next.sentAt, next.payload, next.gob)
	}
}

// deliverLocked decodes and hands one in-sequence frame up, advancing
// the shim state. Caller holds rl.mu, which serialises deliveries per
// link — the FIFO contract.
func (t *UDPTransport) deliverLocked(rl *udpRecvLink, mseq uint64, sentAt int64, payload []byte, gobbed bool) {
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
		From:   rl.from,
		To:     rl.to,
		Msg:    msg,
		Mseq:   mseq,
		SentAt: sim.Time(sentAt),
	})
}

// oweAck records a cumulative-ACK debt on sl, the reverse of the link the
// data came in on, and lists the link with its port when the debt is new.
// The port's next flush settles it — on sl's own data datagram if the
// flush finds one, else on an ACK-only datagram in the same train — and
// with no flush for RTO/8 the timer loop makes one.
func (t *UDPTransport) oweAck(sl *udpSendLink, cum uint64) {
	sl.mu.Lock()
	if sl.down {
		sl.mu.Unlock()
		return
	}
	listed := sl.ackOwed
	sl.ackOwed, sl.ackSeq = true, cum
	sl.mu.Unlock()
	if listed {
		return
	}
	p := sl.port
	p.ackMu.Lock()
	p.acks = append(p.acks, sl)
	p.ackMu.Unlock()
}

// LinkDown tears the link down in both directions: retransmission stops,
// queued, buffered and in-flight frames are dropped, later datagrams are
// ignored.
func (t *UDPTransport) LinkDown(a, b core.NodeID) {
	for _, key := range []linkKey{{a, b}, {b, a}} {
		if sl := t.send[key]; sl != nil {
			sl.port.mu.Lock()
			sl.mu.Lock()
			sl.down = true
			sl.unacked = nil
			sl.buf, sl.bufFrames = sl.buf[:0], 0
			sl.ackOwed = false
			sl.mu.Unlock()
			sl.port.mu.Unlock()
		}
		if rl := t.recv[key]; rl != nil {
			rl.mu.Lock()
			rl.down = true
			rl.reorder = nil
			rl.mu.Unlock()
		}
	}
}

// Stats aggregates the shim's per-link and per-port wire counters into
// the lme/telemetry/v1 transport record. A datagram here is what a socket
// write carried, a train: DatagramsSent counts trains, AckDatagrams the
// ones without a data section, AcksPiggybacked the cumulative ACKs that
// rode in a train carrying data, FramesPerDatagram frames per data train.
// Safe any time (including after Close): the link maps are immutable
// after construction and every counter sits under its link's or port's
// lock.
func (t *UDPTransport) Stats() telemetry.TransportStats {
	ts := telemetry.TransportStats{
		Schema: telemetry.Schema,
		Kind:   "udp",
		Links:  len(t.send),
	}
	for _, p := range t.ports {
		p.mu.Lock()
		ts.DatagramsSent += p.datagrams
		ts.AckDatagrams += p.ackDgrams
		ts.AcksPiggybacked += p.piggyAcks
		ts.FramesWire += p.framesWire
		ts.WireBytes += p.wireBytes
		p.mu.Unlock()
	}
	for _, sl := range t.send {
		sl.mu.Lock()
		ts.FramesSent += sl.sent
		ts.Retransmits += sl.retransmits
		ts.PayloadBytes += sl.payloadBytes
		sl.mu.Unlock()
	}
	for _, rl := range t.recv {
		rl.mu.Lock()
		ts.FramesDelivered += rl.delivered
		ts.DupDrops += rl.dupDrops
		ts.ReorderOverflow += rl.overflow
		ts.ReorderDepthHW = max(ts.ReorderDepthHW, rl.depthHW)
		rl.mu.Unlock()
	}
	if data := ts.DatagramsSent - ts.AckDatagrams; data > 0 {
		ts.FramesPerDatagram = float64(ts.FramesWire) / float64(data)
	}
	if ts.FramesSent > 0 {
		ts.PayloadBytesPerFrame = float64(ts.PayloadBytes) / float64(ts.FramesSent)
	}
	rtt := metrics.NewSketch()
	for _, p := range t.ports {
		p.rttMu.Lock()
		rtt.Merge(p.rtt)
		p.rttMu.Unlock()
	}
	ts.AckRTTUS = rtt.Snapshot()
	return ts
}

// Close shuts every socket and waits for the readers and the timer loop
// to exit; no delivery happens after it returns.
func (t *UDPTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	close(t.stopCh)
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
