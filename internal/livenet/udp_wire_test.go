package livenet

// Tests for the fast wire path: link-datagram coalescing under
// Frame.More, trains across links, delayed and piggybacked cumulative
// ACKs, and the loud-failure contract for message types with no
// registered codec.

import (
	"sync"
	"testing"
	"time"

	"lme/internal/graph"
	"lme/internal/wire"
)

// walkFrames calls fn with every frame of the datagram and the number of
// bytes the frame occupies in it.
func walkFrames(t *testing.T, pkt []byte, fn func(f wire.FrameView, size int)) {
	t.Helper()
	_, body, err := wire.ParseDgram(pkt)
	if err != nil {
		t.Errorf("unparseable datagram: %v", err)
		return
	}
	for len(body) > 0 {
		f, rest, err := wire.NextFrame(body)
		if err != nil {
			t.Errorf("unparseable frame: %v", err)
			return
		}
		fn(f, len(body)-len(rest))
		body = rest
	}
}

// dgramCarriesSeq reports whether any frame of the datagram carries the
// given sequence number.
func dgramCarriesSeq(t *testing.T, pkt []byte, seq uint64) bool {
	t.Helper()
	found := false
	walkFrames(t, pkt, func(f wire.FrameView, _ int) { found = found || f.Seq == seq })
	return found
}

// TestUDPAckCoalescing states the coalescing rule with no clock in it: N
// corked frames and one uncorked frame on one link leave as the greedy
// MTU packing of their bytes into link datagrams — every one but the last
// closes on the frame that reaches the budget, the last carries the
// remainder — and every uncorked frame after that is one link datagram,
// written before Send returns. With a single link sending, a train has
// exactly one data section, so the transport's count of data trains is
// the count of link datagrams the hook saw. The receiver owes one
// cumulative ACK per link datagram and the ACK delay merges even those,
// so ACK-only trains stay far below N; delivery is FIFO and exactly once
// throughout.
func TestUDPAckCoalescing(t *testing.T) {
	const (
		corked   = 400
		uncorked = 20
		msgs     = corked + 1 + uncorked
	)
	g := graph.Line(2)
	// An RTO far above the test's runtime: no retransmission may add
	// datagrams to the count (ACK delay = RTO/8 = 50ms).
	tr, err := NewUDPTransport(g, 400*time.Millisecond)
	if err != nil {
		t.Fatalf("NewUDPTransport: %v", err)
	}
	type dgram struct{ size, frames, lastFrame int }
	var mu sync.Mutex
	var dgrams []dgram
	tr.mangle = func(pkt []byte) [][]byte {
		d := dgram{size: len(pkt)}
		walkFrames(t, pkt, func(_ wire.FrameView, size int) {
			d.frames++
			d.lastFrame = size
		})
		mu.Lock()
		dgrams = append(dgrams, d)
		mu.Unlock()
		return [][]byte{pkt}
	}
	col := newCollector()
	if err := tr.Start(col.deliver); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close() //nolint:errcheck

	for n := 0; n < corked+1; n++ {
		tr.Send(Frame{From: 0, To: 1, Msg: confMsg{N: n}, Mseq: uint64(n) + 1, More: n < corked})
	}
	// Send wrote the burst itself: the packing is complete on return.
	mu.Lock()
	burst := append([]dgram(nil), dgrams...)
	mu.Unlock()
	frames := 0
	for i, d := range burst {
		frames += d.frames
		if i == len(burst)-1 {
			break
		}
		if d.size < tr.mtu || d.size-d.lastFrame >= tr.mtu {
			t.Errorf("datagram %d of %d: %d bytes, last frame %d — not closed on the frame that reached the %d-byte budget",
				i, len(burst), d.size, d.lastFrame, tr.mtu)
		}
	}
	if frames != corked+1 {
		t.Fatalf("the burst put %d frames on the wire in %d datagrams, want %d", frames, len(burst), corked+1)
	}
	if len(burst) < 2 || len(burst) > corked/4 {
		t.Fatalf("%d frames left in %d datagrams; want the MTU packing", corked+1, len(burst))
	}

	for n := corked + 1; n < msgs; n++ {
		tr.Send(Frame{From: 0, To: 1, Msg: confMsg{N: n}, Mseq: uint64(n) + 1})
	}
	mu.Lock()
	total := len(dgrams)
	mu.Unlock()
	if total != len(burst)+uncorked {
		t.Fatalf("%d uncorked frames added %d datagrams, want one each", uncorked, total-len(burst))
	}

	if !waitFor(t, 5*time.Second, func() bool { return col.count() >= msgs }) {
		t.Fatalf("delivered %d of %d frames", col.count(), msgs)
	}
	// Wait until the cumulative ACK covered everything, so the ACK
	// counters are settled.
	sl := tr.send[linkKey{0, 1}]
	if !waitFor(t, 5*time.Second, func() bool {
		sl.mu.Lock()
		n := len(sl.unacked)
		sl.mu.Unlock()
		return n == 0
	}) {
		t.Fatalf("frames still unacked after the flood (stats %+v)", tr.Stats())
	}

	delivered := col.link(0, 1)
	if len(delivered) != msgs {
		t.Fatalf("delivered %d frames, want exactly %d", len(delivered), msgs)
	}
	for n, f := range delivered {
		if m := f.Msg.(confMsg); m.N != n {
			t.Fatalf("frame %d carries N=%d — FIFO violated under coalescing", n, m.N)
		}
		if f.Mseq != uint64(n)+1 {
			t.Fatalf("frame %d carries mseq %d — not exactly once", n, f.Mseq)
		}
	}

	st := tr.Stats()
	if st.Retransmits != 0 {
		t.Fatalf("retransmits = %d; the datagram counts above are not first transmissions", st.Retransmits)
	}
	if data := st.DatagramsSent - st.AckDatagrams; data != uint64(total) {
		t.Errorf("stats count %d data trains, the wire saw %d link datagrams on the one sending link", data, total)
	}
	if st.FramesWire != msgs {
		t.Errorf("frames_wire = %d, want the %d first transmissions", st.FramesWire, msgs)
	}
	if st.AckDatagrams == 0 {
		t.Errorf("ack_datagrams = 0; one-way traffic owes ACK-only trains")
	}
	if st.AckDatagrams > uint64(total) || st.AckDatagrams >= msgs/4 {
		t.Errorf("ack_datagrams = %d for %d frames in %d datagrams; delayed ACKs are not coalescing (stats %+v)",
			st.AckDatagrams, msgs, total, st)
	}
	if st.WireBytes == 0 || st.PayloadBytes == 0 {
		t.Errorf("wire telemetry not populated: %+v", st)
	}
}

// TestUDPBrokenCorkPromise pins the safety net under Frame.More: a corked
// frame that no uncorked frame ever follows is not stranded in the link's
// buffer — the timer loop flushes a port whose work has waited a whole
// tick, well within 2·RTO — and it leaves exactly once: the flush emptied
// the buffer, so a later Send does not write it again.
func TestUDPBrokenCorkPromise(t *testing.T) {
	const rto = 100 * time.Millisecond
	g := graph.Line(2)
	tr, err := NewUDPTransport(g, rto)
	if err != nil {
		t.Fatalf("NewUDPTransport: %v", err)
	}
	col := newCollector()
	if err := tr.Start(col.deliver); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close() //nolint:errcheck

	begin := time.Now()
	tr.Send(Frame{From: 0, To: 1, Msg: confMsg{N: 7}, Mseq: 1, More: true})
	if st := tr.Stats(); st.DatagramsSent != 0 {
		t.Fatalf("a corked frame below the MTU budget wrote %d datagrams at once", st.DatagramsSent)
	}
	if !waitFor(t, 2*rto, func() bool { return col.count() >= 1 }) {
		t.Fatalf("corked frame not delivered within 2·RTO (%v) of a broken promise (stats %+v)", 2*rto, tr.Stats())
	}
	if got := col.link(0, 1); len(got) != 1 || got[0].Msg.(confMsg).N != 7 {
		t.Fatalf("delivered %v after %v, want the one corked frame", got, time.Since(begin))
	}
	tr.Send(Frame{From: 0, To: 1, Msg: confMsg{N: 8}, Mseq: 2})
	if !waitFor(t, 5*time.Second, func() bool { return col.count() >= 2 }) {
		t.Fatal("the follow-up frame never arrived")
	}
	time.Sleep(10 * time.Millisecond)
	if got := col.link(0, 1); len(got) != 2 || got[1].Msg.(confMsg).N != 8 {
		t.Fatalf("delivered %v, want exactly the corked frame then the follow-up", got)
	}
	if st := tr.Stats(); st.FramesWire != 2 || st.Retransmits != 0 {
		t.Errorf("frames_wire = %d, retransmits = %d; want each frame on the wire once", st.FramesWire, st.Retransmits)
	}
}

// TestUDPAckPiggyback checks that ACK debt owed while data is flowing the
// other way rides in the trains that carry it instead of costing ACK-only
// trains.
func TestUDPAckPiggyback(t *testing.T) {
	const msgs = 300
	g := graph.Line(2)
	tr, err := NewUDPTransport(g, 0)
	if err != nil {
		t.Fatalf("NewUDPTransport: %v", err)
	}
	col := newCollector()
	if err := tr.Start(col.deliver); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close() //nolint:errcheck

	// Paced bidirectional traffic: every uncorked Send is a datagram, and
	// the pacing lets datagrams arrive between the peer's sends, so its
	// next datagram finds an ACK debt to carry.
	var wg sync.WaitGroup
	for _, dir := range []linkKey{{0, 1}, {1, 0}} {
		wg.Add(1)
		go func(dir linkKey) {
			defer wg.Done()
			for n := 0; n < msgs; n++ {
				tr.Send(Frame{From: dir[0], To: dir[1], Msg: confMsg{N: n}, Mseq: uint64(n) + 1})
				if n%10 == 0 {
					time.Sleep(200 * time.Microsecond)
				}
			}
		}(dir)
	}
	wg.Wait()
	if !waitFor(t, 5*time.Second, func() bool { return col.count() >= 2*msgs }) {
		t.Fatalf("delivered %d of %d frames", col.count(), 2*msgs)
	}
	st := tr.Stats()
	if st.AcksPiggybacked == 0 {
		t.Errorf("acks_piggybacked = 0 under bidirectional traffic (stats %+v)", st)
	}
}

// unregMsg has no wire codec (and no gob registration): Send must fail
// loudly at the sender, never surface as a silent drop or a peer-side
// decode error.
type unregMsg struct{ X int }

func TestUDPSendUnregisteredPanics(t *testing.T) {
	g := graph.Line(2)
	tr, err := NewUDPTransport(g, 0)
	if err != nil {
		t.Fatalf("NewUDPTransport: %v", err)
	}
	col := newCollector()
	if err := tr.Start(col.deliver); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close() //nolint:errcheck

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Send of an unregistered message type did not panic")
		}
		if _, ok := r.(*wire.UnregisteredError); !ok {
			t.Fatalf("panic value %T (%v), want *wire.UnregisteredError", r, r)
		}
	}()
	tr.Send(Frame{From: 0, To: 1, Msg: unregMsg{X: 1}, Mseq: 1})
}

// TestUDPGobModeUnregisteredDrops pins the oracle path's legacy
// semantics: in gob mode an unencodable payload is silently dropped (no
// panic), matching the pre-codec transport.
func TestUDPGobModeUnregisteredDrops(t *testing.T) {
	g := graph.Line(2)
	tr, err := NewUDPTransportOpts(g, UDPOptions{Gob: true})
	if err != nil {
		t.Fatalf("NewUDPTransportOpts: %v", err)
	}
	col := newCollector()
	if err := tr.Start(col.deliver); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close() //nolint:errcheck

	tr.Send(Frame{From: 0, To: 1, Msg: unregMsg{X: 1}, Mseq: 1})
	tr.Send(Frame{From: 0, To: 1, Msg: confMsg{N: 7}, Mseq: 2})
	if !waitFor(t, 5*time.Second, func() bool { return col.count() >= 1 }) {
		t.Fatal("the encodable frame never arrived")
	}
	if got := col.link(0, 1); len(got) != 1 || got[0].Msg.(confMsg).N != 7 {
		t.Fatalf("delivered %v, want only the encodable frame", got)
	}
}
