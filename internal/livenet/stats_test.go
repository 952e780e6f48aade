package livenet

// Tests for the transport wire counters (lme/telemetry/v1): the optional
// StatsSource face of both shipped transports, and the regression test
// for the reorder-cap overflow path — datagrams discarded because a
// link's reorder buffer is full must be counted, never silently dropped,
// and the link must recover to full FIFO delivery afterwards.

import (
	"sync/atomic"
	"testing"
	"time"

	"lme/internal/graph"
	"lme/internal/telemetry"
)

// TestTransportStatsCounters runs both transports through a small burst
// and checks the StatsSource counters agree with what the collector saw.
func TestTransportStatsCounters(t *testing.T) {
	for name, mk := range makers() {
		t.Run(name, func(t *testing.T) {
			const msgs = 50
			g := graph.Line(2)
			tr := mk(t, g)
			src, ok := tr.(StatsSource)
			if !ok {
				t.Fatalf("%T does not implement StatsSource", tr)
			}
			col := newCollector()
			if err := tr.Start(col.deliver); err != nil {
				t.Fatalf("Start: %v", err)
			}
			defer tr.Close() //nolint:errcheck

			for n := 0; n < msgs; n++ {
				tr.Send(Frame{From: 0, To: 1, Msg: confMsg{N: n}, Mseq: uint64(n) + 1})
			}
			if !waitFor(t, 5*time.Second, func() bool { return col.count() >= msgs }) {
				t.Fatalf("delivered %d of %d frames", col.count(), msgs)
			}

			st := src.Stats()
			if st.Schema != telemetry.Schema {
				t.Errorf("schema %q, want %q", st.Schema, telemetry.Schema)
			}
			if st.Kind != name {
				t.Errorf("kind %q, want %q", st.Kind, name)
			}
			if st.FramesSent < msgs {
				t.Errorf("frames_sent %d, want >= %d", st.FramesSent, msgs)
			}
			if st.FramesDelivered != msgs {
				t.Errorf("frames_delivered %d, want %d", st.FramesDelivered, msgs)
			}
			if st.Links == 0 {
				t.Errorf("links = 0, want the graph's directed links")
			}
		})
	}
}

// TestUDPReorderOverflowCounted pins the reorder-cap contract. A blocked
// gap (seq 1 suppressed on the wire) forces every later datagram through
// the reorder buffer; once udpReorderCap frames are parked, further
// arrivals must be discarded AND counted as reorder_overflow — the
// pre-counter behaviour was a silent drop. Releasing the gap must then
// recover the link to complete, in-order delivery: the overflowed frames
// were never acked, so retransmission replays them.
func TestUDPReorderOverflowCounted(t *testing.T) {
	g := graph.Line(2)
	tr, err := NewUDPTransport(g, 25*time.Millisecond)
	if err != nil {
		t.Fatalf("NewUDPTransport: %v", err)
	}
	var releaseGap atomic.Bool
	tr.mangle = func(pkt []byte) [][]byte {
		// Suppress every datagram carrying seq 1 until the test opens the
		// gap; all later seqs sail through and pile up in the reorder
		// buffer on the receive side. (Coalescing means the suppressed
		// datagram takes its companion frames down with it — they are
		// retransmitted like any other loss.)
		if !releaseGap.Load() && dgramCarriesSeq(t, pkt, 1) {
			return nil
		}
		// Pace the wire so the loopback reader keeps up: an unpaced
		// retransmit blast overruns the kernel socket buffer and the
		// reorder buffer plateaus below its cap.
		time.Sleep(20 * time.Microsecond)
		return [][]byte{pkt}
	}

	col := newCollector()
	if err := tr.Start(col.deliver); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close() //nolint:errcheck

	const msgs = udpReorderCap + 200
	for n := 0; n < msgs; n++ {
		tr.Send(Frame{From: 0, To: 1, Msg: confMsg{N: n}, Mseq: uint64(n) + 1})
	}
	if !waitFor(t, 15*time.Second, func() bool { return tr.Stats().ReorderOverflow > 0 }) {
		t.Fatalf("no reorder_overflow counted after flooding %d frames past a blocked gap (stats %+v)",
			msgs, tr.Stats())
	}

	releaseGap.Store(true)
	if !waitFor(t, 30*time.Second, func() bool { return col.count() >= msgs }) {
		t.Fatalf("delivered %d of %d frames after releasing the gap (stats %+v)",
			col.count(), msgs, tr.Stats())
	}
	for n, f := range col.link(0, 1) {
		if m := f.Msg.(confMsg); m.N != n {
			t.Fatalf("frame %d carries N=%d — FIFO violated across the overflow", n, m.N)
		}
	}

	st := tr.Stats()
	if st.ReorderDepthHW != udpReorderCap {
		t.Errorf("reorder_depth_hw %d, want the cap %d (overflow implies a full buffer)",
			st.ReorderDepthHW, udpReorderCap)
	}
	if st.Retransmits == 0 {
		t.Errorf("retransmits = 0; recovery of the suppressed and overflowed frames needs them")
	}
	if st.FramesDelivered != msgs {
		t.Errorf("frames_delivered %d, want %d", st.FramesDelivered, msgs)
	}
}
