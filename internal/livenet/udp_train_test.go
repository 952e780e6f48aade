package livenet

// Tests for the per-core half of the UDP transport: ports shared by many
// nodes, trains that carry the link datagrams of several links, and the
// receive path's behaviour on bytes no sender of ours would write.

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/lme2"
	"lme/internal/wire"
)

// TestUDPUncorkedReleasesEveryLink states the cross-link cork with no
// clock in it: with the timer out of the picture (an RTO of an hour), a
// frame corked on one link and an uncorked frame on another are both on
// the wire when the second Send returns, one train per destination port.
func TestUDPUncorkedReleasesEveryLink(t *testing.T) {
	g := graph.Line(3)
	tr, err := newUDPTransport(g, UDPOptions{RTO: time.Hour}, 2) // nodes 0, 1 | 2
	if err != nil {
		t.Fatalf("newUDPTransport: %v", err)
	}
	col := newCollector()
	if err := tr.Start(col.deliver); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close() //nolint:errcheck

	tr.Send(Frame{From: 1, To: 0, Msg: confMsg{N: 1}, Mseq: 1, More: true})
	if st := tr.Stats(); st.DatagramsSent != 0 {
		t.Fatalf("the corked frame wrote %d trains by itself", st.DatagramsSent)
	}
	tr.Send(Frame{From: 1, To: 2, Msg: confMsg{N: 2}, Mseq: 2})
	if st := tr.Stats(); st.FramesWire != 2 || st.DatagramsSent != 2 {
		t.Fatalf("after the uncorked frame: %d frames in %d trains on the wire, want 2 in 2 (one per destination port)",
			st.FramesWire, st.DatagramsSent)
	}
	if !waitFor(t, 5*time.Second, func() bool { return col.count() >= 2 }) {
		t.Fatalf("delivered %d of 2 frames", col.count())
	}
	if a, b := col.link(1, 0), col.link(1, 2); len(a) != 1 || len(b) != 1 {
		t.Fatalf("delivered %v on 1→0 and %v on 1→2, want one frame each", a, b)
	}
}

// TestUDPConcurrentSendersOnePort puts four senders behind one port — the
// shape a transport has when it was built for fewer cores than the
// cluster that drives it — each corking and uncorking across its links
// from its own goroutine. The port lock is all that orders them; under
// -race this is the test that it does, and FIFO per link and exactly-once
// must hold as always.
func TestUDPConcurrentSendersOnePort(t *testing.T) {
	const rounds = 200
	g := graph.Clique(4)
	tr, err := newUDPTransport(g, UDPOptions{}, 1)
	if err != nil {
		t.Fatalf("newUDPTransport: %v", err)
	}
	tr.mangle = func(pkt []byte) [][]byte { return [][]byte{pkt, pkt} }
	col := newCollector()
	if err := tr.Start(col.deliver); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close() //nolint:errcheck

	var wg sync.WaitGroup
	for from := core.NodeID(0); from < 4; from++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mseq := uint64(0)
			for n := 0; n < rounds; n++ {
				for k := core.NodeID(1); k < 4; k++ {
					mseq++
					// The flush ends on a different link every round.
					tr.Send(Frame{From: from, To: (from + k) % 4, Msg: confMsg{N: n}, Mseq: mseq, More: int(k) != 1+n%3})
				}
			}
		}()
	}
	wg.Wait()
	const want = 4 * 3 * rounds
	if !waitFor(t, 10*time.Second, func() bool { return col.count() >= want }) {
		t.Fatalf("delivered %d of %d frames (stats %+v)", col.count(), want, tr.Stats())
	}
	time.Sleep(20 * time.Millisecond) // give duplicates a moment to surface
	for from := core.NodeID(0); from < 4; from++ {
		for k := core.NodeID(1); k < 4; k++ {
			frames := col.link(from, (from+k)%4)
			if len(frames) != rounds {
				t.Fatalf("link %v→%v: %d frames, want exactly %d", from, (from+k)%4, len(frames), rounds)
			}
			for n, f := range frames {
				if m := f.Msg.(confMsg); m.N != n {
					t.Fatalf("link %v→%v: frame %d carries N=%d — FIFO violated", from, (from+k)%4, n, m.N)
				}
			}
		}
	}
}

// TestUDPSenderPollsItsPort pins the sender-side poll with the reader out
// of the picture (the transport is wired but not started): a frame sent
// uncorked to a node of the sender's own port has been delivered, on the
// sender's goroutine, when Send returns — and a delivery callback that
// itself sends, from inside that poll, neither deadlocks (its own poll
// finds the port busy and leaves) nor loses its frame: the poll it was
// called from goes on to collect it.
func TestUDPSenderPollsItsPort(t *testing.T) {
	g := graph.Line(2)
	tr, err := newUDPTransport(g, UDPOptions{RTO: time.Hour}, 1)
	if err != nil {
		t.Fatalf("newUDPTransport: %v", err)
	}
	defer tr.Close() //nolint:errcheck
	if tr.ports[0].fd < 0 {
		t.Skip("no descriptor to poll on this platform: the reader takes every train")
	}
	col := newCollector()
	tr.deliver = func(f Frame) {
		col.deliver(f)
		if f.From == 0 { // echo, from inside the poll that delivered f
			tr.Send(Frame{From: 1, To: 0, Msg: f.Msg, Mseq: f.Mseq})
		}
	}

	tr.Send(Frame{From: 0, To: 1, Msg: confMsg{N: 7}, Mseq: 1})
	if got := col.link(0, 1); len(got) != 1 || got[0].Msg.(confMsg).N != 7 {
		t.Fatalf("after Send returned, 0→1 has delivered %v, want the frame", got)
	}
	if got := col.link(1, 0); len(got) != 1 || got[0].Msg.(confMsg).N != 7 {
		t.Fatalf("after Send returned, 1→0 has delivered %v, want the echo", got)
	}
	if st := tr.Stats(); st.FramesDelivered != 2 || st.DupDrops != 0 || st.Retransmits != 0 {
		t.Fatalf("stats %+v, want 2 frames delivered, no duplicates, no retransmissions", st)
	}
}

// TestUDPCloseAmongPollingSenders closes the transport under senders that
// flush and poll their port as fast as they can: Close waits for the poll
// in flight, and once it has returned no sender delivers anything — the
// socket's descriptor is never read again.
func TestUDPCloseAmongPollingSenders(t *testing.T) {
	g := graph.Clique(4)
	tr, err := newUDPTransport(g, UDPOptions{}, 2)
	if err != nil {
		t.Fatalf("newUDPTransport: %v", err)
	}
	var mu sync.Mutex
	closed, late, delivered := false, 0, 0
	deliver := func(Frame) {
		mu.Lock()
		defer mu.Unlock()
		delivered++
		if closed {
			late++
		}
	}
	if err := tr.Start(deliver); err != nil {
		t.Fatalf("Start: %v", err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for from := core.NodeID(0); from < 4; from++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for mseq := uint64(1); ; mseq++ {
				select {
				case <-stop:
					return
				default:
				}
				tr.Send(Frame{From: from, To: (from + 1 + core.NodeID(mseq%3)) % 4, Msg: confMsg{N: int(mseq)}, Mseq: mseq})
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	mu.Lock()
	closed = true
	mu.Unlock()
	time.Sleep(20 * time.Millisecond) // the senders keep sending into the closed transport
	close(stop)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if delivered == 0 {
		t.Fatal("nothing was delivered before Close")
	}
	if late != 0 {
		t.Fatalf("%d deliveries after Close returned", late)
	}
}

// TestUDPPortsUnlikeShards runs the lock service over a transport whose
// ports are cut differently from the cluster's shards: correct all the
// same, only contended.
func TestUDPPortsUnlikeShards(t *testing.T) {
	const n = 12
	g := graph.Ring(n)
	tr, err := newUDPTransport(g, UDPOptions{}, 5)
	if err != nil {
		t.Fatalf("newUDPTransport: %v", err)
	}
	protos := make([]core.Protocol, n)
	for i := range protos {
		protos[i] = lme2.New()
	}
	c, err := New(Config{Seed: 5, Transport: tr}, g, protos)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.Run(300 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for id, meals := range c.Meals() {
		if meals == 0 {
			t.Errorf("node %d never ate", id)
		}
	}
	if st := c.TransportStats(); st.FramesDelivered == 0 || st.ReorderOverflow != 0 {
		t.Errorf("transport stats %+v", st)
	}
}

// TestUDPGoroutineBudget pins what the host costs in goroutines: a shard
// loop, a reader per port and one timer loop, whatever the node count —
// and all of them gone after Stop.
func TestUDPGoroutineBudget(t *testing.T) {
	const n = 1024
	base := runtime.NumGoroutine()
	g := graph.Ring(n)
	tr, err := NewUDPTransport(g, 0)
	if err != nil {
		t.Fatalf("NewUDPTransport: %v", err)
	}
	protos := make([]core.Protocol, n)
	for i := range protos {
		protos[i] = lme2.New()
	}
	c, err := New(Config{Transport: tr}, g, protos)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	ctx := t.Context()
	lease, err := c.Node(n / 2).Acquire(ctx)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if got, budget := runtime.NumGoroutine()-base, 3*len(c.shards)+3; got > budget {
		t.Errorf("a running cluster of %d nodes holds %d goroutines, budget %d", n, got, budget)
	}
	lease.Release() //nolint:errcheck
	if err := c.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if !waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= base }) {
		t.Errorf("%d goroutines after Stop, %d before New", runtime.NumGoroutine(), base)
	}
}

// linkDgram builds the link datagram from→to carrying one frame per
// (seq, N) pair, seq doubling as the message id.
func linkDgram(from, to uint32, seqs ...uint64) []byte {
	d := wire.AppendDgramHeader(nil, from, to)
	for _, seq := range seqs {
		payload, err := wire.AppendMessage(nil, confMsg{N: int(seq)})
		if err != nil {
			panic(err)
		}
		d = wire.AppendFrame(d, seq, seq, 0, payload)
	}
	return d
}

// trainOf packs link datagrams into one train.
func trainOf(dgrams ...[]byte) []byte {
	var train []byte
	for _, d := range dgrams {
		train = wire.AppendSection(train, d)
	}
	return train
}

// hostileTrain is one row of the hostile-train table: bytes handed to the
// reader of port 1 of a line(4) transport cut 0, 1 | 2, 3, and the N
// values that must come out, in order, on link 1→2 — the only link the
// rows address legitimately.
type hostileTrain struct {
	name  string
	train []byte
	want  []int
}

func hostileTrains() []hostileTrain {
	good := func(seqs ...uint64) []byte { return linkDgram(1, 2, seqs...) }
	withVersion := func(train []byte, v byte) []byte { train[0] = v; return train }
	badInner := good(1)
	badInner[0] = 9
	return []hostileTrain{
		{"good train", trainOf(good(1), good(2, 3)), []int{1, 2, 3}},
		{"empty", nil, nil},
		{"version byte alone", []byte{wire.TrainVersion}, nil},
		{"version 2", withVersion(trainOf(good(1)), wire.DgramVersion), nil},
		{"version 4", withVersion(trainOf(good(1)), 4), nil},
		{"odd byte after a good section", append(trainOf(good(1)), 0), []int{1}},
		{"length past the end", append(trainOf(good(1)), 0x01, 0xF4, 2, 0, 0, 0), []int{1}},
		{"section shorter than a header", append(append(trainOf(good(1)), 0, 10, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10), trainOf(good(2))[1:]...), []int{1}},
		{"inner version not 2, then good", trainOf(badInner, good(1)), []int{1}},
		{"to on another port, then good", trainOf(linkDgram(0, 1, 1), good(1)), []int{1}},
		{"from out of range, then good", trainOf(linkDgram(99, 2, 1), good(1)), []int{1}},
		{"to out of range, then good", trainOf(linkDgram(1, 99, 1), good(1)), []int{1}},
		{"ids past int32, then good", trainOf(linkDgram(1<<31, 1<<31+2, 1), good(1)), []int{1}},
		{"not an edge, then good", trainOf(linkDgram(0, 2, 1), good(1)), []int{1}},
		{"a section repeated", trainOf(good(1), good(1), good(2)), []int{1, 2}},
		{"truncated frame tail", trainOf(good(1), good(2)[:wire.DgramHeaderLen+wire.FrameHeaderLen]), []int{1}},
	}
}

// hostileTransport is the transport the table and the fuzzer feed: never
// started, so no goroutine and no timer touches it, delivering into col.
func hostileTransport(tb testing.TB, col *collector) *UDPTransport {
	tr, err := newUDPTransport(graph.Line(4), UDPOptions{}, 2)
	if err != nil {
		tb.Fatalf("newUDPTransport: %v", err)
	}
	tr.deliver = col.deliver
	tb.Cleanup(func() { tr.Close() }) //nolint:errcheck
	return tr
}

// TestUDPHostileTrains: nothing a socket can hand the reader makes it
// panic or deliver what was not sent; a malformed section ends the walk
// or is skipped, and everything well-formed around it still delivers,
// exactly once.
func TestUDPHostileTrains(t *testing.T) {
	for _, row := range hostileTrains() {
		t.Run(row.name, func(t *testing.T) {
			col := newCollector()
			tr := hostileTransport(t, col)
			tr.onTrain(tr.ports[1], row.train)
			got := col.link(1, 2)
			if len(got) != len(row.want) || col.count() != len(row.want) {
				t.Fatalf("delivered %d frames on 1→2 (%d in all), want %v", len(got), col.count(), row.want)
			}
			for i, f := range got {
				if f.Msg.(confMsg).N != row.want[i] {
					t.Fatalf("frame %d carries %v, want N=%d", i, f.Msg, row.want[i])
				}
			}
		})
	}
	t.Run("the repeat is counted", func(t *testing.T) {
		tr := hostileTransport(t, newCollector())
		tr.onTrain(tr.ports[1], trainOf(linkDgram(1, 2, 1), linkDgram(1, 2, 1)))
		if st := tr.Stats(); st.DupDrops != 1 || st.FramesDelivered != 1 {
			t.Fatalf("dup_drops = %d, frames_delivered = %d; want 1 and 1", st.DupDrops, st.FramesDelivered)
		}
	})
}

// captureTrains runs a few flushes on a line(4) transport whose ports all
// point at a socket of the test's, and returns the trains that arrived
// there: what the sender really writes.
func captureTrains(tb testing.TB) [][]byte {
	sink, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		tb.Fatalf("listen: %v", err)
	}
	defer sink.Close()
	tr, err := newUDPTransport(graph.Line(4), UDPOptions{RTO: time.Hour}, 2)
	if err != nil {
		tb.Fatalf("newUDPTransport: %v", err)
	}
	defer tr.Close() //nolint:errcheck
	for _, p := range tr.ports {
		p.addr = sink.LocalAddr().(*net.UDPAddr).AddrPort()
	}
	// Two flushes of three frames on two links each: four trains.
	tr.Send(Frame{From: 1, To: 0, Msg: confMsg{N: 1}, Mseq: 1, More: true})
	tr.Send(Frame{From: 1, To: 2, Msg: confMsg{N: 2}, Mseq: 2, More: true})
	tr.Send(Frame{From: 1, To: 2, Msg: confMsg{N: 3}, Mseq: 3})
	tr.Send(Frame{From: 2, To: 3, Msg: confMsg{N: 1}, Mseq: 1, More: true})
	tr.Send(Frame{From: 2, To: 1, Msg: confMsg{N: 2}, Mseq: 2, More: true})
	tr.Send(Frame{From: 2, To: 3, Msg: confMsg{N: 3}, Mseq: 3})
	var trains [][]byte
	buf := make([]byte, 64<<10)
	sink.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	for len(trains) < 4 {
		n, err := sink.Read(buf)
		if err != nil {
			tb.Fatalf("captured %d of 4 trains: %v", len(trains), err)
		}
		trains = append(trains, append([]byte(nil), buf[:n]...))
	}
	return trains
}

// TestUDPCapturedTrainsParse reads the sender's own output back through
// the wire helpers: version 3, sections that are whole v2 link datagrams,
// every frame accounted for.
func TestUDPCapturedTrainsParse(t *testing.T) {
	frames := 0
	for _, train := range captureTrains(t) {
		if train[0] != wire.TrainVersion {
			t.Fatalf("train starts with version %d", train[0])
		}
		for body := train[1:]; len(body) > 0; {
			dgram, rest, err := wire.NextSection(body)
			if err != nil {
				t.Fatalf("section: %v", err)
			}
			body = rest
			walkFrames(t, dgram, func(wire.FrameView, int) { frames++ })
		}
	}
	if frames != 6 {
		t.Fatalf("captured trains carry %d frames, want 6", frames)
	}
}

// FuzzTrain feeds arbitrary bytes to the reader of port 1 (nodes 2 and 3
// of a line(4)): it must never panic, and whatever it delivers must be a
// decodable frame on a link into that port, with message ids strictly
// increasing per link — the shim's exactly-once guard.
func FuzzTrain(f *testing.F) {
	for _, train := range captureTrains(f) {
		f.Add(train)
	}
	for _, row := range hostileTrains() {
		f.Add(row.train)
	}
	g := graph.Line(4)
	var mu sync.Mutex
	last := map[linkKey]uint64{}
	var bad []Frame
	tr := hostileTransport(f, newCollector())
	tr.deliver = func(fr Frame) {
		mu.Lock()
		defer mu.Unlock()
		key := linkKey{fr.From, fr.To}
		if fr.To < 2 || fr.To > 3 || fr.From < 0 || fr.From > 3 || !g.HasEdge(int(fr.From), int(fr.To)) ||
			fr.Msg == nil || fr.Mseq <= last[key] {
			bad = append(bad, fr)
		}
		last[key] = fr.Mseq
	}
	f.Fuzz(func(t *testing.T, train []byte) {
		tr.onTrain(tr.ports[1], train)
		mu.Lock()
		defer mu.Unlock()
		if len(bad) > 0 {
			t.Fatalf("delivered %+v", bad)
		}
	})
}
