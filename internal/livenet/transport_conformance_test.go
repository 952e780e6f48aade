package livenet

// Transport conformance suite: every Transport implementation must pass
// these against the documented contract (FIFO per directed link,
// exactly-once delivery whatever mix of corked and uncorked frames the
// sender hands over, no delivery on downed links, quiescence after
// Close). Run against both the in-proc channel transport and the UDP
// loopback transport.

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/wire"
)

// confMsg is the test payload, registered with the codec registry under
// a test-range type ID.
type confMsg struct {
	N int
}

func init() {
	wire.Register(wire.Codec{
		ID: 0x7F01, Name: "livenet_test.conf", Proto: confMsg{},
		Append: func(b []byte, m core.Message) []byte {
			return wire.AppendVarint(b, int64(m.(confMsg).N))
		},
		Decode: func(b []byte) (core.Message, error) {
			r := wire.NewReader(b)
			v := confMsg{N: int(r.Varint())}
			return v, r.Done()
		},
		Sample: func(rng *rand.Rand) core.Message {
			return confMsg{N: rng.IntN(1 << 20)}
		},
	})
}

// transportMaker builds a fresh transport over g for each subtest.
type transportMaker func(t *testing.T, g *graph.Graph) Transport

// makers returns the conformance matrix: the channel transport and the
// UDP transport.
func makers() map[string]transportMaker {
	return map[string]transportMaker{
		"channel": func(t *testing.T, g *graph.Graph) Transport {
			return NewChannelTransport(g, 200*time.Microsecond, 42)
		},
		"udp": func(t *testing.T, g *graph.Graph) Transport {
			tr, err := NewUDPTransport(g, 0)
			if err != nil {
				t.Fatalf("NewUDPTransport: %v", err)
			}
			return tr
		},
	}
}

// collector accumulates delivered frames, keyed by directed link.
type collector struct {
	mu     sync.Mutex
	byLink map[linkKey][]Frame
	total  int
}

func newCollector() *collector {
	return &collector{byLink: make(map[linkKey][]Frame)}
}

func (c *collector) deliver(f Frame) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := linkKey{f.From, f.To}
	c.byLink[k] = append(c.byLink[k], f)
	c.total++
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

func (c *collector) link(from, to core.NodeID) []Frame {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Frame(nil), c.byLink[linkKey{from, to}]...)
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(500 * time.Microsecond)
	}
	return cond()
}

func TestTransportConformance(t *testing.T) {
	for name, mk := range makers() {
		t.Run(name, func(t *testing.T) {
			t.Run("FIFOPerLink", func(t *testing.T) { testFIFOPerLink(t, mk) })
			t.Run("ExactlyOnce", func(t *testing.T) { testExactlyOnce(t, mk) })
			t.Run("CorkedMix", func(t *testing.T) { testCorkedMix(t, mk) })
			t.Run("CorkedAcrossLinks", func(t *testing.T) { testCorkedAcrossLinks(t, mk) })
			t.Run("UnknownLinkDropped", func(t *testing.T) { testUnknownLink(t, mk) })
			t.Run("NoDeliveryAfterLinkDown", func(t *testing.T) { testLinkDown(t, mk) })
			t.Run("LinkDownMidFlight", func(t *testing.T) { testLinkDownMidFlight(t, mk) })
			t.Run("QuiescentAfterClose", func(t *testing.T) { testClose(t, mk) })
		})
	}
}

// testFIFOPerLink floods several directed links concurrently and checks
// each link's frames arrive in send order with no loss.
func testFIFOPerLink(t *testing.T, mk transportMaker) {
	const perLink = 200
	g := graph.Clique(4)
	tr := mk(t, g)
	col := newCollector()
	if err := tr.Start(col.deliver); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close() //nolint:errcheck

	links := [][2]core.NodeID{{0, 1}, {1, 0}, {2, 3}, {0, 3}}
	var wg sync.WaitGroup
	for i, l := range links {
		wg.Add(1)
		go func(base uint64, from, to core.NodeID) {
			defer wg.Done()
			for n := 0; n < perLink; n++ {
				tr.Send(Frame{From: from, To: to, Msg: confMsg{N: n}, Mseq: base + uint64(n)})
			}
		}(uint64(i)*10_000+1, l[0], l[1])
	}
	wg.Wait()

	want := perLink * len(links)
	if !waitFor(t, 5*time.Second, func() bool { return col.count() >= want }) {
		t.Fatalf("delivered %d of %d frames", col.count(), want)
	}
	for _, l := range links {
		frames := col.link(l[0], l[1])
		if len(frames) != perLink {
			t.Fatalf("link %v→%v: %d frames, want %d", l[0], l[1], len(frames), perLink)
		}
		for n, f := range frames {
			m, ok := f.Msg.(confMsg)
			if !ok {
				t.Fatalf("link %v→%v frame %d: payload %T, want confMsg", l[0], l[1], n, f.Msg)
			}
			if m.N != n {
				t.Fatalf("link %v→%v: frame %d carries N=%d — FIFO violated", l[0], l[1], n, m.N)
			}
		}
	}
}

// testExactlyOnce checks no frame is delivered twice (the UDP transport
// must dedup its own retransmissions).
func testExactlyOnce(t *testing.T, mk transportMaker) {
	const msgs = 500
	g := graph.Line(2)
	tr := mk(t, g)

	// Force duplication on the wire where the transport allows it: the
	// UDP test hook re-sends every data packet twice.
	if udp, ok := tr.(*UDPTransport); ok {
		udp.mangle = func(pkt []byte) [][]byte { return [][]byte{pkt, pkt} }
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
	// Give duplicates a moment to surface, then count.
	time.Sleep(20 * time.Millisecond)
	frames := col.link(0, 1)
	seen := make(map[uint64]int, len(frames))
	for _, f := range frames {
		seen[f.Mseq]++
	}
	for mseq, c := range seen {
		if c != 1 {
			t.Fatalf("mseq %d delivered %d times", mseq, c)
		}
	}
	if len(seen) != msgs {
		t.Fatalf("distinct messages delivered = %d, want %d", len(seen), msgs)
	}
}

// testCorkedMix interleaves corked runs of every length from 0 to 7 with
// the uncorked frame that ends each, on two links of one sender and the
// reverse link at once — the shape a node's turn produces. Frame.More may
// change how frames share datagrams, never what is delivered: FIFO per
// link, exactly once, and nothing left behind once the last uncorked
// frame is out.
func testCorkedMix(t *testing.T, mk transportMaker) {
	g := graph.Line(3)
	tr := mk(t, g)
	if udp, ok := tr.(*UDPTransport); ok {
		udp.mangle = func(pkt []byte) [][]byte { return [][]byte{pkt, pkt} }
	}
	col := newCollector()
	if err := tr.Start(col.deliver); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close() //nolint:errcheck

	const runs = 64
	perLink := 0
	for r := 0; r < runs; r++ {
		perLink += r%8 + 1
	}
	var wg sync.WaitGroup
	// Node 1 sends to both neighbours from one goroutine, as a node loop
	// does; node 0 floods the reverse link concurrently.
	wg.Add(2)
	go func() {
		defer wg.Done()
		n := 0
		for r := 0; r < runs; r++ {
			for i := r%8 + 1; i > 0; i-- {
				for _, to := range []core.NodeID{0, 2} {
					tr.Send(Frame{From: 1, To: to, Msg: confMsg{N: n}, Mseq: uint64(2*n) + uint64(to)/2 + 1, More: i > 1})
				}
				n++
			}
		}
	}()
	go func() {
		defer wg.Done()
		n := 0
		for r := 0; r < runs; r++ {
			for i := r%8 + 1; i > 0; i-- {
				tr.Send(Frame{From: 0, To: 1, Msg: confMsg{N: n}, Mseq: uint64(n) + 1, More: i > 1})
				n++
			}
		}
	}()
	wg.Wait()

	links := [][2]core.NodeID{{1, 0}, {1, 2}, {0, 1}}
	want := perLink * len(links)
	if !waitFor(t, 5*time.Second, func() bool { return col.count() >= want }) {
		t.Fatalf("delivered %d of %d frames", col.count(), want)
	}
	time.Sleep(20 * time.Millisecond) // give duplicates a moment to surface
	for _, l := range links {
		frames := col.link(l[0], l[1])
		if len(frames) != perLink {
			t.Fatalf("link %v→%v: %d frames, want exactly %d", l[0], l[1], len(frames), perLink)
		}
		for n, f := range frames {
			if m := f.Msg.(confMsg); m.N != n {
				t.Fatalf("link %v→%v: frame %d carries N=%d — FIFO violated", l[0], l[1], n, m.N)
			}
		}
	}
}

// testCorkedAcrossLinks is the shape a shard's flush has: a sender corks
// a frame on one link and ends the flush with an uncorked frame on
// another. The cork spans links — the uncorked frame releases both — and
// changes nothing about what is delivered: FIFO per link, exactly once.
func testCorkedAcrossLinks(t *testing.T, mk transportMaker) {
	const rounds = 100
	g := graph.Line(3)
	tr := mk(t, g)
	if udp, ok := tr.(*UDPTransport); ok {
		udp.mangle = func(pkt []byte) [][]byte { return [][]byte{pkt, pkt} }
	}
	col := newCollector()
	if err := tr.Start(col.deliver); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close() //nolint:errcheck

	for n := 0; n < rounds; n++ {
		tr.Send(Frame{From: 1, To: 0, Msg: confMsg{N: n}, Mseq: uint64(2*n) + 1, More: true})
		tr.Send(Frame{From: 1, To: 2, Msg: confMsg{N: n}, Mseq: uint64(2*n) + 2})
	}
	if !waitFor(t, 5*time.Second, func() bool { return col.count() >= 2*rounds }) {
		t.Fatalf("delivered %d of %d frames", col.count(), 2*rounds)
	}
	time.Sleep(20 * time.Millisecond) // give duplicates a moment to surface
	for _, to := range []core.NodeID{0, 2} {
		frames := col.link(1, to)
		if len(frames) != rounds {
			t.Fatalf("link 1→%v: %d frames, want exactly %d", to, len(frames), rounds)
		}
		for n, f := range frames {
			if m := f.Msg.(confMsg); m.N != n {
				t.Fatalf("link 1→%v: frame %d carries N=%d — FIFO violated", to, n, m.N)
			}
		}
	}
}

// testUnknownLink sends on a pair that is not an edge and expects the
// frame to vanish rather than arrive or panic.
func testUnknownLink(t *testing.T, mk transportMaker) {
	g := graph.Line(3) // 0-1-2; no 0-2 edge
	tr := mk(t, g)
	col := newCollector()
	if err := tr.Start(col.deliver); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close() //nolint:errcheck

	tr.Send(Frame{From: 0, To: 2, Msg: confMsg{N: 1}, Mseq: 1})
	tr.Send(Frame{From: 0, To: 1, Msg: confMsg{N: 2}, Mseq: 2})
	if !waitFor(t, 5*time.Second, func() bool { return col.count() >= 1 }) {
		t.Fatal("the legal frame never arrived")
	}
	time.Sleep(10 * time.Millisecond)
	if got := col.link(0, 2); len(got) != 0 {
		t.Fatalf("frame delivered on non-edge 0→2: %v", got)
	}
}

// testLinkDown drops a link and checks frames sent afterwards never
// arrive, while other links keep working.
func testLinkDown(t *testing.T, mk transportMaker) {
	g := graph.Clique(3)
	tr := mk(t, g)
	col := newCollector()
	if err := tr.Start(col.deliver); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close() //nolint:errcheck

	tr.LinkDown(0, 1)
	for n := 0; n < 50; n++ {
		tr.Send(Frame{From: 0, To: 1, Msg: confMsg{N: n}, Mseq: uint64(n) + 1})
		tr.Send(Frame{From: 1, To: 0, Msg: confMsg{N: n}, Mseq: uint64(n) + 1})
	}
	tr.Send(Frame{From: 0, To: 2, Msg: confMsg{N: 99}, Mseq: 1000})
	if !waitFor(t, 5*time.Second, func() bool { return len(col.link(0, 2)) >= 1 }) {
		t.Fatal("surviving link 0→2 stopped delivering")
	}
	time.Sleep(20 * time.Millisecond)
	if got := col.link(0, 1); len(got) != 0 {
		t.Fatalf("%d frames delivered on downed link 0→1", len(got))
	}
	if got := col.link(1, 0); len(got) != 0 {
		t.Fatalf("%d frames delivered on downed link 1→0", len(got))
	}
}

// testLinkDownMidFlight takes a link down under a queue of frames: what
// was delivered before is a FIFO prefix, at most one delivery already in
// progress may land after LinkDown returns, nothing after it, and a
// sibling link of the sender keeps delivering.
func testLinkDownMidFlight(t *testing.T, mk transportMaker) {
	const queued = 2000
	g := graph.Clique(3)
	tr := mk(t, g)
	col := newCollector()
	if err := tr.Start(col.deliver); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close() //nolint:errcheck

	for n := 0; n < queued; n++ {
		tr.Send(Frame{From: 0, To: 1, Msg: confMsg{N: n}, Mseq: uint64(n) + 1})
	}
	tr.LinkDown(0, 1)
	before := len(col.link(0, 1))
	tr.Send(Frame{From: 0, To: 2, Msg: confMsg{N: 0}, Mseq: queued + 1})
	if !waitFor(t, 5*time.Second, func() bool { return len(col.link(0, 2)) >= 1 }) {
		t.Fatal("surviving link 0→2 stopped delivering")
	}
	time.Sleep(50 * time.Millisecond)
	frames := col.link(0, 1)
	if late := len(frames) - before; late > 1 {
		t.Fatalf("%d frames delivered on 0→1 after LinkDown returned (%d before), want at most 1", late, before)
	}
	for n, f := range frames {
		if m := f.Msg.(confMsg); m.N != n {
			t.Fatalf("link 0→1: frame %d carries N=%d — FIFO violated", n, m.N)
		}
	}
	t.Logf("%d of %d frames delivered on 0→1 when LinkDown returned, %d after", before, queued, len(frames)-before)
}

// testClose checks Close waits for quiescence: no deliver callback runs
// after Close returns.
func testClose(t *testing.T, mk transportMaker) {
	g := graph.Line(2)
	tr := mk(t, g)

	var mu sync.Mutex
	closed := false
	late := 0
	deliver := func(Frame) {
		mu.Lock()
		defer mu.Unlock()
		if closed {
			late++
		}
	}
	if err := tr.Start(deliver); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for n := 0; n < 200; n++ {
		tr.Send(Frame{From: 0, To: 1, Msg: confMsg{N: n}, Mseq: uint64(n) + 1})
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	mu.Lock()
	closed = true
	mu.Unlock()
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if late != 0 {
		t.Fatalf("%d deliveries after Close returned", late)
	}
	// Sending after Close must not panic.
	tr.Send(Frame{From: 0, To: 1, Msg: confMsg{N: -1}, Mseq: 9999})
}

// TestUDPReorderRecovery drops every third data datagram on first
// transmission (keyed by its first frame's seq — stable across
// retransmission repacking); the retransmit/reorder machinery must still
// deliver all frames in FIFO order.
func TestUDPReorderRecovery(t *testing.T) {
	g := graph.Line(2)
	tr, err := NewUDPTransport(g, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("NewUDPTransport: %v", err)
	}
	var mu sync.Mutex
	dropped := make(map[uint64]bool)
	tr.mangle = func(pkt []byte) [][]byte {
		_, body, err := wire.ParseDgram(pkt)
		if err != nil {
			t.Errorf("mangle: unparseable datagram: %v", err)
			return [][]byte{pkt}
		}
		f, _, err := wire.NextFrame(body)
		if err != nil {
			t.Errorf("mangle: unparseable first frame: %v", err)
			return [][]byte{pkt}
		}
		mu.Lock()
		defer mu.Unlock()
		if !dropped[f.Seq] && len(dropped)%3 == 0 {
			dropped[f.Seq] = true
			return nil // lose this transmission; retransmit must recover
		}
		dropped[f.Seq] = true
		return [][]byte{pkt}
	}

	col := newCollector()
	if err := tr.Start(col.deliver); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer tr.Close() //nolint:errcheck

	const msgs = 120
	for n := 0; n < msgs; n++ {
		tr.Send(Frame{From: 0, To: 1, Msg: confMsg{N: n}, Mseq: uint64(n) + 1})
	}
	if !waitFor(t, 10*time.Second, func() bool { return col.count() >= msgs }) {
		t.Fatalf("delivered %d of %d frames despite retransmits", col.count(), msgs)
	}
	for n, f := range col.link(0, 1) {
		if m := f.Msg.(confMsg); m.N != n {
			t.Fatalf("frame %d carries N=%d — FIFO violated across drops", n, m.N)
		}
	}
}

// stubProtocol is an inert automaton for runtime-plumbing tests.
type stubProtocol struct{ env core.Env }

func (p *stubProtocol) Init(env core.Env)                   { p.env = env; env.SetState(core.Thinking) }
func (p *stubProtocol) OnMessage(core.NodeID, core.Message) {}
func (p *stubProtocol) OnLinkUp(core.NodeID, bool)          {}
func (p *stubProtocol) OnLinkDown(core.NodeID)              {}
func (p *stubProtocol) BecomeHungry()                       { p.env.SetState(core.Eating) }
func (p *stubProtocol) ExitCS()                             { p.env.SetState(core.Thinking) }
func (p *stubProtocol) State() core.State                   { return core.Thinking }

// TestUDPNeighborsNotAliased is the vet for the Env.Neighbors read-only
// contract at the transport seam: the UDP transport must snapshot its
// adjacency at construction, never retaining slices that back the
// runtime's Env.Neighbors views.
func TestUDPNeighborsNotAliased(t *testing.T) {
	g := graph.Line(3)
	tr, err := NewUDPTransport(g, 0)
	if err != nil {
		t.Fatalf("NewUDPTransport: %v", err)
	}
	protos := make([]core.Protocol, g.N())
	for i := range protos {
		protos[i] = &stubProtocol{}
	}
	c, err := New(Config{Transport: tr}, g, protos)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Stop() //nolint:errcheck

	// Compare backing arrays of the runtime's read-only views with what
	// the transport retained: any shared pointer means the transport
	// could corrupt (or observe mutations of) the runtime's state.
	for id := range c.nbrs {
		view := c.nbrs[id]
		if len(view) == 0 {
			continue
		}
		for tid, kept := range tr.nbrs {
			if len(kept) > 0 && &kept[0] == &view[0] {
				t.Fatalf("UDP transport nbrs[%d] aliases the runtime's Neighbors(%d) view", tid, id)
			}
		}
	}
	// And the snapshot must really be a copy of graph state: mutating it
	// must leave the runtime's views intact.
	want := append([]core.NodeID(nil), c.nbrs[1]...)
	for _, kept := range tr.nbrs {
		for i := range kept {
			kept[i] = -1
		}
	}
	for i, id := range c.nbrs[1] {
		if id != want[i] {
			t.Fatal("mutating the transport's adjacency snapshot changed the runtime's view")
		}
	}
}
