package manet

import (
	"testing"
	"testing/quick"

	"lme/internal/core"
	"lme/internal/graph"
	"lme/internal/sim"
	"lme/internal/trace"
)

// stub is a minimal protocol that records everything it observes.
type stub struct {
	env   core.Env
	msgs  []stubMsg
	ups   []stubLink
	downs []core.NodeID
	state core.State
}

type stubMsg struct {
	from core.NodeID
	msg  core.Message
	at   sim.Time
}

type stubLink struct {
	peer      core.NodeID
	iAmMoving bool
}

func (s *stub) Init(env core.Env)        { s.env = env; s.state = core.Thinking }
func (s *stub) BecomeHungry()            { s.state = core.Hungry; s.env.SetState(core.Hungry) }
func (s *stub) ExitCS()                  { s.state = core.Thinking; s.env.SetState(core.Thinking) }
func (s *stub) State() core.State        { return s.state }
func (s *stub) OnLinkDown(p core.NodeID) { s.downs = append(s.downs, p) }

func (s *stub) OnMessage(from core.NodeID, msg core.Message) {
	s.msgs = append(s.msgs, stubMsg{from: from, msg: msg, at: s.env.Now()})
}

func (s *stub) OnLinkUp(peer core.NodeID, iAmMoving bool) {
	s.ups = append(s.ups, stubLink{peer: peer, iAmMoving: iAmMoving})
}

// buildWorld places nodes at the given points with stub protocols.
func buildWorld(t *testing.T, cfg Config, pts []graph.Point) (*World, []*stub) {
	t.Helper()
	w := NewWorld(cfg)
	stubs := make([]*stub, len(pts))
	for i, p := range pts {
		id := w.AddNode(p)
		stubs[i] = &stub{}
		w.SetProtocol(id, stubs[i])
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	return w, stubs
}

func lineConfig() Config {
	cfg := DefaultConfig()
	cfg.Radius = 0.15
	return cfg
}

func TestInitialLinksSilent(t *testing.T) {
	w, stubs := buildWorld(t, lineConfig(), []graph.Point{{X: 0}, {X: 0.1}, {X: 0.2}})
	if got := w.Neighbors(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Neighbors(0) = %v", got)
	}
	if got := w.Neighbors(1); len(got) != 2 {
		t.Fatalf("Neighbors(1) = %v", got)
	}
	for i, s := range stubs {
		if len(s.ups) != 0 {
			t.Fatalf("node %d got LinkUp for pre-existing link", i)
		}
	}
}

func TestSendDelayBoundsAndFIFO(t *testing.T) {
	cfg := lineConfig()
	cfg.MinDelay, cfg.MaxDelay = 500, 2_000
	w, stubs := buildWorld(t, cfg, []graph.Point{{X: 0}, {X: 0.1}})
	const k = 200
	w.At(0, func() {
		for i := 0; i < k; i++ {
			w.send(0, 1, i)
		}
	})
	if err := w.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(stubs[1].msgs) != k {
		t.Fatalf("delivered %d messages, want %d", len(stubs[1].msgs), k)
	}
	for i, m := range stubs[1].msgs {
		if got, ok := m.msg.(int); !ok || got != i {
			t.Fatalf("FIFO violated: position %d carries %v", i, m.msg)
		}
		if i > 0 && m.at < stubs[1].msgs[i-1].at {
			t.Fatalf("delivery times decreased at %d", i)
		}
	}
	if first := stubs[1].msgs[0].at; first < 500 {
		t.Fatalf("first delivery at %v, below MinDelay", first)
	}
}

func TestSendToNonNeighborDropped(t *testing.T) {
	w, stubs := buildWorld(t, lineConfig(), []graph.Point{{X: 0}, {X: 0.5}})
	w.At(0, func() { w.send(0, 1, "hello") })
	if err := w.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(stubs[1].msgs) != 0 {
		t.Fatal("message crossed a non-existent link")
	}
}

func TestInFlightDestroyedWithLink(t *testing.T) {
	cfg := lineConfig()
	cfg.MinDelay, cfg.MaxDelay = 5_000, 5_000
	w, stubs := buildWorld(t, cfg, []graph.Point{{X: 0}, {X: 0.1}})
	w.At(0, func() { w.send(0, 1, "doomed") })
	// Node 1 jumps out of range at t=1ms, before the 5ms delivery.
	w.JumpAt(1, graph.Point{X: 0.9}, 1_000, 1_000)
	if err := w.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(stubs[1].msgs) != 0 {
		t.Fatal("in-flight message survived link failure")
	}
	if len(stubs[0].downs) != 1 || stubs[0].downs[0] != 1 {
		t.Fatalf("node 0 LinkDowns = %v", stubs[0].downs)
	}

	// A message in flight across link down → up is still destroyed: the
	// link it was sent on is gone even though, at its delivery instant, a
	// link between the same two nodes exists again. The receiver must
	// therefore tell every incarnation of the pair apart — the initial
	// one, and each of the two that follow — while a message sent and
	// delivered within one incarnation gets through.
	w, stubs = buildWorld(t, cfg, []graph.Point{{X: 0}, {X: 0.1}})
	away, back := graph.Point{X: 0.9}, graph.Point{X: 0.1}
	w.At(0, func() { w.send(0, 1, "sent on incarnation 0") })
	w.JumpAt(1, away, 100, 1_000)
	w.JumpAt(1, back, 100, 2_000)
	w.At(3_000, func() { w.send(0, 1, "sent on incarnation 1") })
	w.JumpAt(1, away, 100, 4_000)
	w.JumpAt(1, back, 100, 4_500) // both earlier messages now due on incarnation 2
	w.At(9_000, func() { w.send(1, 0, "delivered") })
	if err := w.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(stubs[0].ups) != 2 || len(stubs[0].downs) != 2 {
		t.Fatalf("node 0 saw ups=%v downs=%v, want two link cycles", stubs[0].ups, stubs[0].downs)
	}
	if len(stubs[1].msgs) != 0 {
		t.Fatalf("message of a dead incarnation delivered on a later one: %v", stubs[1].msgs)
	}
	if len(stubs[0].msgs) != 1 || stubs[0].msgs[0].msg != "delivered" {
		t.Fatalf("node 0 received %v, want the one message of the live incarnation", stubs[0].msgs)
	}

	// One down → up with no send in between, in both directions at once:
	// each old message is at its receiver's send-sequence floor, not
	// above it, so it is destroyed. What either side sends after the
	// re-up gets through.
	w, stubs, drops := dropWorld(t, cfg)
	w.At(0, func() {
		w.send(0, 1, "0→1 on incarnation 0")
		w.send(1, 0, "1→0 on incarnation 0")
	})
	w.JumpAt(1, away, 100, 1_000)
	w.JumpAt(1, back, 100, 2_000)
	w.At(3_000, func() {
		w.send(0, 1, "0→1 after the re-up")
		w.send(1, 0, "1→0 after the re-up")
	})
	if err := w.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"1→0 after the re-up", "0→1 after the re-up"} {
		if len(stubs[i].msgs) != 1 || stubs[i].msgs[0].msg != want {
			t.Fatalf("node %d received %v, want only %q", i, stubs[i].msgs, want)
		}
	}
	if len(*drops) != 2 {
		t.Fatalf("drops %+v, want the two messages of incarnation 0", *drops)
	}
	for _, d := range *drops {
		if d.Detail != "link-changed" || d.MsgSeq != 1 || d.At != 5_000 {
			t.Fatalf("drop %+v, want link-changed of sequence 1 at 5ms", d)
		}
	}

	// A receiver that crashes between the send and the delivery instant
	// destroys the message, and the drop says why.
	w, stubs, drops = dropWorld(t, cfg)
	w.At(0, func() { w.send(0, 1, "to the dead") })
	w.CrashAt(1, 2_000)
	if err := w.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(stubs[1].msgs) != 0 {
		t.Fatalf("crashed node received %v", stubs[1].msgs)
	}
	if len(*drops) != 1 || (*drops)[0].Detail != "receiver-crashed" ||
		(*drops)[0].Node != 1 || (*drops)[0].Peer != 0 || (*drops)[0].MsgSeq != 1 {
		t.Fatalf("drops %+v, want one receiver-crashed drop of 0→1 sequence 1", *drops)
	}
}

// dropWorld is buildWorld over two linked stubs, with every drop event the
// bus publishes collected.
func dropWorld(t *testing.T, cfg Config) (*World, []*stub, *[]trace.Event) {
	t.Helper()
	w := NewWorld(cfg)
	var drops []trace.Event
	w.Bus().Subscribe(func(ev *trace.Event) { drops = append(drops, *ev) }, trace.KindDrop)
	stubs := []*stub{{}, {}}
	for i, p := range []graph.Point{{X: 0}, {X: 0.1}} {
		w.SetProtocol(w.AddNode(p), stubs[i])
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	return w, stubs, &drops
}

func TestLinkUpBiasMoverVsStatic(t *testing.T) {
	w, stubs := buildWorld(t, lineConfig(), []graph.Point{{X: 0}, {X: 0.5}})
	w.JumpAt(1, graph.Point{X: 0.1}, 10_000, 1_000)
	if err := w.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(stubs[0].ups) != 1 || stubs[0].ups[0].iAmMoving {
		t.Fatalf("static side got %+v", stubs[0].ups)
	}
	if len(stubs[1].ups) != 1 || !stubs[1].ups[0].iAmMoving {
		t.Fatalf("moving side got %+v", stubs[1].ups)
	}
}

func TestLinkUpBiasTwoMovers(t *testing.T) {
	w, stubs := buildWorld(t, lineConfig(), []graph.Point{{X: 0}, {X: 1}})
	// Both jump to the centre in the same instant; both are flagged
	// moving when the second jump recomputes links.
	w.JumpAt(0, graph.Point{X: 0.45}, 50_000, 1_000)
	w.JumpAt(1, graph.Point{X: 0.55}, 50_000, 1_000)
	if err := w.Run(0); err != nil {
		t.Fatal(err)
	}
	movingSides := 0
	for i, s := range stubs {
		if len(s.ups) != 1 {
			t.Fatalf("node %d ups = %v", i, s.ups)
		}
		if s.ups[0].iAmMoving {
			movingSides++
		}
	}
	if movingSides != 1 {
		t.Fatalf("got %d moving-side notifications, want exactly 1", movingSides)
	}
}

func TestJumpSettlesToStatic(t *testing.T) {
	w, _ := buildWorld(t, lineConfig(), []graph.Point{{X: 0}, {X: 0.5}})
	w.JumpAt(1, graph.Point{X: 0.1}, 5_000, 1_000)
	if err := w.RunUntil(2_000, 0); err != nil {
		t.Fatal(err)
	}
	if !w.Moving(1) {
		t.Fatal("node should be moving during settle window")
	}
	if err := w.RunUntil(10_000, 0); err != nil {
		t.Fatal(err)
	}
	if w.Moving(1) {
		t.Fatal("node still moving after settle")
	}
}

func TestMoveToCreatesAndDestroysLinks(t *testing.T) {
	cfg := lineConfig()
	w, stubs := buildWorld(t, cfg, []graph.Point{{X: 0}, {X: 0.1}, {X: 0.5}})
	// Node 0 travels from x=0 to x=0.6: loses 1, gains 2.
	w.At(0, func() { w.MoveTo(0, graph.Point{X: 0.6}, 1.0) })
	if err := w.Run(0); err != nil {
		t.Fatal(err)
	}
	if w.Moving(0) {
		t.Fatal("node 0 still moving after arrival")
	}
	if got := w.Neighbors(0); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Neighbors(0) after trip = %v", got)
	}
	if len(stubs[1].downs) != 1 || stubs[1].downs[0] != 0 {
		t.Fatalf("node 1 downs = %v", stubs[1].downs)
	}
	if len(stubs[2].ups) != 1 || stubs[2].ups[0].iAmMoving {
		t.Fatalf("node 2 ups = %v (static side expected)", stubs[2].ups)
	}
	if len(stubs[0].ups) != 1 || !stubs[0].ups[0].iAmMoving {
		t.Fatalf("node 0 ups = %v (moving side expected)", stubs[0].ups)
	}
}

func TestCrashStopsProcessingAndMovement(t *testing.T) {
	w, stubs := buildWorld(t, lineConfig(), []graph.Point{{X: 0}, {X: 0.1}})
	w.At(0, func() { w.MoveTo(0, graph.Point{X: 1}, 0.5) })
	w.CrashAt(0, 30_000)
	w.At(40_000, func() { w.send(1, 0, "late") })
	if err := w.Run(0); err != nil {
		t.Fatal(err)
	}
	if !w.Crashed(0) {
		t.Fatal("node 0 not crashed")
	}
	if len(stubs[0].msgs) != 0 {
		t.Fatal("crashed node processed a message")
	}
	pos := w.Position(0)
	if pos.X >= 0.5 {
		t.Fatalf("crashed node kept moving to x=%.3f", pos.X)
	}
}

func TestStateListenerFanout(t *testing.T) {
	w, stubs := buildWorld(t, lineConfig(), []graph.Point{{X: 0}})
	var events []core.State
	w.AddStateListener(core.ListenerFunc(func(id core.NodeID, old, new core.State, at sim.Time) {
		events = append(events, new)
	}))
	w.At(0, func() { stubs[0].BecomeHungry() })
	w.At(10, func() { stubs[0].ExitCS() })
	if err := w.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0] != core.Hungry || events[1] != core.Thinking {
		t.Fatalf("events = %v", events)
	}
	if w.State(0) != core.Thinking {
		t.Fatalf("State(0) = %v", w.State(0))
	}
}

func TestLinkListenerFanout(t *testing.T) {
	w, _ := buildWorld(t, lineConfig(), []graph.Point{{X: 0}, {X: 0.5}})
	type ev struct {
		a, b core.NodeID
		up   bool
	}
	var events []ev
	w.AddLinkListener(linkListenerFunc(func(a, b core.NodeID, up bool, at sim.Time) {
		events = append(events, ev{a, b, up})
	}))
	w.JumpAt(1, graph.Point{X: 0.1}, 1_000, 1_000)
	w.JumpAt(1, graph.Point{X: 0.9}, 1_000, 50_000)
	if err := w.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || !events[0].up || events[1].up {
		t.Fatalf("events = %v", events)
	}
}

type linkListenerFunc func(a, b core.NodeID, up bool, at sim.Time)

func (f linkListenerFunc) OnLink(a, b core.NodeID, up bool, at sim.Time) { f(a, b, up, at) }

func TestCommGraphSnapshot(t *testing.T) {
	w, _ := buildWorld(t, lineConfig(), []graph.Point{{X: 0}, {X: 0.1}, {X: 0.2}, {X: 0.9}})
	g := w.CommGraph()
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || g.HasEdge(2, 3) {
		t.Fatalf("snapshot edges = %v", g.Edges())
	}
	if w.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %d", w.MaxDegree())
	}
}

func TestBroadcastReachesAllNeighbors(t *testing.T) {
	w, stubs := buildWorld(t, lineConfig(), []graph.Point{{X: 0.1}, {X: 0}, {X: 0.2}, {X: 0.9}})
	w.At(0, func() { stubs[0].env.Broadcast("hi") })
	if err := w.Run(0); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2} {
		if len(stubs[i].msgs) != 1 {
			t.Fatalf("neighbour %d got %d messages", i, len(stubs[i].msgs))
		}
	}
	if len(stubs[3].msgs) != 0 {
		t.Fatal("non-neighbour received broadcast")
	}
}

func TestWaypointKeepsMovingNodes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Radius = 0.3
	w, _ := buildWorld(t, cfg, []graph.Point{{X: 0.1, Y: 0.1}, {X: 0.2, Y: 0.2}})
	start := w.Position(0)
	Waypoint{Speed: 0.5, PauseMin: 1_000, PauseMax: 5_000, Until: 400_000}.Attach(w, []core.NodeID{0})
	// A trip started just before Until can take up to ~2.9s at speed
	// 0.5; run long enough for the last trip to finish.
	if err := w.RunUntil(4_000_000, 0); err != nil {
		t.Fatal(err)
	}
	if w.Position(0) == start {
		t.Fatal("waypoint mover never moved")
	}
	if w.Moving(0) {
		t.Fatal("mover should settle after Until")
	}
}

func TestWorldDeterminism(t *testing.T) {
	run := func() []sim.Time {
		cfg := DefaultConfig()
		cfg.Seed = 77
		w := NewWorld(cfg)
		stubs := make([]*stub, 4)
		for i := range stubs {
			stubs[i] = &stub{}
			id := w.AddNode(graph.Point{X: float64(i) * 0.2})
			w.SetProtocol(id, stubs[i])
		}
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		Waypoint{Speed: 0.4, PauseMin: 1_000, PauseMax: 20_000, Until: 300_000}.Attach(w, []core.NodeID{0, 3})
		w.At(0, func() { stubs[1].env.Broadcast("x") })
		if err := w.RunUntil(500_000, 0); err != nil {
			t.Fatal(err)
		}
		var times []sim.Time
		for _, s := range stubs {
			for _, m := range s.msgs {
				times = append(times, m.at)
			}
		}
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in message count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at message %d", i)
		}
	}
}

// TestFIFOProperty uses quick to check FIFO delivery under random delays.
func TestFIFOProperty(t *testing.T) {
	prop := func(seed uint64, burst uint8) bool {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Radius = 0.5
		w := NewWorld(cfg)
		s0, s1 := &stub{}, &stub{}
		w.AddNode(graph.Point{X: 0})
		w.AddNode(graph.Point{X: 0.1})
		w.SetProtocol(0, s0)
		w.SetProtocol(1, s1)
		if err := w.Start(); err != nil {
			return false
		}
		n := int(burst%50) + 1
		for i := 0; i < n; i++ {
			i := i
			w.At(sim.Time(i*100), func() { w.send(0, 1, i) })
		}
		if err := w.Run(0); err != nil {
			return false
		}
		if len(s1.msgs) != n {
			return false
		}
		for i, m := range s1.msgs {
			if v, ok := m.msg.(int); !ok || v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMessageCounters(t *testing.T) {
	cfg := lineConfig()
	cfg.MinDelay, cfg.MaxDelay = 5_000, 5_000
	w, stubs := buildWorld(t, cfg, []graph.Point{{X: 0}, {X: 0.1}})
	w.At(0, func() { stubs[0].env.Send(1, "a") })     // delivers at 5ms
	w.At(3_000, func() { stubs[0].env.Send(1, "b") }) // would deliver at 8ms
	// The second message dies with the link: node 1 jumps away at 6ms.
	w.JumpAt(1, graph.Point{X: 0.9}, 1_000, 6_000)
	if err := w.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := w.MessagesSent(); got != 2 {
		t.Fatalf("MessagesSent = %d, want 2", got)
	}
	if got := w.MessagesDelivered(); got != 1 {
		t.Fatalf("MessagesDelivered = %d, want 1 (second dropped with the link)", got)
	}
}

func TestJumpSupersedesMoveTo(t *testing.T) {
	w, _ := buildWorld(t, lineConfig(), []graph.Point{{X: 0}, {X: 0.5}})
	w.At(0, func() { w.MoveTo(0, graph.Point{X: 1}, 0.2) })
	// The jump at 50ms overrides the slow trip; stale ticks must not
	// resurrect the old movement.
	w.JumpAt(0, graph.Point{X: 0.25}, 10_000, 50_000)
	if err := w.RunUntil(2_000_000, 0); err != nil {
		t.Fatal(err)
	}
	if w.Moving(0) {
		t.Fatal("still moving after jump settled")
	}
	if got := w.Position(0); got.X != 0.25 {
		t.Fatalf("position = %+v, want the jump destination", got)
	}
}

func TestCrashedMoverStopsNotifying(t *testing.T) {
	w, _ := buildWorld(t, lineConfig(), []graph.Point{{X: 0}, {X: 0.5}})
	var moves []bool
	w.AddMoveListener(moveListenerFunc(func(id core.NodeID, moving bool, at sim.Time) {
		if id == 0 {
			moves = append(moves, moving)
		}
	}))
	w.At(0, func() { w.MoveTo(0, graph.Point{X: 1}, 0.1) })
	w.CrashAt(0, 100_000)
	if err := w.Run(0); err != nil {
		t.Fatal(err)
	}
	// Start event plus the crash-induced stop; nothing after.
	if len(moves) != 2 || !moves[0] || moves[1] {
		t.Fatalf("move events = %v, want [true false]", moves)
	}
}

type moveListenerFunc func(id core.NodeID, moving bool, at sim.Time)

func (f moveListenerFunc) OnMove(id core.NodeID, moving bool, at sim.Time) { f(id, moving, at) }

func TestBroadcastWithNoNeighbors(t *testing.T) {
	w, stubs := buildWorld(t, lineConfig(), []graph.Point{{X: 0}})
	w.At(0, func() { stubs[0].env.Broadcast("void") })
	if err := w.Run(0); err != nil {
		t.Fatal(err)
	}
	if w.MessagesSent() != 0 {
		t.Fatal("broadcast to nobody counted as sent")
	}
}

func TestConfigNormalization(t *testing.T) {
	w := NewWorld(Config{MinDelay: 50, MaxDelay: 10})
	if w.cfg.MinDelay > w.cfg.MaxDelay {
		t.Fatalf("delays not normalised: %+v", w.cfg)
	}
	w2 := NewWorld(Config{})
	if w2.cfg.TickInterval <= 0 || w2.cfg.MaxDelay <= 0 || w2.cfg.MinDelay <= 0 {
		t.Fatalf("zero config not defaulted: %+v", w2.cfg)
	}
}

func TestStartValidation(t *testing.T) {
	w := NewWorld(DefaultConfig())
	w.AddNode(graph.Point{})
	if err := w.Start(); err == nil {
		t.Fatal("Start accepted a node without a protocol")
	}
	w2 := NewWorld(DefaultConfig())
	id := w2.AddNode(graph.Point{})
	w2.SetProtocol(id, &stub{})
	if err := w2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Start(); err == nil {
		t.Fatal("double Start accepted")
	}
}
