package lme1

import (
	"testing"

	"lme/internal/coloring"
	"lme/internal/core"
	"lme/internal/doorway"
	"lme/internal/sim"
)

// fakeEnv drives a Node directly, recording everything it sends — the
// white-box harness for the recolouring module's corner cases.
type fakeEnv struct {
	id        core.NodeID
	neighbors []core.NodeID
	now       sim.Time
	moving    bool
	state     core.State

	sent []sent
}

type sent struct {
	to  core.NodeID
	msg core.Message
}

var _ core.Env = (*fakeEnv)(nil)

func (e *fakeEnv) ID() core.NodeID          { return e.id }
func (e *fakeEnv) Now() sim.Time            { return e.now }
func (e *fakeEnv) Neighbors() []core.NodeID { return append([]core.NodeID(nil), e.neighbors...) }
func (e *fakeEnv) Moving() bool             { return e.moving }
func (e *fakeEnv) SetState(s core.State)    { e.state = s }
func (e *fakeEnv) Send(to core.NodeID, m core.Message) {
	e.sent = append(e.sent, sent{to: to, msg: m})
}
func (e *fakeEnv) Broadcast(m core.Message) {
	for _, j := range e.neighbors {
		e.Send(j, m)
	}
}

// sentOfType filters the recorded messages by example type.
func (e *fakeEnv) count(match func(core.Message) bool) int {
	n := 0
	for _, s := range e.sent {
		if match(s.msg) {
			n++
		}
	}
	return n
}

// newRecoloringNode builds a node that has crossed AD^r and SD^r and just
// started the recolouring procedure.
func newRecoloringNode(t *testing.T, cfg Config, id core.NodeID, neighbors ...core.NodeID) (*Node, *fakeEnv) {
	t.Helper()
	env := &fakeEnv{id: id, neighbors: neighbors}
	n := New(cfg)
	n.Init(env)
	n.needsRecolor = true
	n.setState(core.Hungry)
	// Drive the doorway pipeline by observing every neighbour outside:
	// with all outside, BecomeHungry's AD^r entry crosses immediately,
	// and SD^r likewise, landing in startRecolor.
	n.startJourney()
	if !n.rec.active && cfg.Variant != VariantLinial {
		t.Fatal("recolouring did not start")
	}
	return n, env
}

func TestRecolorAloneFinishesImmediately(t *testing.T) {
	env := &fakeEnv{id: 5}
	n := New(Config{Variant: VariantGreedy})
	n.Init(env)
	n.needsRecolor = true
	n.setState(core.Hungry)
	n.startJourney()
	if n.rec.active {
		t.Fatal("recolouring still active with no neighbours")
	}
	if n.Color() != -1 {
		t.Fatalf("colour = %d, want -1 (ret 0 negated)", n.Color())
	}
	// With no neighbours the whole pipeline collapses and the node eats.
	if n.State() != core.Eating {
		t.Fatalf("state = %v, want eating", n.State())
	}
}

func TestRecolorNACKRemovesParticipant(t *testing.T) {
	n, env := newRecoloringNode(t, Config{Variant: VariantGreedy}, 1, 2)
	if got := env.count(func(m core.Message) bool { _, ok := m.(msgGraph); return ok }); got != 1 {
		t.Fatalf("sent %d graph messages, want 1", got)
	}
	n.OnMessage(2, msgNACK{})
	if n.rec.active {
		t.Fatal("recolouring still active after sole participant NACKed")
	}
	if n.Color() != -1 {
		t.Fatalf("colour = %d, want -1", n.Color())
	}
}

func TestRecolorGreedyTwoParty(t *testing.T) {
	n, env := newRecoloringNode(t, Config{Variant: VariantGreedy}, 1, 2)
	// Iteration 1: the neighbour's empty graph arrives.
	n.OnMessage(2, msgGraph{})
	if !n.rec.active {
		t.Fatal("finished after one iteration despite graph growth")
	}
	// Iteration 2: the neighbour now reports the shared edge; our graph
	// stops changing, so we finish, announce with Finished=true and
	// colour ourselves.
	n.OnMessage(2, msgGraph{Edges: coloringEdge(1, 2)})
	if n.rec.active {
		t.Fatal("not finished after stable iteration")
	}
	finals := env.count(func(m core.Message) bool {
		gm, ok := m.(msgGraph)
		return ok && gm.Finished
	})
	if finals != 1 {
		t.Fatalf("sent %d finished-graphs, want 1", finals)
	}
	// Deterministic greedy colouring of edge (1,2): node 1 gets 0.
	if n.Color() != -1 {
		t.Fatalf("colour = %d, want -1 (greedy colour 0 negated)", n.Color())
	}
	// An update-color broadcast must follow.
	if env.count(func(m core.Message) bool { _, ok := m.(msgUpdateColor); return ok }) == 0 {
		t.Fatal("no update-color broadcast after recolouring")
	}
}

func TestRecolorGreedyFinishedFlagShortCircuits(t *testing.T) {
	n, _ := newRecoloringNode(t, Config{Variant: VariantGreedy}, 1, 2)
	// The neighbour's first message already says Finished: we merge and
	// stop this iteration.
	n.OnMessage(2, msgGraph{Edges: coloringEdge(1, 2), Finished: true})
	if n.rec.active {
		t.Fatal("did not finish on neighbour's Finished flag")
	}
}

func TestRecolorNeighborLossCompletesIteration(t *testing.T) {
	n, _ := newRecoloringNode(t, Config{Variant: VariantGreedy}, 1, 2, 3)
	// Neighbour 2 responds, 3 moves away: the iteration must complete
	// with R = {2}.
	n.OnMessage(2, msgGraph{})
	if !n.rec.active {
		t.Fatal("iteration completed too early")
	}
	n.OnLinkDown(3)
	if !n.rec.active {
		t.Fatal("should continue with the remaining participant")
	}
	n.OnMessage(2, msgGraph{Edges: coloringEdge(1, 2)})
	if n.rec.active {
		t.Fatal("did not finish")
	}
}

func TestRecolorAbortOnMove(t *testing.T) {
	n, env := newRecoloringNode(t, Config{Variant: VariantGreedy}, 1, 2)
	env.moving = true
	n.OnLinkUp(9, true)
	if n.rec.active {
		t.Fatal("recolouring survived the move")
	}
	if !n.NeedsRecolor() {
		t.Fatal("needsRecolor cleared by the move")
	}
	if n.ph != phAwaitStatus {
		t.Fatalf("phase = %d, want await-status", n.ph)
	}
	// The pending status arrives: the journey restarts at AD^r.
	n.OnMessage(9, msgStatus{Color: 7})
	if n.ph != phEnterADr && n.ph != phEnterSDr && n.ph != phRecolor {
		t.Fatalf("phase = %d, want back in the recolouring pipeline", n.ph)
	}
}

func TestRecolorMsgWhileInactiveDrawsNACK(t *testing.T) {
	env := &fakeEnv{id: 1, neighbors: []core.NodeID{2}}
	n := New(Config{Variant: VariantGreedy})
	n.Init(env)
	n.OnMessage(2, msgGraph{})
	nacks := env.count(func(m core.Message) bool { _, ok := m.(msgNACK); return ok })
	if nacks != 1 {
		t.Fatalf("sent %d NACKs, want 1", nacks)
	}
	// A temp-colour message draws one too.
	n.OnMessage(2, msgTempColor{})
	if got := env.count(func(m core.Message) bool { _, ok := m.(msgNACK); return ok }); got != 2 {
		t.Fatalf("sent %d NACKs, want 2", got)
	}
	// A stray NACK while inactive is ignored.
	n.OnMessage(2, msgNACK{})
}

func TestRecolorLinialPhases(t *testing.T) {
	cfg := Config{Variant: VariantLinial, N: 64, Delta: 2}
	n, env := newRecoloringNode(t, cfg, 1, 2)
	if !n.rec.active {
		t.Fatal("linial recolouring did not start")
	}
	phases := len(n.rec.sched)
	if phases == 0 {
		t.Fatal("empty schedule for n=64 δ=2")
	}
	// Feed the neighbour's temp colour for each phase; it keeps its ID.
	for ph := 0; ph < phases; ph++ {
		if !n.rec.active {
			t.Fatalf("finished early at phase %d", ph)
		}
		n.OnMessage(2, msgTempColor{Phase: ph, Color: 2})
	}
	if n.rec.active {
		t.Fatal("did not finish after all phases")
	}
	if n.Color() >= 0 {
		t.Fatalf("colour = %d, want negative", n.Color())
	}
	tcs := env.count(func(m core.Message) bool { _, ok := m.(msgTempColor); return ok })
	if tcs != phases {
		t.Fatalf("sent %d temp-colours, want %d", tcs, phases)
	}
}

func TestRecolorFirstConfig(t *testing.T) {
	env := &fakeEnv{id: 3, neighbors: []core.NodeID{4}}
	n := New(Config{Variant: VariantGreedy, RecolorFirst: true})
	n.Init(env)
	if !n.NeedsRecolor() {
		t.Fatal("RecolorFirst did not arm the recolouring module")
	}
}

func TestSmallestFreeColor(t *testing.T) {
	env := &fakeEnv{id: 1, neighbors: []core.NodeID{2, 3, 4}}
	n := New(Config{})
	n.Init(env)
	n.setColorOf(2, 0)
	n.setColorOf(3, 1)
	n.setColorOf(4, 3)
	if got := n.smallestFreeColor(); got != 2 {
		t.Fatalf("smallestFreeColor = %d, want 2", got)
	}
	n.setFlag(2, pColored, false)
	if got := n.smallestFreeColor(); got != 0 {
		t.Fatalf("smallestFreeColor = %d, want 0", got)
	}
}

func TestReqWithUnknownColorSuspends(t *testing.T) {
	env := &fakeEnv{id: 1, neighbors: []core.NodeID{2}}
	n := New(Config{})
	n.Init(env)
	n.setFlag(2, pColored, false) // simulate an uncoloured newcomer holding a request
	n.setFlag(2, pFork, true)
	n.OnMessage(2, msgReq{})
	if !n.flag(2, pSuspended) {
		t.Fatal("request from uncoloured neighbour not suspended")
	}
	if !n.flag(2, pFork) {
		t.Fatal("fork left despite suspension")
	}
}

func TestDebugStringSmoke(t *testing.T) {
	env := &fakeEnv{id: 1, neighbors: []core.NodeID{2}}
	n := New(Config{})
	n.Init(env)
	if n.DebugString() == "" {
		t.Fatal("empty debug string")
	}
}

// coloringEdge builds the one-edge slice used by the graph messages.
func coloringEdge(a, b core.NodeID) []coloring.Edge {
	return []coloring.Edge{coloring.NewEdge(a, b)}
}

// The doorway positions carried in status messages default to Outside.
func TestStatusMessageDefaults(t *testing.T) {
	var m msgStatus
	for d := dwIndex(0); d < numDoorways; d++ {
		if m.Pos[d] == doorway.Behind {
			t.Fatal("zero status claims behind")
		}
	}
}

// pump routes every message sent by any of the nodes to its target until
// quiescence, preserving per-sender FIFO order — a miniature synchronous
// network for multi-party white-box tests.
func pump(t *testing.T, envs map[core.NodeID]*fakeEnv, nodes map[core.NodeID]*Node) {
	t.Helper()
	consumed := make(map[core.NodeID]int)
	for rounds := 0; rounds < 10_000; rounds++ {
		progressed := false
		for from, env := range envs {
			for consumed[from] < len(env.sent) {
				s := env.sent[consumed[from]]
				consumed[from]++
				progressed = true
				if dst, ok := nodes[s.to]; ok {
					dst.OnMessage(from, s.msg)
				}
			}
		}
		if !progressed {
			return
		}
	}
	t.Fatal("message pump did not quiesce")
}

// TestRecolorLinialReduceThreeParty runs the colour-reduction variant on a
// 3-clique of concurrent recolourers end to end: everyone must finish with
// distinct colours inside the reduced palette [-(δ+1), -1].
func TestRecolorLinialReduceThreeParty(t *testing.T) {
	const delta = 2
	cfg := Config{Variant: VariantLinialReduce, N: 64, Delta: delta}
	ids := []core.NodeID{1, 2, 3}
	envs := make(map[core.NodeID]*fakeEnv, len(ids))
	nodes := make(map[core.NodeID]*Node, len(ids))
	for _, id := range ids {
		var nbrs []core.NodeID
		for _, j := range ids {
			if j != id {
				nbrs = append(nbrs, j)
			}
		}
		envs[id] = &fakeEnv{id: id, neighbors: nbrs}
		n := New(cfg)
		n.Init(envs[id])
		n.needsRecolor = true
		n.setState(core.Hungry)
		nodes[id] = n
	}
	for _, id := range ids {
		nodes[id].startJourney()
	}
	pump(t, envs, nodes)
	seen := make(map[int]core.NodeID)
	for _, id := range ids {
		n := nodes[id]
		if n.rec.active {
			t.Fatalf("node %d never finished recolouring", id)
		}
		c := n.Color()
		if c < -(delta+1) || c > -1 {
			t.Fatalf("node %d colour %d outside reduced palette [-(δ+1), -1]", id, c)
		}
		if prev, dup := seen[c]; dup {
			t.Fatalf("nodes %d and %d share colour %d", prev, id, c)
		}
		seen[c] = id
	}
}

// TestRecolorLinialThreePartyPaletteWider: the plain Linial variant on the
// same clique finishes with legal colours but in the wider O(δ²) palette —
// the contrast the reduction variant exists for.
func TestRecolorLinialThreePartyPaletteWider(t *testing.T) {
	const delta = 2
	cfg := Config{Variant: VariantLinial, N: 64, Delta: delta}
	ids := []core.NodeID{1, 2, 3}
	envs := make(map[core.NodeID]*fakeEnv, len(ids))
	nodes := make(map[core.NodeID]*Node, len(ids))
	for _, id := range ids {
		var nbrs []core.NodeID
		for _, j := range ids {
			if j != id {
				nbrs = append(nbrs, j)
			}
		}
		envs[id] = &fakeEnv{id: id, neighbors: nbrs}
		n := New(cfg)
		n.Init(envs[id])
		n.needsRecolor = true
		n.setState(core.Hungry)
		nodes[id] = n
	}
	for _, id := range ids {
		nodes[id].startJourney()
	}
	pump(t, envs, nodes)
	seen := make(map[int]bool)
	for _, id := range ids {
		c := nodes[id].Color()
		if c >= 0 {
			t.Fatalf("node %d colour %d not negative", id, c)
		}
		if seen[c] {
			t.Fatalf("duplicate colour %d", c)
		}
		seen[c] = true
	}
}

// TestRecolorMixedTypeDropsParticipant: a participant that answers a
// greedy iteration with the wrong procedure's message is dropped from R
// rather than wedging the iteration.
func TestRecolorMixedTypeDropsParticipant(t *testing.T) {
	n, _ := newRecoloringNode(t, Config{Variant: VariantGreedy}, 1, 2, 3)
	n.OnMessage(2, msgGraph{})
	n.OnMessage(3, msgTempColor{Color: 9}) // wrong procedure
	// The iteration consumed both: 3 dropped, the loop continues with 2.
	if !n.rec.active {
		t.Fatal("finished prematurely")
	}
	if n.flag(3, pRecolor) {
		t.Fatal("mismatched participant still in R")
	}
	n.OnMessage(2, msgGraph{Edges: coloringEdge(1, 2)})
	if n.rec.active {
		t.Fatal("did not finish")
	}
}

// TestRecolorLinialMixedTypeDropsParticipant: same for the fast procedure.
func TestRecolorLinialMixedTypeDropsParticipant(t *testing.T) {
	cfg := Config{Variant: VariantLinial, N: 64, Delta: 2}
	n, _ := newRecoloringNode(t, cfg, 1, 2, 3)
	phases := len(n.rec.sched)
	n.OnMessage(2, msgTempColor{Phase: 0, Color: 2})
	n.OnMessage(3, msgGraph{}) // wrong procedure
	if n.flag(3, pRecolor) {
		t.Fatal("mismatched participant still in R")
	}
	for ph := 1; ph < phases && n.rec.active; ph++ {
		n.OnMessage(2, msgTempColor{Phase: ph, Color: 2})
	}
	if n.rec.active {
		t.Fatal("did not finish")
	}
	if n.Color() >= 0 {
		t.Fatalf("colour = %d", n.Color())
	}
}
