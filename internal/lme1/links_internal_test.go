package lme1

import (
	"testing"

	"lme/internal/core"
	"lme/internal/doorway"
)

// TestLinkUpStaticSendsStatus: the static side of a new link owns the
// fork, clears the newcomer's colour and replies with its colour and
// doorway positions (Line 46).
func TestLinkUpStaticSendsStatus(t *testing.T) {
	env := &fakeEnv{id: 1, neighbors: []core.NodeID{0}}
	n := New(Config{})
	n.Init(env)
	n.OnLinkUp(7, false)
	if !n.flag(7, pFork) {
		t.Fatal("static side does not own the new fork")
	}
	if _, known := n.colorOf(7); known {
		t.Fatal("newcomer's colour not cleared to ⊥")
	}
	var status *msgStatus
	for _, s := range env.sent {
		if m, ok := s.msg.(msgStatus); ok && s.to == 7 {
			status = &m
		}
	}
	if status == nil {
		t.Fatal("no status message sent to the newcomer")
	}
	if status.Color != n.myColor {
		t.Fatalf("status colour %d, want %d", status.Color, n.myColor)
	}
}

// TestLinkUpStaticReportsDoorwayPositions: a static node behind its fork
// doorways reports Behind in the status message.
func TestLinkUpStaticReportsDoorwayPositions(t *testing.T) {
	env := &fakeEnv{id: 1}
	n := New(Config{})
	n.Init(env)
	n.BecomeHungry() // no neighbours: sails behind AD^f and SD^f, eats
	if n.State() != core.Eating {
		t.Fatalf("state = %v", n.State())
	}
	n.OnLinkUp(7, false)
	var status *msgStatus
	for _, s := range env.sent {
		if m, ok := s.msg.(msgStatus); ok {
			status = &m
		}
	}
	if status == nil {
		t.Fatal("no status sent")
	}
	if status.Pos[adf] != doorway.Behind || status.Pos[sdf] != doorway.Behind {
		t.Fatalf("status positions %v, want behind fork doorways", status.Pos)
	}
	if status.Pos[adr] != doorway.Outside || status.Pos[sdr] != doorway.Outside {
		t.Fatalf("status positions %v, want outside recolour doorways", status.Pos)
	}
}

// TestMoverWaitsForAllStatuses: a hungry mover gaining two links must not
// restart its journey until both status messages arrived (Line 53).
func TestMoverWaitsForAllStatuses(t *testing.T) {
	env := &fakeEnv{id: 5, neighbors: []core.NodeID{1}}
	n := New(Config{})
	n.Init(env)
	n.BecomeHungry()
	env.moving = true
	n.OnLinkUp(8, true)
	n.OnLinkUp(9, true)
	if n.ph != phAwaitStatus {
		t.Fatalf("phase = %d, want await-status", n.ph)
	}
	n.OnMessage(8, msgStatus{Color: 3})
	if n.ph != phAwaitStatus {
		t.Fatal("restarted with one status still missing")
	}
	n.OnMessage(9, msgStatus{Color: 4})
	if n.ph == phAwaitStatus || n.ph == phIdle {
		t.Fatalf("phase = %d, want journey restarted", n.ph)
	}
	if !n.needsRecolor && !n.rec.active && n.Color() >= 0 {
		t.Fatal("mover skipped recolouring")
	}
	if c8, _ := n.colorOf(8); c8 != 3 {
		t.Fatal("status colours not recorded")
	}
	if c9, _ := n.colorOf(9); c9 != 4 {
		t.Fatal("status colours not recorded")
	}
}

// TestMoverStatusDrainViaLinkDown: if an awaited neighbour departs before
// its status arrives, the wait must drain through the LinkDown cleanup.
func TestMoverStatusDrainViaLinkDown(t *testing.T) {
	env := &fakeEnv{id: 5, neighbors: []core.NodeID{1}}
	n := New(Config{})
	n.Init(env)
	n.BecomeHungry()
	env.moving = true
	n.OnLinkUp(8, true)
	if n.ph != phAwaitStatus {
		t.Fatalf("phase = %d", n.ph)
	}
	n.OnLinkDown(8)
	if n.ph == phAwaitStatus {
		t.Fatal("stuck awaiting a departed neighbour's status")
	}
}

// TestReturnPathUnit drives Lines 59–60 directly: a low neighbour departs
// holding the shared fork while this node is behind SD^f; the node must
// exit the synchronous doorway, serve its suspended requests, and re-enter.
func TestReturnPathUnit(t *testing.T) {
	colors := map[core.NodeID]int{1: 2, 0: 1, 2: 3}
	env := &fakeEnv{id: 1, neighbors: []core.NodeID{0, 2}}
	n := New(Config{InitialColor: func(id core.NodeID) int { return colors[id] }})
	n.Init(env)
	// Arrange: hungry behind SD^f, low neighbour 0 (colour 1 < 2) holds
	// the shared fork, high neighbour 2's request suspended.
	n.BecomeHungry()
	if !n.dws[sdf].Behind() {
		t.Fatalf("not behind SD^f (ph=%d)", n.ph)
	}
	n.setFlag(0, pFork, false)
	n.setFlag(2, pFork, true)
	n.setFlag(2, pSuspended, true)
	forksBefore := env.count(func(m core.Message) bool { _, ok := m.(msgFork); return ok })
	n.OnLinkDown(0)
	if got := env.count(func(m core.Message) bool { _, ok := m.(msgFork); return ok }); got != forksBefore+1 {
		t.Fatalf("suspended request not served on the return path (forks %d → %d)", forksBefore, got)
	}
	// The node exited SD^f and immediately re-entered (it may have
	// crossed again at once since 2 is observed outside).
	if !n.dws[sdf].Behind() && !n.dws[sdf].Entering() {
		t.Fatal("not back at/behind the synchronous doorway")
	}
	// The wire saw an exit followed by a cross for SD^f (observe one
	// recipient; the fake env broadcasts to its static neighbour list).
	var sdfMsgs []bool
	for _, s := range env.sent {
		if m, ok := s.msg.(msgDoorway); ok && m.D == sdf && s.to == 2 {
			sdfMsgs = append(sdfMsgs, m.Cross)
		}
	}
	if len(sdfMsgs) < 3 || sdfMsgs[len(sdfMsgs)-2] != false || sdfMsgs[len(sdfMsgs)-1] != true {
		t.Fatalf("SD^f announcements = %v, want ... exit, cross", sdfMsgs)
	}
}

// TestHighNeighborDepartureUnblocks: losing the crashed-or-departed HIGH
// neighbour that held the last missing fork lets the node eat (the §5.1
// progress property, no return path involved).
func TestHighNeighborDepartureUnblocks(t *testing.T) {
	colors := map[core.NodeID]int{1: 2, 2: 5}
	env := &fakeEnv{id: 1, neighbors: []core.NodeID{2}}
	n := New(Config{InitialColor: func(id core.NodeID) int { return colors[id] }})
	n.Init(env)
	n.BecomeHungry()
	n.setFlag(2, pFork, false) // high neighbour holds the fork
	if n.State() == core.Eating {
		t.Skip("ate before arrangement") // cannot happen: at[2]=false set after
	}
	n.OnLinkDown(2)
	if n.State() != core.Eating {
		t.Fatalf("state = %v after the blocking high neighbour left", n.State())
	}
}

// TestEaterSuspendsRequestsEvenAtEntry is the erratum-3 regression at the
// unit level: a node that ate while only entering SD^f must suspend
// incoming requests exactly like a normal eater.
func TestEaterSuspendsRequestsEvenAtEntry(t *testing.T) {
	colors := map[core.NodeID]int{1: 2, 0: 1}
	env := &fakeEnv{id: 1, neighbors: []core.NodeID{0}}
	n := New(Config{InitialColor: func(id core.NodeID) int { return colors[id] }})
	n.Init(env)
	// Block the SD^f entry by observing the neighbour behind it, then
	// make the node hungry and hand it the last fork while it waits.
	n.dws[sdf].Observe(n.peers.Find(0), doorway.Behind)
	n.BecomeHungry()
	if n.dws[sdf].Behind() {
		t.Fatal("setup: crossed SD^f despite behind neighbour")
	}
	n.setFlag(0, pFork, false)
	n.OnMessage(0, msgFork{})
	if n.State() != core.Eating {
		t.Fatalf("state = %v, want eating at the doorway entry (Line 19)", n.State())
	}
	// A request arriving now must be suspended, not granted.
	n.OnMessage(0, msgReq{})
	if !n.flag(0, pSuspended) {
		t.Fatal("eater at the doorway entry granted a fork mid-CS")
	}
	// And the mover demotion applies to it too.
	env.moving = true
	n.OnLinkUp(9, true)
	if n.State() != core.Hungry {
		t.Fatalf("state = %v, want demoted to hungry", n.State())
	}
}
